// Tiny command-line option parser for the example applications.
//
// Supports `--name value`, `--name=value` and boolean `--flag` options plus
// `--help` text generation. Examples register typed options bound to
// variables so scenario structs stay the single source of truth.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pas::io {

class Cli {
 public:
  Cli(std::string program, std::string description)
      : program_(std::move(program)), description_(std::move(description)) {}

  /// Registers options bound to caller-owned variables. Defaults shown in
  /// --help come from the bound variable's value at registration time.
  void add_flag(std::string name, bool* target, std::string help);
  void add_int(std::string name, std::int64_t* target, std::string help);
  void add_uint(std::string name, std::uint64_t* target, std::string help);
  void add_double(std::string name, double* target, std::string help);
  void add_string(std::string name, std::string* target, std::string help);

  /// Parses argv. Returns false (after printing a message) on --help or on a
  /// parse error; callers should exit(0)/exit(2) respectively via status().
  bool parse(int argc, const char* const* argv);

  /// 0 after --help, 2 after an error, 1 while unset/after success.
  [[nodiscard]] int status() const noexcept { return status_; }

  [[nodiscard]] std::string help() const;

  /// Positional arguments left over after option parsing.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Names of the options given on the command line (without dashes), once
  /// each, in the order first given; a default value given explicitly
  /// counts. Lets a program reject options its chosen mode would ignore.
  [[nodiscard]] const std::vector<std::string>& given() const noexcept {
    return given_;
  }

 private:
  struct Option {
    std::string name;  // without leading dashes
    std::string help;
    std::string default_value;
    bool is_flag = false;
    std::function<bool(std::string_view)> apply;
  };

  void add_option(Option opt);
  [[nodiscard]] const Option* find(std::string_view name) const;

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
  std::vector<std::string> positional_;
  std::vector<std::string> given_;
  int status_ = 1;
};

}  // namespace pas::io
