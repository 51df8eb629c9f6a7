#include "io/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "io/csv.hpp"

namespace pas::io {

namespace {
template <typename T>
bool parse_number(std::string_view text, T* out) {
  const char* first = text.data();
  const char* last = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) return false;
  *out = value;
  return true;
}
}  // namespace

void Cli::add_option(Option opt) {
  if (find(opt.name) != nullptr) {
    throw std::logic_error("Cli: duplicate option --" + opt.name);
  }
  options_.push_back(std::move(opt));
}

void Cli::add_flag(std::string name, bool* target, std::string help_text) {
  Option o;
  o.name = std::move(name);
  o.help = std::move(help_text);
  o.default_value = *target ? "true" : "false";
  o.is_flag = true;
  o.apply = [target](std::string_view v) {
    if (v.empty() || v == "true" || v == "1") { *target = true; return true; }
    if (v == "false" || v == "0") { *target = false; return true; }
    return false;
  };
  add_option(std::move(o));
}

void Cli::add_int(std::string name, std::int64_t* target, std::string help_text) {
  Option o;
  o.name = std::move(name);
  o.help = std::move(help_text);
  o.default_value = std::to_string(*target);
  o.apply = [target](std::string_view v) { return parse_number(v, target); };
  add_option(std::move(o));
}

void Cli::add_uint(std::string name, std::uint64_t* target, std::string help_text) {
  Option o;
  o.name = std::move(name);
  o.help = std::move(help_text);
  o.default_value = std::to_string(*target);
  o.apply = [target](std::string_view v) { return parse_number(v, target); };
  add_option(std::move(o));
}

void Cli::add_double(std::string name, double* target, std::string help_text) {
  Option o;
  o.name = std::move(name);
  o.help = std::move(help_text);
  o.default_value = format_double(*target);
  o.apply = [target](std::string_view v) { return parse_number(v, target); };
  add_option(std::move(o));
}

void Cli::add_string(std::string name, std::string* target, std::string help_text) {
  Option o;
  o.name = std::move(name);
  o.help = std::move(help_text);
  o.default_value = *target;
  o.apply = [target](std::string_view v) {
    *target = std::string(v);
    return true;
  };
  add_option(std::move(o));
}

const Cli::Option* Cli::find(std::string_view name) const {
  for (const auto& o : options_) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

std::string Cli::help() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nOptions:\n";
  for (const auto& o : options_) {
    os << "  --" << o.name;
    if (!o.is_flag) os << " <value>";
    os << "\n      " << o.help << " (default: " << o.default_value << ")\n";
  }
  os << "  --help\n      Show this message.\n";
  return os.str();
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help().c_str(), stdout);
      status_ = 0;
      return false;
    }
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    std::string_view name = arg;
    std::optional<std::string_view> inline_value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }
    const Option* opt = find(name);
    if (opt == nullptr) {
      std::fprintf(stderr, "%s: unknown option --%.*s\n", program_.c_str(),
                   static_cast<int>(name.size()), name.data());
      status_ = 2;
      return false;
    }
    std::string_view value;
    if (inline_value.has_value()) {
      value = *inline_value;
    } else if (!opt->is_flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --%s requires a value\n", program_.c_str(),
                     opt->name.c_str());
        status_ = 2;
        return false;
      }
      value = argv[++i];
    }
    if (!opt->apply(value)) {
      std::fprintf(stderr, "%s: bad value for --%s: '%.*s'\n", program_.c_str(),
                   opt->name.c_str(), static_cast<int>(value.size()),
                   value.data());
      status_ = 2;
      return false;
    }
    if (std::find(given_.begin(), given_.end(), opt->name) == given_.end()) {
      given_.push_back(opt->name);
    }
  }
  status_ = 1;
  return true;
}

}  // namespace pas::io
