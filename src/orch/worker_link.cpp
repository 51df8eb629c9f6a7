#include "orch/worker_link.hpp"

#include <unistd.h>

#include <charconv>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/grid.hpp"
#include "exp/runner.hpp"
#include "runtime/thread_pool.hpp"
#include "world/sweep.hpp"

namespace pas::orch {

namespace {

/// Splits on single spaces; empty tokens (leading/double/trailing spaces)
/// make the line malformed.
std::optional<std::vector<std::string>> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string token;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ' ') {
      if (token.empty()) return std::nullopt;
      tokens.push_back(std::move(token));
      token.clear();
    } else if (line[i] == '\r' || line[i] == '\n') {
      return std::nullopt;
    } else {
      token.push_back(line[i]);
    }
  }
  return tokens;
}

template <typename T>
bool parse_number(const std::string& token, T& out) {
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc{} && ptr == token.data() + token.size();
}

/// Decodes a lower-case hex token; false for an empty or odd-length token
/// or any other character.
bool parse_hex(const std::string& token, std::string& out) {
  if (token.empty() || token.size() % 2 != 0) return false;
  const auto nibble = [](char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  out.resize(token.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int hi = nibble(token[2 * i]);
    const int lo = nibble(token[2 * i + 1]);
    if (hi < 0 || lo < 0) return false;
    out[i] = static_cast<char>(hi << 4 | lo);
  }
  return true;
}

/// Serialized line writer shared by the worker's main loop and its
/// heartbeat thread. A point_done line can exceed PIPE_BUF, so the kernel
/// may split it across writes; the lock keeps any other line out of the
/// middle.
class LineWriter {
 public:
  explicit LineWriter(int fd) : fd_(fd) {}

  /// Returns false when the peer is gone (EPIPE with SIGPIPE ignored).
  bool send(const std::string& line) {
    const std::lock_guard lock(mutex_);
    return write_line(fd_, line);
  }

 private:
  int fd_;
  std::mutex mutex_;
};

/// Emits `hb` every 0.5 s until stopped, so the driver's hang detector
/// sees liveness even while the main thread is inside a long simulation.
class HeartbeatThread {
 public:
  explicit HeartbeatThread(LineWriter& out)
      : out_(out), thread_([this] { loop(); }) {}

  ~HeartbeatThread() { stop(); }

  void stop() {
    {
      const std::lock_guard lock(mutex_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void loop() {
    std::unique_lock lock(mutex_);
    while (!stopped_) {
      cv_.wait_for(lock, std::chrono::milliseconds(500));
      if (stopped_) break;
      lock.unlock();
      out_.send(format_heartbeat());
      lock.lock();
    }
  }

  LineWriter& out_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

/// Parses PAS_ORCH_TEST_CRASH ("<worker_id>:<n>" or "*:<n>"); 0 when
/// unset/foreign.
std::size_t crash_after_points(int worker_id) {
  const char* spec = std::getenv("PAS_ORCH_TEST_CRASH");
  if (spec == nullptr) return 0;
  const std::string s(spec);
  const auto colon = s.find(':');
  if (colon == std::string::npos) return 0;
  std::size_t after = 0;
  if (!parse_number(s.substr(colon + 1), after)) return 0;
  const std::string who = s.substr(0, colon);
  if (who == "*") return after;
  int id = -1;
  if (!parse_number(who, id)) return 0;
  return id == worker_id ? after : 0;
}

}  // namespace

bool write_line(int fd, const std::string& line) {
  std::string buf = line;
  buf.push_back('\n');
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::write(fd, buf.data() + off, buf.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// --- Parsing / formatting ---------------------------------------------------

std::optional<WorkerMsg> parse_worker_line(const std::string& line) {
  // `fail` carries free text (whatever e.what() said, flattened to one
  // line); validate only the prefix so spacing in the message cannot turn
  // a real error report into a "malformed line" protocol violation.
  if (line.rfind("fail ", 0) == 0) {
    if (line.size() == 5 ||
        line.find_first_of("\r\n") != std::string::npos) {
      return std::nullopt;
    }
    WorkerMsg msg;
    msg.kind = WorkerMsg::Kind::kFail;
    msg.message = line.substr(5);
    return msg;
  }
  const auto tokens = tokenize(line);
  if (!tokens) return std::nullopt;
  WorkerMsg msg;
  const auto& t = *tokens;
  if (t[0] == "hb") {
    if (t.size() != 1) return std::nullopt;
    msg.kind = WorkerMsg::Kind::kHeartbeat;
  } else if (t[0] == "hello") {
    if (t.size() != 2 || !parse_number(t[1], msg.worker) || msg.worker < 0) {
      return std::nullopt;
    }
    msg.kind = WorkerMsg::Kind::kHello;
  } else if (t[0] == "point_done") {
    if (t.size() != 3 || !parse_number(t[1], msg.point) ||
        !parse_hex(t[2], msg.rows)) {
      return std::nullopt;
    }
    msg.kind = WorkerMsg::Kind::kPointDone;
  } else {
    return std::nullopt;  // includes a bare "fail" with no message
  }
  return msg;
}

std::optional<DriverCmd> parse_driver_line(const std::string& line) {
  const auto tokens = tokenize(line);
  if (!tokens) return std::nullopt;
  DriverCmd cmd;
  const auto& t = *tokens;
  if (t[0] == "quit") {
    if (t.size() != 1) return std::nullopt;
    cmd.kind = DriverCmd::Kind::kQuit;
  } else if (t[0] == "point") {
    if (t.size() != 2 || !parse_number(t[1], cmd.point)) return std::nullopt;
    cmd.kind = DriverCmd::Kind::kPoint;
  } else {
    return std::nullopt;
  }
  return cmd;
}

std::string format_hello(int worker) {
  return "hello " + std::to_string(worker);
}

std::string format_heartbeat() { return "hb"; }

std::string format_point_done(std::size_t point, std::string_view rows) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "point_done " + std::to_string(point) + ' ';
  out.reserve(out.size() + 2 * rows.size());
  for (const char c : rows) {
    const auto byte = static_cast<unsigned char>(c);
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xFu]);
  }
  return out;
}

std::string format_fail(const std::string& message) {
  // The protocol is line-oriented; flatten any newlines in e.what().
  std::string flat = message.empty() ? std::string("unknown error") : message;
  for (auto& c : flat) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return "fail " + flat;
}

std::string format_point(std::size_t point) {
  return "point " + std::to_string(point);
}

std::string format_quit() { return "quit"; }

// --- Worker main loop -------------------------------------------------------

int run_worker(const exp::Manifest& manifest, const WorkerOptions& options) {
  // A dead driver must surface as EPIPE from send() (→ orderly exit), not
  // as a SIGPIPE that kills the worker. The supervisor resets the
  // disposition to default before exec, so this is the worker's own
  // responsibility.
  ::signal(SIGPIPE, SIG_IGN);
  LineWriter out(STDOUT_FILENO);
  try {
    manifest.validate();
    const auto points = exp::expand_grid(manifest);
    // Built like the driver's, so encode_point renders exactly the batch
    // its store expects; no owned_points, as the driver hands out points
    // at runtime.
    const exp::Aggregator aggregator(exp::campaign_aggregator_options(
        manifest, points, options.out_csv, "", options.per_run_csv,
        options.metrics_path));

    std::unique_ptr<runtime::ThreadPool> pool;
    if (options.jobs > 1) {
      pool = std::make_unique<runtime::ThreadPool>(options.jobs);
    }

    const std::size_t crash_after = crash_after_points(options.worker_id);
    std::size_t done_since_start = 0;

    if (!out.send(format_hello(options.worker_id))) return 1;
    HeartbeatThread heartbeat(out);

    std::string line;
    while (std::getline(std::cin, line)) {
      const auto cmd = parse_driver_line(line);
      if (!cmd) {
        heartbeat.stop();
        out.send(format_fail("malformed driver command: " + line));
        return 1;
      }
      if (cmd->kind == DriverCmd::Kind::kQuit) break;
      const std::size_t p = cmd->point;
      if (p >= points.size()) {
        heartbeat.stop();
        out.send(format_fail("point " + std::to_string(p) +
                             " is outside the grid"));
        return 1;
      }
      const auto metrics = world::run_replicated(
          points[p].config, manifest.replications, pool.get());
      if (!out.send(format_point_done(
              p, aggregator.encode_point(points[p], metrics)))) {
        return 1;  // driver died (EPIPE)
      }
      if (crash_after != 0 && ++done_since_start >= crash_after) {
        // Deterministic mid-campaign SIGKILL for the recovery tests.
        ::raise(SIGKILL);
      }
    }
    heartbeat.stop();  // `quit` or stdin EOF (driver gone)
    return 0;
  } catch (const std::exception& e) {
    out.send(format_fail(e.what()));
    return 1;
  }
}

}  // namespace pas::orch
