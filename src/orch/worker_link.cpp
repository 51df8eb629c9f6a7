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
#include <sstream>
#include <thread>

#include "exp/aggregate.hpp"
#include "exp/grid.hpp"
#include "exp/runner.hpp"
#include "exp/telemetry.hpp"
#include "runtime/thread_pool.hpp"

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

/// Serialized line writer shared by the worker's main loop and its
/// heartbeat thread; one write() per line keeps lines atomic on the pipe
/// (they are far below PIPE_BUF).
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

/// Emits `hb` every period until stopped, so the driver's hang detector
/// sees liveness even while the main thread is inside a long simulation.
class HeartbeatThread {
 public:
  HeartbeatThread(LineWriter& out, double period_s)
      : out_(out), period_s_(period_s), thread_([this] { loop(); }) {}

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
      cv_.wait_for(lock, std::chrono::duration<double>(period_s_));
      if (stopped_) break;
      lock.unlock();
      out_.send(format_heartbeat());
      lock.lock();
    }
  }

  LineWriter& out_;
  double period_s_;
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
    if (t.size() != 3 || !parse_number(t[1], msg.worker) || msg.worker < 0 ||
        !parse_number(t[2], msg.recovered)) {
      return std::nullopt;
    }
    msg.kind = WorkerMsg::Kind::kHello;
  } else if (t[0] == "point_done") {
    if (t.size() != 2 || !parse_number(t[1], msg.point)) return std::nullopt;
    msg.kind = WorkerMsg::Kind::kPointDone;
  } else if (t[0] == "lease_done") {
    if (t.size() != 2 || !parse_number(t[1], msg.lease)) return std::nullopt;
    msg.kind = WorkerMsg::Kind::kLeaseDone;
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
  } else if (t[0] == "lease") {
    if (t.size() < 3 || !parse_number(t[1], cmd.lease)) return std::nullopt;
    cmd.kind = DriverCmd::Kind::kLease;
    cmd.points.reserve(t.size() - 2);
    for (std::size_t i = 2; i < t.size(); ++i) {
      std::size_t point = 0;
      if (!parse_number(t[i], point)) return std::nullopt;
      cmd.points.push_back(point);
    }
  } else {
    return std::nullopt;
  }
  return cmd;
}

std::string format_hello(int worker, std::size_t recovered) {
  return "hello " + std::to_string(worker) + ' ' + std::to_string(recovered);
}

std::string format_heartbeat() { return "hb"; }

std::string format_point_done(std::size_t point) {
  return "point_done " + std::to_string(point);
}

std::string format_lease_done(std::uint64_t lease) {
  return "lease_done " + std::to_string(lease);
}

std::string format_fail(const std::string& message) {
  // The protocol is line-oriented; flatten any newlines in e.what().
  std::string flat = message.empty() ? std::string("unknown error") : message;
  for (auto& c : flat) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return "fail " + flat;
}

std::string format_lease(std::uint64_t lease,
                         const std::vector<std::size_t>& points) {
  std::string out = "lease " + std::to_string(lease);
  for (const auto p : points) {
    out.push_back(' ');
    out += std::to_string(p);
  }
  return out;
}

std::string format_quit() { return "quit"; }

// --- Worker main loop -------------------------------------------------------

int run_worker(const exp::Manifest& manifest, const WorkerOptions& options) {
  // A dead driver must surface as EPIPE from send() (→ orderly shutdown
  // with a compacted part file), not as a SIGPIPE that kills the worker
  // mid-record. The supervisor resets the disposition to default before
  // exec, so this is the worker's own responsibility.
  ::signal(SIGPIPE, SIG_IGN);
  LineWriter out(STDOUT_FILENO);
  try {
    manifest.validate();
    const auto points = exp::expand_grid(manifest);

    exp::AggregatorOptions agg_options;
    agg_options.csv_path = options.out_csv;
    agg_options.per_run_path = options.per_run_csv;
    agg_options.axis_names = exp::axis_columns(manifest);
    agg_options.total_points = points.size();
    agg_options.replications = manifest.replications;
    agg_options.expected_identity = exp::grid_identity(points);
    // No owned_points: lease membership is decided by the driver at
    // runtime, so the part file may legitimately hold any subset.
    exp::Aggregator aggregator(std::move(agg_options));
    const std::size_t recovered = aggregator.load_existing();

    std::optional<exp::TelemetrySink> sink;
    if (!options.metrics_csv.empty()) {
      exp::TelemetryOptions telemetry_options;
      telemetry_options.path = options.metrics_csv;
      telemetry_options.axis_names = exp::axis_columns(manifest);
      telemetry_options.total_points = points.size();
      sink.emplace(std::move(telemetry_options));
      sink->load_existing();
    }

    std::unique_ptr<runtime::ThreadPool> pool;
    if (options.jobs > 1) {
      pool = std::make_unique<runtime::ThreadPool>(options.jobs);
    }

    const std::size_t crash_after =
        recovered == 0 ? crash_after_points(options.worker_id) : 0;
    std::size_t done_since_start = 0;

    if (!out.send(format_hello(options.worker_id, recovered))) return 1;
    HeartbeatThread heartbeat(out, options.heartbeat_s);

    std::string line;
    while (std::getline(std::cin, line)) {
      const auto cmd = parse_driver_line(line);
      if (!cmd) {
        heartbeat.stop();
        out.send(format_fail("malformed driver command: " + line));
        return 1;
      }
      if (cmd->kind == DriverCmd::Kind::kQuit) break;
      for (const auto p : cmd->points) {
        if (p >= points.size()) {
          heartbeat.stop();
          out.send(format_fail("leased point " + std::to_string(p) +
                               " is outside the grid"));
          return 1;
        }
        // A point can already be on disk if the driver re-issued work the
        // prescan had claimed (defensive — it normally never does).
        if (!aggregator.is_done(p)) {
          const auto metrics =
              exp::run_point(points[p], manifest.replications, pool.get());
          // record() appends + flushes before point_done is sent: the part
          // file leads the protocol stream, so a crash after this line
          // loses at most the *message*, never the data — the supervisor
          // re-reads the file on crash recovery.
          aggregator.record(p, points[p].seed, points[p].values, metrics);
          if (sink.has_value()) sink->record(points[p], metrics);
        }
        if (!out.send(format_point_done(p))) {
          aggregator.compact();  // driver died (EPIPE); exit tidily
          if (sink.has_value()) sink->finalize();
          return 1;
        }
        if (crash_after != 0 && ++done_since_start >= crash_after) {
          // Deterministic mid-campaign SIGKILL for the recovery tests.
          ::raise(SIGKILL);
        }
      }
      if (!out.send(format_lease_done(cmd->lease))) {
        aggregator.compact();
        if (sink.has_value()) sink->finalize();
        return 1;
      }
    }
    // `quit` or stdin EOF (driver gone): leave a sorted, torn-row-free
    // part file behind so it is directly mergeable/resumable.
    heartbeat.stop();
    aggregator.compact();
    if (sink.has_value()) sink->finalize();
    return 0;
  } catch (const std::exception& e) {
    out.send(format_fail(e.what()));
    return 1;
  }
}

}  // namespace pas::orch
