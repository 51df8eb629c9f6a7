#include "orch/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/grid.hpp"
#include "exp/runner.hpp"
#include "io/json.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "orch/worker_link.hpp"
#include "serve/feed.hpp"

namespace pas::orch {

namespace fs = std::filesystem;

std::string self_exe_path(const char* argv0) {
#ifdef __linux__
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) return std::string(buf, static_cast<std::size_t>(n));
#endif
  return argv0 != nullptr ? std::string(argv0) : std::string();
}

namespace {

using Clock = std::chrono::steady_clock;

// --- Signal plumbing --------------------------------------------------------
//
// The handler only sets a flag and pokes the self-pipe so poll() wakes up;
// everything else (terminating children, printing the resume hint) happens
// on the main loop, where non-async-signal-safe calls are legal.

volatile std::sig_atomic_t g_signal_flag = 0;
int g_signal_pipe_write = -1;

void on_signal(int) {
  g_signal_flag = 1;
  if (g_signal_pipe_write >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe_write, &byte, 1);
  }
}

/// Installs SIGINT/SIGTERM → flag and SIGPIPE → ignore (a worker dying
/// mid-send must surface as EPIPE, not kill the driver); restores the
/// previous dispositions on destruction so drive() nests cleanly inside
/// tests and other hosts.
class SignalGuard {
 public:
  explicit SignalGuard(int pipe_write_fd) {
    g_signal_flag = 0;
    g_signal_pipe_write = pipe_write_fd;
    struct sigaction action{};
    action.sa_handler = on_signal;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, &old_int_);
    ::sigaction(SIGTERM, &action, &old_term_);
    struct sigaction ignore{};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    ::sigaction(SIGPIPE, &ignore, &old_pipe_);
  }
  ~SignalGuard() {
    ::sigaction(SIGINT, &old_int_, nullptr);
    ::sigaction(SIGTERM, &old_term_, nullptr);
    ::sigaction(SIGPIPE, &old_pipe_, nullptr);
    g_signal_pipe_write = -1;
  }

 private:
  struct sigaction old_int_{}, old_term_{}, old_pipe_{};
};

class Driver {
 public:
  Driver(const exp::Manifest& manifest, const DriveOptions& options)
      : manifest_(manifest), options_(options) {
    // Progress and worker events flow through one feed whether or not a
    // server is attached; without one the driver owns a throwaway feed so
    // the --progress rendering path is identical either way.
    if (options.feed != nullptr) {
      feed_ = options.feed;
    } else {
      local_feed_ = std::make_unique<serve::CampaignFeed>();
      feed_ = local_feed_.get();
    }
    feed_->set_echo(options.verbosity == DriveOptions::Verbosity::kPeriodic,
                    /*drive_style=*/true);
  }

  DriveReport run();

 private:
  /// A point sent to a worker whose rows the store does not hold yet.
  struct InFlight {
    std::size_t point = 0;
    Clock::time_point sent{};
  };

  struct Worker {
    int id = -1;
    pid_t pid = -1;
    int in_fd = -1;   // driver → worker stdin
    int out_fd = -1;  // worker stdout → driver
    std::string buf;  // partial protocol line
    bool hello = false;
    /// Oldest first: the worker computes its points in the order sent.
    std::deque<InFlight> in_flight;
    bool quit_sent = false;
    bool eof = false;
    bool doomed = false;  // queued for kill + crash recovery
    std::string doom_reason;
    Clock::time_point last_line{};
    std::size_t points_done = 0;  // completed this spawn (progress display)
  };

  void spawn(int id);
  bool send(Worker& w, const std::string& line);
  /// Sends `w` pending points up to its in-flight depth, or `quit` once it
  /// holds none and none are pending.
  void top_up(Worker& w);
  void handle_line(Worker& w, const std::string& line);
  void read_worker(Worker& w);
  /// Kills + reaps every doomed/EOF worker and runs crash recovery or
  /// clean removal. Safe point: called between poll iterations only.
  void reap();
  void crash_recover(Worker& w);
  void doom(Worker& w, std::string reason);
  void close_fds(Worker& w);
  void interrupt_children();
  void print_point(const Worker& w, std::size_t point);
  void print_progress(bool force);
  /// The drive's wall-clock instruments as an /api/metrics body.
  [[nodiscard]] io::Json metrics_snapshot() const;
  /// With --metrics, pushes metrics_snapshot() into the feed if a value
  /// was recorded since the last push.
  void publish_metrics();
  /// Appends the ring buffer of recent protocol exchanges to
  /// `<out_csv>.flightrec` (crash/abort forensics) and notes it on stderr.
  void dump_flight_recorder(const std::string& why);

  const exp::Manifest& manifest_;
  const DriveOptions& options_;

  std::vector<exp::GridPoint> points_;
  /// The campaign's one row store: every point a worker sends lands here.
  std::unique_ptr<exp::Aggregator> aggregator_;
  int next_worker_id_ = 0;

  /// Points no worker holds and the store does not hold, handed out from
  /// the front; a crashed worker's points go back to the front.
  std::deque<std::size_t> pending_;
  std::vector<std::unique_ptr<Worker>> workers_;

  DriveReport report_;
  std::string last_worker_error_;
  Clock::time_point t0_{};

  /// The unified progress/event hub: options_.feed, or a private one.
  serve::CampaignFeed* feed_ = nullptr;
  std::unique_ptr<serve::CampaignFeed> local_feed_;

  // Observability. Point latency (a point's assignment to its point_done,
  // reported as orch.lease_latency_s), heartbeat gaps and report_'s crash
  // and respawn counts measure this drive's wall-clock behaviour, so they
  // reach the --metrics trailer and /api/metrics only, never the
  // deterministic point rows. The flight recorder always runs — noting a
  // protocol line is one small string copy, and its dump is the only
  // record of what the driver and a dead worker last said to each other.
  obs::HistogramData point_latency_s_;
  obs::HistogramData hb_gap_s_;
  /// Values recorded when publish_metrics() last pushed.
  std::optional<std::uint64_t> published_;
  obs::FlightRecorder flightrec_{256};
};

void Driver::spawn(int id) {
  Worker w;
  w.id = id;

  // argv is built *before* fork: between fork and exec only
  // async-signal-safe calls are legal (a host with threads — the tests —
  // could otherwise deadlock on an allocator lock snapshotted mid-hold).
  // The worker gets the driver's own output paths so that it encodes the
  // rows this store expects; it never opens them.
  std::vector<std::string> args = {
      options_.exe_path, "--worker",
      "--worker-id",     std::to_string(id),
      "--manifest",      options_.manifest_path,
      "--out",           options_.out_csv,
      "--jobs",          std::to_string(options_.jobs_per_worker)};
  if (!options_.per_run_csv.empty()) {
    args.push_back("--per-run");
    args.push_back(options_.per_run_csv);
  }
  if (!options_.metrics_path.empty()) {
    args.push_back("--metrics");
    args.push_back(options_.metrics_path);
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int to_worker[2];    // driver writes, worker stdin
  int from_worker[2];  // worker stdout, driver reads
  if (::pipe2(to_worker, O_CLOEXEC) != 0 ||
      ::pipe2(from_worker, O_CLOEXEC) != 0) {
    throw std::runtime_error("drive: pipe2 failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("drive: fork failed");
  }
  if (pid == 0) {
    // Child: wire the pipes to stdin/stdout (dup2 clears CLOEXEC) and
    // become a worker. Async-signal-safe territory until execv.
    ::dup2(to_worker[0], STDIN_FILENO);
    ::dup2(from_worker[1], STDOUT_FILENO);
#ifdef __linux__
    // Die with the driver even if it is SIGKILLed (no orphan simulators).
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
    ::signal(SIGPIPE, SIG_DFL);  // SIG_IGN would survive the exec
    ::execv(options_.exe_path.c_str(), argv.data());
    ::_exit(127);
  }
  // Parent.
  ::close(to_worker[0]);
  ::close(from_worker[1]);
  const int flags = ::fcntl(from_worker[0], F_GETFL);
  ::fcntl(from_worker[0], F_SETFL, flags | O_NONBLOCK);
  w.pid = pid;
  w.in_fd = to_worker[1];
  w.out_fd = from_worker[0];
  w.last_line = Clock::now();
  ++report_.workers_spawned;
  workers_.push_back(std::make_unique<Worker>(std::move(w)));
  feed_->worker_event("spawn", id, "pid " + std::to_string(pid));
}

bool Driver::send(Worker& w, const std::string& line) {
  flightrec_.note('>', w.id, line);
  // False = EPIPE: worker already gone — reap() will recover it.
  return write_line(w.in_fd, line);
}

void Driver::top_up(Worker& w) {
  // Two in flight, so the next point already waits on the worker's pipe
  // while the driver stores the last; one once fewer points are pending
  // than there are live workers, so the tail spreads over all of them.
  const auto live = static_cast<std::size_t>(std::count_if(
      workers_.begin(), workers_.end(), [](const auto& other) {
        return !other->quit_sent && !other->doomed && !other->eof;
      }));
  while (!pending_.empty() &&
         w.in_flight.size() < (pending_.size() < live ? 1U : 2U)) {
    w.in_flight.push_back({pending_.front(), Clock::now()});
    pending_.pop_front();
    if (!send(w, format_point(w.in_flight.back().point))) {
      doom(w, "write failed while sending a point");
      return;
    }
  }
  if (w.in_flight.empty() && !w.quit_sent) {
    if (send(w, format_quit())) {
      w.quit_sent = true;
    } else {
      doom(w, "write failed while sending quit");
    }
  }
}

void Driver::doom(Worker& w, std::string reason) {
  if (w.doomed) return;
  w.doomed = true;
  w.doom_reason = std::move(reason);
}

void Driver::close_fds(Worker& w) {
  if (w.in_fd >= 0) ::close(w.in_fd);
  if (w.out_fd >= 0) ::close(w.out_fd);
  w.in_fd = w.out_fd = -1;
}

void Driver::handle_line(Worker& w, const std::string& line) {
  const auto msg = parse_worker_line(line);
  // A point_done line carries the point's rows; the recorder keeps their
  // size only.
  flightrec_.note('<', w.id,
                  msg && msg->kind == WorkerMsg::Kind::kPointDone
                      ? "point_done " + std::to_string(msg->point) + " <" +
                            std::to_string(msg->rows.size()) + " bytes>"
                      : line);
  if (!msg) {
    doom(w, "malformed protocol line: " + line);
    return;
  }
  const auto now = Clock::now();
  if (w.hello) {
    // Gap between successive protocol lines from a live worker — the
    // distribution the hang timeout should sit far outside of. Measured
    // before last_line moves (spawn→hello is startup, not a gap).
    hb_gap_s_.record(std::chrono::duration<double>(now - w.last_line).count());
  }
  w.last_line = now;
  switch (msg->kind) {
    case WorkerMsg::Kind::kHello:
      if (w.hello) {
        doom(w, "duplicate hello");
        return;
      }
      w.hello = true;
      top_up(w);
      break;
    case WorkerMsg::Kind::kHeartbeat:
      break;  // last_line is all a heartbeat moves
    case WorkerMsg::Kind::kPointDone: {
      // A worker answers its points in the order they were sent, so any
      // other point is a protocol violation, never progress. The point
      // stays in flight until the store accepts its rows, so rejected rows
      // are recomputed.
      if (w.in_flight.empty() || w.in_flight.front().point != msg->point) {
        doom(w, "point_done " + std::to_string(msg->point) +
                    " is not the worker's oldest point in flight");
        return;
      }
      try {
        aggregator_->record_encoded(msg->point, msg->rows);
      } catch (const std::exception& e) {
        doom(w, e.what());
        return;
      }
      point_latency_s_.record(
          std::chrono::duration<double>(now - w.in_flight.front().sent)
              .count());
      w.in_flight.pop_front();
      ++report_.computed;
      ++w.points_done;
      {
        // Identity-only row: the live view carries which point finished,
        // on which worker.
        io::JsonObject row;
        row["point"] = msg->point;
        row["seed"] = std::to_string(points_[msg->point].seed);
        row["worker"] = w.id;
        feed_->point_done(io::Json(std::move(row)).dump());
      }
      print_point(w, msg->point);
      top_up(w);
      break;
    }
    case WorkerMsg::Kind::kFail:
      last_worker_error_ = msg->message;
      std::fprintf(stderr, "pas-exp: worker %d: %s\n", w.id,
                   msg->message.c_str());
      break;  // the non-zero exit that follows triggers recovery
  }
}

void Driver::read_worker(Worker& w) {
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(w.out_fd, buf, sizeof(buf));
    if (n > 0) {
      // Only the new bytes can end a line. A point_done line spans many
      // reads and grows with the replication count, so rescanning the
      // partial line from its start would be quadratic in its length.
      const std::size_t scanned = w.buf.size();
      w.buf.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t i = w.buf.find('\n', scanned); i != std::string::npos;
           i = w.buf.find('\n', start)) {
        const std::string line = w.buf.substr(start, i - start);
        start = i + 1;
        handle_line(w, line);
        if (w.doomed) break;
      }
      w.buf.erase(0, start);
      if (w.doomed) return;
      continue;
    }
    if (n == 0) {
      w.eof = true;
      return;
    }
    if (errno == EINTR) continue;
    return;  // EAGAIN: drained
  }
}

void Driver::crash_recover(Worker& w) {
  ++report_.crashes;
  feed_->worker_event("crash", w.id,
                      w.doom_reason.empty() ? "exited unclean"
                                            : w.doom_reason);
  dump_flight_recorder("worker " + std::to_string(w.id) + " crashed: " +
                       (w.doom_reason.empty() ? "exited unclean"
                                              : w.doom_reason));
  // Its points in flight go back to the front of the queue, in the order
  // they were sent, unless the store holds them.
  for (auto it = w.in_flight.rbegin(); it != w.in_flight.rend(); ++it) {
    if (!aggregator_->is_done(it->point)) pending_.push_front(it->point);
  }
  w.in_flight.clear();
  if (pending_.empty()) return;
  if (report_.respawns < options_.max_respawns) {
    ++report_.respawns;
    feed_->worker_event("respawn", next_worker_id_,
                        "replacing worker " + std::to_string(w.id));
    spawn(next_worker_id_++);
    return;
  }
  // No budget for a replacement: fine while any live worker can still
  // pull from the queue, fatal otherwise.
  for (const auto& other : workers_) {
    if (other->id != w.id && !other->doomed && !other->quit_sent &&
        !other->eof) {
      return;
    }
  }
  throw std::runtime_error(
      "drive: respawn budget exhausted with " +
      std::to_string(pending_.size()) + " points outstanding" +
      (last_worker_error_.empty() ? std::string()
                                  : "; last worker error: " +
                                        last_worker_error_));
}

void Driver::reap() {
  for (std::size_t i = 0; i < workers_.size();) {
    Worker& w = *workers_[i];
    if (w.doomed && !w.eof) {
      ::kill(w.pid, SIGKILL);
    } else if (!w.doomed && !w.eof) {
      ++i;
      continue;
    }
    int status = 0;
    while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    // The pid is reaped and may be recycled by the OS; mark it dead so the
    // exception-cleanup path can never SIGKILL an unrelated process (the
    // entry outlives this loop when crash_recover throws).
    w.pid = -1;
    close_fds(w);
    const bool clean = !w.doomed && w.quit_sent && w.in_flight.empty() &&
                       WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!clean) {
      if (w.doomed) {
        std::fprintf(stderr, "pas-exp: worker %d failed: %s\n", w.id,
                     w.doom_reason.c_str());
      }
      crash_recover(w);  // may spawn a replacement at the back
    }
    workers_.erase(workers_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void Driver::interrupt_children() {
  for (const auto& w : workers_) {
    if (w->pid > 0) ::kill(w->pid, SIGTERM);
  }
  // Completed rows are already flushed to the store, so a graceful window
  // is a courtesy, not a correctness requirement.
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  for (const auto& w : workers_) {
    int status = 0;
    while (true) {
      const pid_t r = ::waitpid(w->pid, &status, WNOHANG);
      if (r != 0) break;  // reaped (or error: already gone)
      if (Clock::now() >= deadline) {
        ::kill(w->pid, SIGKILL);
        while (::waitpid(w->pid, &status, 0) < 0 && errno == EINTR) {
        }
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    close_fds(*w);
  }
  workers_.clear();
}

void Driver::dump_flight_recorder(const std::string& why) {
  if (flightrec_.noted() == 0) return;
  const std::string path = options_.out_csv + ".flightrec";
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return;
  std::fprintf(f, "=== %s ===\n", why.c_str());
  flightrec_.dump(f);
  std::fclose(f);
  std::fprintf(stderr, "pas-exp: flight recorder appended to %s (%s)\n",
               path.c_str(), why.c_str());
}

void Driver::print_point(const Worker& w, std::size_t point) {
  if (options_.verbosity != DriveOptions::Verbosity::kPerPoint) return;
  std::printf("[%zu/%zu] point %zu done (worker %d)\n",
              aggregator_->done_count(), points_.size(), point, w.id);
  std::fflush(stdout);
}

void Driver::print_progress(bool force) {
  // The worker table and the throttled progress line both go through the
  // feed: with --progress the feed echoes the classic lines; with --serve
  // the same push becomes the SSE "progress" event and /api/status table.
  std::vector<serve::CampaignFeed::WorkerRow> rows;
  rows.reserve(workers_.size());
  for (const auto& w : workers_) {
    serve::CampaignFeed::WorkerRow row;
    row.id = w->id;
    row.has_lease = !w->in_flight.empty();
    row.lease_points_left = w->in_flight.size();
    row.points_done = w->points_done;
    row.last_line = w->last_line;
    rows.push_back(row);
  }
  feed_->update_workers(std::move(rows));
  feed_->progress_tick(force);
}

io::Json Driver::metrics_snapshot() const {
  io::JsonObject instruments;
  instruments["orch.lease_latency_s"] = obs::histogram_json(point_latency_s_);
  instruments["orch.heartbeat_gap_s"] = obs::histogram_json(hb_gap_s_);
  instruments["orch.worker_crashes"] = report_.crashes;
  instruments["orch.respawns"] = report_.respawns;
  io::JsonObject out;
  out["scope"] = "orchestrator";
  out["instruments"] = std::move(instruments);
  return io::Json(std::move(out));
}

void Driver::publish_metrics() {
  if (options_.metrics_path.empty()) return;
  // Every recorded value bumps one of these counts, so their sum changes
  // exactly when the snapshot does.
  const std::uint64_t recorded = point_latency_s_.count + hb_gap_s_.count +
                                 report_.crashes + report_.respawns;
  if (published_ == recorded) return;
  published_ = recorded;
  feed_->set_metrics(metrics_snapshot());
}

DriveReport Driver::run() {
  t0_ = Clock::now();
  manifest_.validate();
  if (options_.workers == 0) {
    throw std::invalid_argument("drive: workers must be >= 1");
  }
  if (options_.exe_path.empty() || !fs::exists(options_.exe_path)) {
    throw std::runtime_error("drive: worker executable not found: " +
                             options_.exe_path);
  }
  if (options_.out_csv.empty()) {
    // Unlike run_campaign (which aggregates in memory for benches), a
    // drive exists to write the campaign's artifacts.
    throw std::invalid_argument("drive: out_csv must not be empty");
  }
  points_ = exp::expand_grid(manifest_);
  report_.total_points = points_.size();
  report_.replications = manifest_.replications;

  // The store and its resume rule are run_campaign's, so any topology
  // resumes any other.
  auto agg_options = exp::campaign_aggregator_options(
      manifest_, points_, options_.out_csv, options_.json_path,
      options_.per_run_csv, options_.metrics_path);
  if (!options_.resume) exp::refuse_existing_outputs(agg_options);
  aggregator_ = std::make_unique<exp::Aggregator>(std::move(agg_options));
  report_.resumed = aggregator_->load_existing();
  const auto pending = aggregator_->pending();
  pending_.assign(pending.begin(), pending.end());
  next_worker_id_ = static_cast<int>(options_.workers);

  feed_->begin_campaign(manifest_.name, points_.size(),
                        manifest_.replications, report_.resumed);
  publish_metrics();

  // Destruction order matters: the SignalGuard (constructed second) is
  // destroyed first, detaching the handler before the pipe fds close — a
  // late signal can then never write into a recycled descriptor.
  struct SignalPipe {
    int fd[2] = {-1, -1};
    SignalPipe() {
      if (::pipe2(fd, O_CLOEXEC | O_NONBLOCK) != 0) {
        throw std::runtime_error("drive: pipe2 failed");
      }
    }
    ~SignalPipe() {
      ::close(fd[0]);
      ::close(fd[1]);
    }
  } signal_pipe;
  const SignalGuard signals(signal_pipe.fd[1]);

  try {
    const std::size_t to_spawn =
        std::min<std::size_t>(options_.workers, pending_.size());
    for (std::size_t i = 0; i < to_spawn; ++i) {
      spawn(static_cast<int>(i));
    }

    while (!workers_.empty()) {
      std::vector<pollfd> fds;
      fds.push_back({signal_pipe.fd[0], POLLIN, 0});
      for (const auto& w : workers_) {
        fds.push_back({w->out_fd, POLLIN, 0});
      }
      const int rc = ::poll(fds.data(), fds.size(), 200);
      if (g_signal_flag != 0) {
        interrupt_children();
        report_.interrupted = true;
        dump_flight_recorder("interrupted (SIGINT/SIGTERM)");
        break;
      }
      if (rc > 0) {
        if ((fds[0].revents & POLLIN) != 0) {
          char drain[16];
          while (::read(signal_pipe.fd[0], drain, sizeof(drain)) > 0) {
          }
        }
        for (std::size_t i = 0; i < workers_.size(); ++i) {
          if ((fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
            read_worker(*workers_[i]);
          }
        }
      }
      // Hang detection: the worker-side heartbeat ticks every 0.5 s, so a
      // worker with no protocol line for hang_timeout_s is wedged (or its
      // machine is), not merely busy — whether it is starting up, holds
      // points or is draining after quit.
      if (options_.hang_timeout_s > 0.0) {
        const auto now = Clock::now();
        for (const auto& w : workers_) {
          const double silent =
              std::chrono::duration<double>(now - w->last_line).count();
          if (!w->eof && silent > options_.hang_timeout_s) {
            doom(*w, "no protocol line for " + std::to_string(silent) + " s");
          }
        }
      }
      reap();
      publish_metrics();
      print_progress(false);
    }
  } catch (...) {
    feed_->end_campaign(/*interrupted=*/true);
    dump_flight_recorder("drive aborted by exception");
    // Never leak children past the call, whatever went wrong.
    for (const auto& w : workers_) {
      if (w->pid > 0) {
        ::kill(w->pid, SIGKILL);
        int status = 0;
        while (::waitpid(w->pid, &status, 0) < 0 && errno == EINTR) {
        }
      }
      close_fds(*w);
    }
    workers_.clear();
    throw;
  }

  if (!report_.interrupted) {
    if (!pending_.empty()) {
      throw std::logic_error(
          "drive: internal error — workers exited with work outstanding");
    }
    print_progress(true);
    std::vector<io::Json> trailers;
    if (!options_.metrics_path.empty()) {
      // The drive's wall-clock story: the one part of the --metrics file
      // that legitimately differs between schedules.
      io::Json trailer = metrics_snapshot();
      trailer["kind"] = "registry";
      trailers.push_back(std::move(trailer));
    }
    aggregator_->finalize(trailers);
  }
  feed_->end_campaign(report_.interrupted);
  report_.wall_s =
      std::chrono::duration<double>(Clock::now() - t0_).count();
  return report_;
}

}  // namespace

DriveReport drive(const exp::Manifest& manifest, const DriveOptions& options) {
  Driver driver(manifest, options);
  return driver.run();
}

}  // namespace pas::orch
