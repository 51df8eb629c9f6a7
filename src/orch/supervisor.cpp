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
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/grid.hpp"
#include "exp/row_store.hpp"
#include "exp/telemetry.hpp"
#include "io/json.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "orch/lease.hpp"
#include "orch/queue.hpp"
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

std::string part_path(const std::string& base, int worker) {
  return base + ".w" + std::to_string(worker);
}

std::string progress_line(std::size_t done, std::size_t total,
                          std::size_t computed, std::size_t replications,
                          double elapsed_s) {
  const double reps = static_cast<double>(computed * replications);
  const double rate = elapsed_s > 0.0 ? reps / elapsed_s : 0.0;
  const double eta =
      rate > 0.0
          ? static_cast<double>((total - done) * replications) / rate
          : 0.0;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "progress: %zu/%zu points (%.0f%%) | %.1f reps/s | ETA %.0fs",
                done, total,
                100.0 * static_cast<double>(done) /
                    static_cast<double>(std::max<std::size_t>(1, total)),
                rate, eta);
  return buf;
}

std::string worker_status_line(int id, bool has_lease,
                               std::size_t lease_points_left,
                               std::size_t points_done, double hb_age_s) {
  char buf[160];
  if (has_lease) {
    std::snprintf(buf, sizeof(buf),
                  "  worker %d: %zu pts leased | %zu done | last line %.1fs "
                  "ago",
                  id, lease_points_left, points_done, hb_age_s);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "  worker %d: idle | %zu done | last line %.1fs ago", id,
                  points_done, hb_age_s);
  }
  return buf;
}

namespace {

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

std::vector<int> discover_part_ids(const std::string& out_csv) {
  const fs::path out(out_csv);
  fs::path dir = out.parent_path();
  if (dir.empty()) dir = ".";
  const std::string prefix = out.filename().string() + ".w";
  std::vector<int> ids;
  if (!fs::is_directory(dir)) return ids;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    std::string tail = name.substr(prefix.size());
    // A SIGTERMed/SIGKILLed worker leaves only "<part>.pasrows" behind (the
    // CSV materializes on compact, which a kill skips), so part discovery
    // must see through the store extension.
    constexpr std::string_view kStoreExt = ".pasrows";
    if (tail.size() > kStoreExt.size() && tail.ends_with(kStoreExt)) {
      tail.resize(tail.size() - kStoreExt.size());
    }
    int id = 0;
    const auto [ptr, ec] =
        std::from_chars(tail.data(), tail.data() + tail.size(), id);
    // Canonical ".w<k>" names only (prescan and merge reconstruct the path
    // from the id): reject trailing junk (".w0.tmp"), overflow-wide
    // suffixes, and leading zeros (".w0009") rather than mis-claiming.
    if (ec != std::errc{} || ptr != tail.data() + tail.size() || id < 0 ||
        std::to_string(id) != tail) {
      continue;
    }
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

class Driver {
 public:
  Driver(const exp::Manifest& manifest, const DriveOptions& options)
      : manifest_(manifest),
        options_(options),
        registry_(!options.metrics_path.empty()) {
    // Resolve the orchestrator instruments once, before any worker can
    // make the registry freeze itself. All of these measure wall-clock
    // behaviour of this drive, so they live in the trailer row only —
    // never in the deterministic per-point telemetry.
    lease_latency_s_ = registry_.histogram("orch.lease_latency_s");
    hb_gap_s_ = registry_.histogram("orch.heartbeat_gap_s");
    crashes_ = registry_.counter("orch.worker_crashes");
    respawns_ = registry_.counter("orch.respawns");
    recovered_rows_ = registry_.counter("orch.recovered_rows");

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
                    /*drive_style=*/true, options.progress_interval_s);
  }

  DriveReport run();

 private:
  struct Worker {
    int id = -1;
    pid_t pid = -1;
    int in_fd = -1;   // driver → worker stdin
    int out_fd = -1;  // worker stdout → driver
    std::string buf;  // partial protocol line
    bool hello = false;
    bool has_lease = false;
    std::uint64_t lease = 0;
    bool quit_sent = false;
    bool eof = false;
    bool doomed = false;  // queued for kill + crash recovery
    std::string doom_reason;
    Clock::time_point last_line{};
    std::size_t points_done = 0;  // completed this spawn (progress display)
    std::string part_csv;
    std::string part_runs;
    std::string part_metrics;
  };

  void prescan();
  std::size_t sanitize_and_claim(const std::string& csv,
                                 const std::string& runs,
                                 const std::string& metrics, int tag);
  void spawn(int id);
  bool send(Worker& w, const std::string& line);
  void assign(Worker& w);
  void handle_line(Worker& w, const std::string& line);
  void read_worker(Worker& w);
  /// Kills + reaps every doomed/EOF worker and runs crash recovery or
  /// clean removal. Safe point: called between poll iterations only.
  void reap();
  void crash_recover(Worker& w);
  void doom(Worker& w, std::string reason);
  void close_fds(Worker& w);
  void interrupt_children();
  void merge_and_clean();
  void print_point(const Worker& w, std::size_t point);
  void print_progress(bool force);
  /// Appends the ring buffer of recent protocol exchanges to
  /// `<out_csv>.flightrec` (crash/abort forensics) and notes it on stderr.
  void dump_flight_recorder(const std::string& why);
  [[nodiscard]] std::size_t eligible_workers() const;

  const exp::Manifest& manifest_;
  const DriveOptions& options_;

  std::vector<exp::GridPoint> points_;
  std::vector<std::string> axis_names_;
  std::vector<std::vector<std::string>> identity_;

  /// point → owning source: a worker/part id, or -1 for the resumed --out.
  std::map<std::size_t, int> claimed_;
  std::set<int> all_part_ids_;
  bool out_is_merge_seed_ = false;
  int next_worker_id_ = 0;

  std::unique_ptr<WorkQueue> queue_;
  LeaseTable leases_;
  std::vector<std::unique_ptr<Worker>> workers_;

  DriveReport report_;
  std::string last_worker_error_;
  Clock::time_point t0_{};

  /// The unified progress/event hub: options_.feed, or a private one.
  serve::CampaignFeed* feed_ = nullptr;
  std::unique_ptr<serve::CampaignFeed> local_feed_;

  // Observability: inert (and the registry snapshot empty) unless --metrics
  // was given; the flight recorder always runs — noting a protocol line is
  // one small string copy, and its dump is the only record of what the
  // driver and a dead worker last said to each other.
  obs::Registry registry_;
  obs::Histogram lease_latency_s_;
  obs::Histogram hb_gap_s_;
  obs::Counter crashes_;
  obs::Counter respawns_;
  obs::Counter recovered_rows_;
  obs::FlightRecorder flightrec_{256};
};

std::size_t Driver::eligible_workers() const {
  std::size_t n = 0;
  for (const auto& w : workers_) {
    if (!w->quit_sent && !w->doomed) ++n;
  }
  return std::max<std::size_t>(1, n);
}

std::size_t Driver::sanitize_and_claim(const std::string& csv,
                                       const std::string& runs,
                                       const std::string& metrics, int tag) {
  exp::AggregatorOptions agg_options;
  agg_options.csv_path = csv;
  agg_options.per_run_path = runs;
  agg_options.metrics_path = metrics;
  agg_options.axis_names = axis_names_;
  agg_options.total_points = points_.size();
  agg_options.replications = manifest_.replications;
  agg_options.expected_identity = identity_;
  exp::Aggregator aggregator(std::move(agg_options));
  // The identity-checked resume path: throws if the file belongs to a
  // different manifest, silently drops rows torn by a kill. It reads
  // `<csv>.pasrows` when present (the mid-flight ground truth) and imports
  // the CSV into a fresh store otherwise.
  aggregator.load_existing();
  // A point may appear in two part files when a worker wrote its row but
  // died before reporting it and the lease was reassigned. First claim
  // wins; the duplicate row is physically removed so merge_outputs()
  // (which rejects overlaps) sees each point exactly once.
  std::vector<std::size_t> duplicates;
  for (const auto p : aggregator.done_points()) {
    const auto it = claimed_.find(p);
    if (it != claimed_.end() && it->second != tag) duplicates.push_back(p);
  }
  aggregator.discard_points(duplicates);
  std::size_t fresh = 0;
  for (const auto p : aggregator.done_points()) {
    if (claimed_.emplace(p, tag).second) ++fresh;
  }
  // Materialize the duplicate-free CSV (and --metrics) files now so
  // merge_and_clean (which reads part files) sees every surviving row,
  // including those of a killed worker that never compacted.
  aggregator.compact();
  return fresh;
}

void Driver::prescan() {
  // An interrupted run may have its data only in the row store (the CSV
  // materializes at compact/finalize), so "the output exists" must
  // consider `<out>.pasrows` too.
  const bool out_exists =
      fs::exists(options_.out_csv) ||
      fs::exists(exp::RowStore::path_for(options_.out_csv));
  const bool runs_exists =
      !options_.per_run_csv.empty() && fs::exists(options_.per_run_csv);
  const bool metrics_exists =
      !options_.metrics_path.empty() && fs::exists(options_.metrics_path);
  const auto existing_parts = discover_part_ids(options_.out_csv);
  if (!options_.resume) {
    if (out_exists || runs_exists || metrics_exists ||
        !existing_parts.empty()) {
      throw std::runtime_error(
          "drive: " + options_.out_csv +
          (existing_parts.empty() ? "" : " (and .w* part files)") +
          " exists; pass --resume to continue it or remove it to start "
          "over");
    }
    return;
  }
  if (out_exists || runs_exists || metrics_exists) {
    // An interrupted single-process run (or a finished merge) seeds the
    // claim set — drive resume composes with every earlier topology.
    report_.resumed += sanitize_and_claim(
        options_.out_csv, options_.per_run_csv, options_.metrics_path, -1);
    out_is_merge_seed_ = true;
  }
  for (const int id : existing_parts) {
    const auto part_of = [id](const std::string& base) {
      return base.empty() ? std::string() : part_path(base, id);
    };
    report_.resumed += sanitize_and_claim(
        part_path(options_.out_csv, id), part_of(options_.per_run_csv),
        part_of(options_.metrics_path), id);
    all_part_ids_.insert(id);
  }
}

void Driver::spawn(int id) {
  Worker w;
  w.id = id;
  w.part_csv = part_path(options_.out_csv, id);
  w.part_runs = options_.per_run_csv.empty()
                    ? std::string()
                    : part_path(options_.per_run_csv, id);
  w.part_metrics = options_.metrics_path.empty()
                       ? std::string()
                       : part_path(options_.metrics_path, id);

  // argv is built *before* fork: between fork and exec only
  // async-signal-safe calls are legal (a host with threads — the tests —
  // could otherwise deadlock on an allocator lock snapshotted mid-hold).
  std::vector<std::string> args = {
      options_.exe_path, "--worker",
      "--worker-id",     std::to_string(id),
      "--manifest",      options_.manifest_path,
      "--out",           w.part_csv,
      "--jobs",          std::to_string(options_.jobs_per_worker)};
  if (!w.part_runs.empty()) {
    args.push_back("--per-run");
    args.push_back(w.part_runs);
  }
  if (!w.part_metrics.empty()) {
    args.push_back("--metrics");
    args.push_back(w.part_metrics);
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
  all_part_ids_.insert(id);
  ++report_.workers_spawned;
  workers_.push_back(std::make_unique<Worker>(std::move(w)));
  feed_->worker_event("spawn", id, "pid " + std::to_string(pid));
}

bool Driver::send(Worker& w, const std::string& line) {
  flightrec_.note('>', w.id, line);
  // False = EPIPE: worker already gone — reap() will recover it.
  return write_line(w.in_fd, line);
}

void Driver::assign(Worker& w) {
  if (queue_->empty()) {
    if (!w.quit_sent) {
      if (send(w, format_quit())) {
        w.quit_sent = true;
      } else {
        doom(w, "write failed while sending quit");
      }
    }
    return;
  }
  const auto points = queue_->take(eligible_workers());
  const auto lease = leases_.issue(w.id, points, Clock::now());
  w.lease = lease;
  w.has_lease = true;
  if (!send(w, format_lease(lease, points))) {
    doom(w, "write failed while sending a lease");
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
  flightrec_.note('<', w.id, line);
  const auto msg = parse_worker_line(line);
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
      assign(w);
      break;
    case WorkerMsg::Kind::kHeartbeat:
      if (w.has_lease) leases_.renew(w.lease, w.last_line);
      break;
    case WorkerMsg::Kind::kPointDone: {
      if (!w.has_lease) {
        doom(w, "point_done without an active lease");
        return;
      }
      try {
        leases_.mark_done(w.lease, msg->point, w.last_line);
      } catch (const std::logic_error& e) {
        doom(w, e.what());
        return;
      }
      const auto [it, inserted] = claimed_.emplace(msg->point, w.id);
      if (!inserted && it->second != w.id) {
        doom(w, "point " + std::to_string(msg->point) +
                    " already claimed by another worker");
        return;
      }
      ++report_.computed;
      ++w.points_done;
      {
        // Identity-only row: the supervisor never parses worker CSV, so
        // the live view carries what the protocol proves — which point
        // finished, on which worker.
        io::JsonObject row;
        row["point"] = msg->point;
        row["seed"] = std::to_string(points_[msg->point].seed);
        row["worker"] = w.id;
        feed_->point_done(io::Json(std::move(row)).dump());
      }
      print_point(w, msg->point);
      break;
    }
    case WorkerMsg::Kind::kLeaseDone:
      if (!w.has_lease || msg->lease != w.lease) {
        doom(w, "lease_done for a lease the worker does not hold");
        return;
      }
      if (const Lease* lease = leases_.find(w.lease); lease != nullptr) {
        lease_latency_s_.record(
            std::chrono::duration<double>(w.last_line - lease->issued)
                .count());
      }
      try {
        leases_.complete(w.lease);
      } catch (const std::logic_error& e) {
        doom(w, e.what());
        return;
      }
      w.has_lease = false;
      assign(w);
      break;
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
      w.buf.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t i = w.buf.find('\n', start); i != std::string::npos;
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
  crashes_.add();
  feed_->worker_event("crash", w.id,
                      w.doom_reason.empty() ? "exited unclean"
                                            : w.doom_reason);
  dump_flight_recorder("worker " + std::to_string(w.id) + " crashed: " +
                       (w.doom_reason.empty() ? "exited unclean"
                                              : w.doom_reason));
  std::vector<std::size_t> unfinished;
  if (w.has_lease) unfinished = leases_.revoke(w.lease);
  // The part file is ground truth: rows are flushed before point_done is
  // sent, so points the dead worker finished but never reported are
  // recovered from disk instead of being recomputed (and rows duplicated
  // against other parts are removed).
  const std::size_t recovered_from_disk =
      sanitize_and_claim(w.part_csv, w.part_runs, w.part_metrics, w.id);
  report_.computed += recovered_from_disk;
  recovered_rows_.add(recovered_from_disk);
  feed_->add_recovered(recovered_from_disk);
  if (recovered_from_disk > 0) {
    feed_->worker_event("recovered", w.id,
                        std::to_string(recovered_from_disk) +
                            " rows from part file");
  }
  std::erase_if(unfinished,
                [this](std::size_t p) { return claimed_.count(p) > 0; });
  queue_->put_back(unfinished);
  if (queue_->empty()) return;
  if (report_.respawns < options_.max_respawns) {
    ++report_.respawns;
    respawns_.add();
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
      std::to_string(queue_->remaining()) + " points outstanding" +
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
    const bool clean = !w.doomed && w.quit_sent && !w.has_lease &&
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
  // Completed rows are already flushed to the part files, so a graceful
  // window is a courtesy, not a correctness requirement.
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

void Driver::merge_and_clean() {
  std::vector<std::string> inputs;
  std::vector<std::string> run_inputs;
  if (out_is_merge_seed_) {
    inputs.push_back(options_.out_csv);
    if (!options_.per_run_csv.empty() && fs::exists(options_.per_run_csv)) {
      run_inputs.push_back(options_.per_run_csv);
    }
  }
  std::vector<std::string> part_files;
  for (const int id : all_part_ids_) {
    const auto csv = part_path(options_.out_csv, id);
    if (fs::exists(csv)) {
      inputs.push_back(csv);
      part_files.push_back(csv);
    }
    if (!options_.per_run_csv.empty()) {
      const auto runs = part_path(options_.per_run_csv, id);
      if (fs::exists(runs)) {
        run_inputs.push_back(runs);
        part_files.push_back(runs);
      }
    }
  }
  // Byte-identical to a serial run: merge validates every row against the
  // manifest, rejects overlaps and gaps, and re-emits raw rows in point
  // order via temp file + rename.
  report_.merged_rows =
      exp::merge_outputs(inputs, options_.out_csv, &manifest_);
  if (!options_.per_run_csv.empty()) {
    exp::merge_outputs(run_inputs, options_.per_run_csv, &manifest_);
  }
  for (const auto& path : part_files) fs::remove(path);
  // Row stores are stale the moment the merged CSV exists; sweep them
  // unconditionally (no-ops when absent) so `<out>.w*` globs come up empty
  // and a later resume never prefers a dead store over the merged output.
  for (const int id : all_part_ids_) {
    fs::remove(exp::RowStore::path_for(part_path(options_.out_csv, id)));
  }
  fs::remove(exp::RowStore::path_for(options_.out_csv));

  if (!options_.metrics_path.empty()) {
    // Crash recovery tombstoned every duplicate claim, so the resumed
    // --metrics file and the parts hold disjoint point sets, exactly the
    // CSV inputs' points; the merged point section is byte-identical to a
    // single-process run's. The trailer is this drive's wall-clock story
    // and is the one part that legitimately differs between schedules.
    std::vector<std::string> metric_inputs;
    std::vector<std::string> metric_parts;
    if (out_is_merge_seed_ && fs::exists(options_.metrics_path)) {
      metric_inputs.push_back(options_.metrics_path);
    }
    for (const int id : all_part_ids_) {
      const auto part = part_path(options_.metrics_path, id);
      if (fs::exists(part)) {
        metric_inputs.push_back(part);
        metric_parts.push_back(part);
      }
    }
    io::JsonObject trailer;
    trailer["kind"] = "registry";
    trailer["scope"] = "orchestrator";
    trailer["instruments"] = obs::snapshot_json(registry_.snapshot());
    exp::merge_telemetry(metric_inputs, options_.metrics_path,
                         {io::Json(std::move(trailer))});
    for (const auto& path : metric_parts) fs::remove(path);
  }
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
  std::printf("[%zu/%zu] point %zu done (worker %d)\n", claimed_.size(),
              points_.size(), point, w.id);
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
    row.has_lease = w->has_lease;
    if (w->has_lease) {
      if (const Lease* lease = leases_.find(w->lease); lease != nullptr) {
        row.lease_points_left = lease->pending.size();
      }
    }
    row.points_done = w->points_done;
    row.last_line = w->last_line;
    rows.push_back(row);
  }
  feed_->update_workers(std::move(rows));
  feed_->progress_tick(force);
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
    // drive without an output would compute the whole grid into hidden
    // ".w<k>" files and then fail at the merge.
    throw std::invalid_argument("drive: out_csv must not be empty");
  }
  points_ = exp::expand_grid(manifest_);
  axis_names_ = exp::axis_columns(manifest_);
  identity_ = exp::grid_identity(points_);
  report_.total_points = points_.size();
  report_.replications = manifest_.replications;

  prescan();

  std::vector<std::size_t> pending;
  for (std::size_t p = 0; p < points_.size(); ++p) {
    if (claimed_.count(p) == 0) pending.push_back(p);
  }
  queue_ = std::make_unique<WorkQueue>(std::move(pending),
                                       options_.max_lease);
  next_worker_id_ =
      std::max<int>(static_cast<int>(options_.workers),
                    all_part_ids_.empty() ? 0 : *all_part_ids_.rbegin() + 1);

  feed_->begin_campaign(manifest_.name, points_.size(),
                        manifest_.replications, claimed_.size());
  // /api/metrics serves this drive's registry while it runs; detached on
  // every exit path (the guard dies before registry_ only because feed_
  // may outlive this Driver, not because registry_ does).
  struct FeedMetricsGuard {
    serve::CampaignFeed* feed = nullptr;
    ~FeedMetricsGuard() {
      if (feed != nullptr) feed->set_metrics_source(nullptr);
    }
  } metrics_guard;
  if (registry_.enabled()) {
    metrics_guard.feed = feed_;
    feed_->set_metrics_source([this] {
      io::JsonObject out;
      out["scope"] = "orchestrator";
      out["instruments"] = obs::snapshot_json(registry_.snapshot());
      return io::Json(std::move(out));
    });
  }

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
        std::min<std::size_t>(options_.workers, queue_->remaining());
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
      // silent worker is wedged (or its machine is), not merely busy.
      // Lease holders are judged by their lease's renewal time (heartbeats
      // and point_done both renew); workers without a lease (starting up
      // or draining after quit) by their last protocol line.
      if (options_.hang_timeout_s > 0.0) {
        const auto now = Clock::now();
        for (const auto id : leases_.expired(now, options_.hang_timeout_s)) {
          for (const auto& w : workers_) {
            if (w->has_lease && w->lease == id && !w->eof) {
              doom(*w, "lease " + std::to_string(id) +
                           " expired: no heartbeat within " +
                           std::to_string(options_.hang_timeout_s) + " s");
            }
          }
        }
        for (const auto& w : workers_) {
          const double silent =
              std::chrono::duration<double>(now - w->last_line).count();
          if (!w->has_lease && !w->eof &&
              silent > options_.hang_timeout_s) {
            doom(*w, "no protocol line for " + std::to_string(silent) + " s");
          }
        }
      }
      reap();
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
    if (!queue_->empty() || leases_.active() != 0) {
      throw std::logic_error(
          "drive: internal error — workers exited with work outstanding");
    }
    print_progress(true);
    merge_and_clean();
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
