// Driver↔worker protocol and the worker-side main loop.
//
// The orchestrator's child processes (`pas-exp --worker`, fork/exec'd by
// the supervisor) talk to the driver over their inherited stdin/stdout
// with a line-oriented text protocol:
//
//   worker → driver                      driver → worker
//   ---------------------------------    -------------------------
//   hello <worker_id> <recovered>        lease <id> <p1> <p2> ...
//   hb                                   quit
//   point_done <point>
//   lease_done <lease_id>
//   fail <message...>
//
// `hb` heartbeats flow from a small side thread even while the worker is
// deep inside a simulation, so the driver can tell "slow point" from
// "hung worker". Parsing is strict — trailing tokens, missing fields, or
// non-numeric ids make a line malformed (std::nullopt), and the supervisor
// treats a malformed line as a crashed worker rather than guessing.
//
// The worker writes results to its own part file through the standard
// identity-checked exp::Aggregator resume path: every completed point is
// appended + flushed before `point_done` is sent, so the part file (not
// the protocol stream) is the ground truth the supervisor re-reads when a
// worker dies.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/manifest.hpp"

namespace pas::orch {

// --- Protocol messages ------------------------------------------------------

struct WorkerMsg {
  enum class Kind { kHello, kHeartbeat, kPointDone, kLeaseDone, kFail };
  Kind kind = Kind::kHeartbeat;
  int worker = -1;            // kHello
  std::size_t recovered = 0;  // kHello: rows resumed from the part file
  std::size_t point = 0;      // kPointDone
  std::uint64_t lease = 0;    // kLeaseDone
  std::string message;        // kFail
};

struct DriverCmd {
  enum class Kind { kLease, kQuit };
  Kind kind = Kind::kQuit;
  std::uint64_t lease = 0;           // kLease
  std::vector<std::size_t> points;   // kLease, non-empty
};

/// Strict parsers: std::nullopt on any malformed line.
[[nodiscard]] std::optional<WorkerMsg> parse_worker_line(
    const std::string& line);
[[nodiscard]] std::optional<DriverCmd> parse_driver_line(
    const std::string& line);

[[nodiscard]] std::string format_hello(int worker, std::size_t recovered);
[[nodiscard]] std::string format_heartbeat();
[[nodiscard]] std::string format_point_done(std::size_t point);
[[nodiscard]] std::string format_lease_done(std::uint64_t lease);
[[nodiscard]] std::string format_fail(const std::string& message);
[[nodiscard]] std::string format_lease(std::uint64_t lease,
                                       const std::vector<std::size_t>& points);
[[nodiscard]] std::string format_quit();

/// Writes `line` + '\n' to `fd` in full (EINTR-retried). False when the
/// peer is gone (EPIPE with SIGPIPE ignored) — both protocol ends use this
/// to detect the other side's death. Not serialized; callers with
/// concurrent writers (the worker's heartbeat thread) must hold their own
/// lock so lines stay atomic on the pipe.
bool write_line(int fd, const std::string& line);

// --- Worker main loop -------------------------------------------------------

struct WorkerOptions {
  /// Part files this worker owns (the driver derives them from --out).
  std::string out_csv;
  std::string per_run_csv;
  /// Telemetry JSONL part file (empty = no telemetry). Rows are appended +
  /// flushed before `point_done`, mirroring the CSV, so the driver's crash
  /// merge never sees a point whose telemetry is missing.
  std::string metrics_csv;
  int worker_id = 0;
  /// Threads for replication-parallel execution inside a point (>=1).
  std::size_t jobs = 1;
  /// Heartbeat period; tests may shrink it.
  double heartbeat_s = 0.5;
};

/// Runs the `pas-exp --worker` protocol loop until `quit` or stdin EOF
/// (driver death): resume the part file, announce `hello`, then execute
/// leases from stdin, reporting each completed point. Returns the process
/// exit code (0 on clean shutdown). On an execution error it sends `fail`
/// and returns 1; completed points stay on disk either way.
///
/// Test hook: if the environment variable PAS_ORCH_TEST_CRASH is set to
/// "<worker_id>:<n>", a worker with that id whose part file was empty at
/// startup raises SIGKILL after its n-th point_done — the deterministic
/// mid-campaign crash the recovery tests inject. A resumed worker recovers
/// rows at startup, so the hook disarms itself; a respawned one gets a new
/// id and an empty part file. "*:<n>" arms every worker, replacements
/// included, so a crash happens whichever worker gets the work; each
/// worker finishes n points before it dies, so a campaign of P points sees
/// at most P / n crashes.
int run_worker(const exp::Manifest& manifest, const WorkerOptions& options);

}  // namespace pas::orch
