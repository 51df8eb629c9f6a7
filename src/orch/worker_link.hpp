// Driver↔worker protocol and the worker-side main loop.
//
// The orchestrator's child processes (`pas-exp --worker`, fork/exec'd by
// the supervisor) talk to the driver over their inherited stdin/stdout
// with a line-oriented text protocol:
//
//   worker → driver                      driver → worker
//   ---------------------------------    -------------------------
//   hello <worker_id>                    point <p>
//   hb                                   quit
//   point_done <point> <rows>
//   fail <message...>
//
// The worker computes its `point` lines in the order they arrive and
// answers each with one `point_done`; the driver keeps at most two points
// in flight per worker, so the next one is already queued on the pipe
// while the driver stores the last. `hb` heartbeats flow from a small side
// thread even while the worker is deep inside a simulation, so the driver
// can tell "slow point" from "hung worker". Parsing is strict — trailing
// tokens, missing fields, or non-numeric ids make a line malformed
// (std::nullopt), and the supervisor treats a malformed line as a crashed
// worker rather than guessing.
//
// Workers write no files. `<rows>` is the lower-case hex of the point's
// batch as exp::Aggregator::encode_point renders it (.pasrows framing,
// a CRC per record); the driver appends it to the campaign's one row store
// with Aggregator::record_encoded, which rejects a batch that is not the
// point's complete rows.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "exp/manifest.hpp"

namespace pas::orch {

// --- Protocol messages ------------------------------------------------------

struct WorkerMsg {
  enum class Kind { kHello, kHeartbeat, kPointDone, kFail };
  Kind kind = Kind::kHeartbeat;
  int worker = -1;        // kHello
  std::size_t point = 0;  // kPointDone
  std::string rows;       // kPointDone: the decoded batch bytes
  std::string message;    // kFail
};

struct DriverCmd {
  enum class Kind { kPoint, kQuit };
  Kind kind = Kind::kQuit;
  std::size_t point = 0;  // kPoint
};

/// Strict parsers: std::nullopt on any malformed line.
[[nodiscard]] std::optional<WorkerMsg> parse_worker_line(
    const std::string& line);
[[nodiscard]] std::optional<DriverCmd> parse_driver_line(
    const std::string& line);

[[nodiscard]] std::string format_hello(int worker);
[[nodiscard]] std::string format_heartbeat();
/// "point_done <point> <hex of rows>".
[[nodiscard]] std::string format_point_done(std::size_t point,
                                            std::string_view rows);
[[nodiscard]] std::string format_fail(const std::string& message);
[[nodiscard]] std::string format_point(std::size_t point);
[[nodiscard]] std::string format_quit();

/// Writes `line` + '\n' to `fd` in full (EINTR-retried). False when the
/// peer is gone (EPIPE with SIGPIPE ignored) — both protocol ends use this
/// to detect the other side's death. Not serialized; callers with
/// concurrent writers (the worker's heartbeat thread) must hold their own
/// lock so lines stay atomic on the pipe.
bool write_line(int fd, const std::string& line);

// --- Worker main loop -------------------------------------------------------

struct WorkerOptions {
  /// The driver's own --out, --per-run and --metrics paths. The worker
  /// never opens them: they select which rows its Aggregator encodes, so
  /// its batches match the driver's store.
  std::string out_csv;
  std::string per_run_csv;
  std::string metrics_path;
  int worker_id = 0;
  /// Threads for replication-parallel execution inside a point (>=1).
  std::size_t jobs = 1;
};

/// Runs the `pas-exp --worker` protocol loop until `quit` or stdin EOF
/// (driver death): announce `hello`, then compute each `point` line from
/// stdin and send its rows, with a heartbeat every 0.5 s. Returns the
/// process exit code (0 on clean shutdown). On an execution error it sends
/// `fail` and returns 1.
///
/// Test hook: if the environment variable PAS_ORCH_TEST_CRASH is set to
/// "<worker_id>:<n>", the worker with that id raises SIGKILL after its
/// n-th point_done — the deterministic mid-campaign crash the recovery
/// tests inject. A respawned worker gets a new id, so it is not armed.
/// "*:<n>" arms every worker, replacements included, so a crash happens
/// whichever worker gets the work; each worker finishes n points before it
/// dies, so a campaign of P points sees at most P / n crashes.
int run_worker(const exp::Manifest& manifest, const WorkerOptions& options);

}  // namespace pas::orch
