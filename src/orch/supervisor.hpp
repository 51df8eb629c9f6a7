// Multi-process campaign supervisor (the third layer of the scale stack:
// threads → static shards → supervised dynamic shards).
//
// drive() turns one manifest into a fault-tolerant multi-process campaign:
// it fork/execs W `pas-exp --worker` children and hands out single points
// from one queue of pending points (src/orch/worker_link.hpp has the
// protocol). Each worker holds at most two points in flight and is topped
// up after every `point_done`, so it never waits while the driver stores
// its last point; once fewer points are pending than there are live
// workers, a worker holds one, so the campaign's tail spreads over all of
// them. Handing out points as workers free up balances uneven point cost,
// which a static split like --shard cannot.
//
// Workers write no files. Each `point_done` carries the point's rows, and
// the driver appends them to the campaign's one exp::Aggregator, built as
// run_campaign builds it: the same `<out>.pasrows` row store, the same
// resume rule (load_existing), and the same export at finalize. The output
// is therefore byte-identical to a serial `pas-exp` run, because every
// point's seeds derive from the manifest alone, and a drive killed
// mid-run leaves exactly what a killed single-process run leaves.
//
//  * Crashed worker (non-zero exit, SIGKILL, protocol violation, rows the
//    Aggregator rejects): every point it holds in flight that the store
//    does not hold goes back to the front of the queue, and a replacement
//    is spawned (bounded by max_respawns).
//  * Hung worker: one rule covers every worker, whatever it holds — no
//    protocol line for hang_timeout_s. Heartbeats and point_done both
//    count, so a live worker is never silent for long. It is SIGKILLed
//    and handled as a crash.
//  * SIGINT/SIGTERM: children are terminated, the store is left on disk,
//    and the report says so; the CLI prints the exact command that
//    continues the campaign.
//
// Resume composes across topologies: `--drive --resume` continues a store
// or finished artifacts left by any earlier run, single-process or driven
// with any worker count, and a single-process `--resume` continues a
// drive's.
#pragma once

#include <cstddef>
#include <string>

#include "exp/manifest.hpp"

namespace pas::serve {
class CampaignFeed;
}  // namespace pas::serve

namespace pas::orch {

struct DriveOptions {
  /// Binary to exec as workers (normally the running pas-exp itself; see
  /// self_exe_path()).
  std::string exe_path;
  /// Manifest file path handed to workers (they re-load and re-expand it,
  /// which is what keeps every process's view of point seeds identical).
  std::string manifest_path;
  std::string out_csv;
  /// Optional JSON-lines mirror of every row.
  std::string json_path;
  /// Optional per-replication CSV.
  std::string per_run_csv;
  /// Optional telemetry JSONL (pas-exp --metrics). Its trailer row holds
  /// the driver's orchestrator-scope instruments (point latency, heartbeat
  /// gaps, crashes, respawns), which are also pushed to `feed`.
  std::string metrics_path;
  /// Worker processes to spawn (capped by the number of pending points).
  std::size_t workers = 2;
  /// Threads per worker for replication-parallel points.
  std::size_t jobs_per_worker = 1;
  /// Continue existing outputs instead of refusing them.
  bool resume = false;
  /// Kill a worker silent for this long (heartbeats tick every 0.5 s);
  /// 0 disables hang detection.
  double hang_timeout_s = 120.0;
  /// Replacement-spawn budget for crashed/hung workers; exceeding it with
  /// work outstanding aborts the drive.
  std::size_t max_respawns = 8;

  enum class Verbosity {
    kQuiet,     // nothing
    kPerPoint,  // one line per completed point
    kPeriodic,  // one status line per second (--progress)
  };
  Verbosity verbosity = Verbosity::kPerPoint;

  /// Live-observability hub (serve/feed.hpp). The driver publishes the
  /// worker table, point completions, crash/respawn events, throttled
  /// progress and (with metrics_path) its instruments into it; with
  /// --progress the feed also renders
  /// the classic status lines, so the terminal and any SSE stream are two
  /// views of the same counters. Null = the driver owns a private feed
  /// (progress unification still applies; nothing is retained).
  serve::CampaignFeed* feed = nullptr;
};

struct DriveReport {
  std::size_t total_points = 0;
  std::size_t computed = 0;  // points simulated by this invocation
  std::size_t resumed = 0;   // points recovered from existing outputs
  std::size_t replications = 0;
  std::size_t workers_spawned = 0;  // initial spawns + respawns
  std::size_t crashes = 0;          // workers that died without clean quit
  std::size_t respawns = 0;
  double wall_s = 0.0;
  /// True when SIGINT/SIGTERM stopped the drive early; the store is left
  /// resumable and nothing was exported.
  bool interrupted = false;
};

/// Runs the supervised campaign. Throws on manifest/IO errors, on existing
/// outputs without `resume`, and when the respawn budget is exhausted with
/// work outstanding (the store stays on disk, resumable); children never
/// outlive the call.
DriveReport drive(const exp::Manifest& manifest, const DriveOptions& options);

/// Path of the currently running executable (/proc/self/exe when
/// available, else the given argv[0]) — what drive() should exec.
[[nodiscard]] std::string self_exe_path(const char* argv0);

}  // namespace pas::orch
