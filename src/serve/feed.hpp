// serve::CampaignFeed — the single producer behind every live view of a
// running campaign.
//
// The campaign engine (exp::run_campaign) and the orchestrator
// (orch::drive) publish progress, point completions, worker lifecycle
// events, and metrics snapshots into one thread-safe feed; consumers
// read from it without ever touching the producers:
//
//  * the --progress stderr/stdout lines are rendered by the feed itself
//    (echo mode), so the terminal and the network stream can never
//    disagree about what the campaign is doing;
//  * the HTTP server (serve/server.hpp) snapshots status(), drains
//    events_since() into per-client SSE streams, and serves the
//    completion-ordered point-row log incrementally.
//
// Serving is observe-only by construction: the feed owns copies (JSON
// strings, counters, worker rows) and writes no files, so a campaign
// with a feed attached produces byte-identical CSV/JSONL output to one
// without.
//
// Events carry monotonically increasing sequence numbers and live in a
// bounded ring (default 1 << 16). events_since() never invents or
// repeats a sequence number, which is what the SSE soak test's
// "no dropped or duplicated point completions" check leans on; a client
// that falls behind a full ring can detect the gap from the ids and
// re-sync via /api/points.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "io/json.hpp"

namespace pas::serve {

using FeedClock = std::chrono::steady_clock;

class CampaignFeed {
 public:
  struct Options {
    /// Keep the serialized point rows for /api/points. Off for feeds that
    /// only unify progress echo (a plain --drive --progress run), so a
    /// million-point campaign does not grow a row log nobody will read.
    bool store_points = false;
    /// Event-ring capacity (oldest entries drop first).
    std::size_t event_capacity = 1 << 16;
    /// Point-row log capacity (oldest rows drop first), so a 100k-point
    /// campaign bounds the feed's memory like the event ring does.
    /// points_since() callers that fall behind the window re-sync from the
    /// returned log indices; log indices themselves never shift.
    std::size_t point_log_capacity = 1 << 16;
  };

  struct WorkerRow {
    int id = -1;
    bool has_lease = false;
    std::size_t lease_points_left = 0;
    std::size_t points_done = 0;
    /// Time of the worker's last protocol line; ages are computed at
    /// read time so a stalled worker's age climbs between updates.
    FeedClock::time_point last_line{};
  };

  struct Event {
    std::uint64_t seq = 0;
    double t_s = 0.0;  // seconds since feed construction
    /// SSE event type: "campaign", "progress", "point", "worker",
    /// "shutdown".
    std::string type;
    /// Compact single-line JSON payload.
    std::string data;
  };

  enum class State { kIdle, kRunning, kDone, kInterrupted };

  struct Status {
    State state = State::kIdle;
    std::string campaign;       // manifest name
    std::size_t total_points = 0;
    std::size_t done_points = 0;  // includes resumed rows
    std::size_t computed = 0;     // simulated by this invocation
    std::size_t resumed = 0;
    std::size_t replications = 0;
    double elapsed_s = 0.0;  // since begin_campaign
    std::vector<WorkerRow> workers;
    std::uint64_t last_seq = 0;
    std::size_t points_logged = 0;   // rows available to /api/points
  };

  CampaignFeed() : CampaignFeed(Options()) {}
  explicit CampaignFeed(Options options);

  /// Progress echo: when enabled, the feed prints the classic --progress
  /// lines (orch::progress_line, worker_status_line) to stdout at
  /// `interval_s` cadence. `drive_style` appends " | N workers" plus the
  /// per-worker table, matching the supervisor's historical output.
  void set_echo(bool enabled, bool drive_style, double interval_s = 1.0);

  // --- Producer side (campaign engine / orchestrator) ---------------------

  void begin_campaign(const std::string& name, std::size_t total_points,
                      std::size_t replications, std::size_t resumed);
  void end_campaign(bool interrupted);

  /// One completed point. `row_json` is the compact JSON row exposed via
  /// /api/points and the "point" SSE event (identity + whatever summary
  /// the producer has; the orchestrator knows less than the in-process
  /// engine). Also advances done/computed counters.
  void point_done(std::string row_json);

  /// Replaces the worker table (drive mode; the supervisor pushes it from
  /// its poll loop).
  void update_workers(std::vector<WorkerRow> workers);

  /// Worker lifecycle: kind in {"spawn", "crash", "respawn"}; detail is
  /// free text (pid, crash reason, replaced worker).
  void worker_event(const std::string& kind, int worker,
                    const std::string& detail);

  /// Throttled progress: emits a "progress" SSE event and (echo mode) the
  /// status line at most once per echo interval, always when `force` is
  /// set. Producers call it as often as they like.
  void progress_tick(bool force);

  /// Publishes an already-built event verbatim (pas-exp's "shutdown").
  void publish(const std::string& type, std::string data_json);

  /// Replaces the /api/metrics snapshot. Producers push a copy of their
  /// telemetry whenever it changes (--metrics only); the last one stays
  /// after the campaign ends.
  void set_metrics(io::Json snapshot);

  // --- Consumer side (HTTP server) -----------------------------------------

  [[nodiscard]] Status status() const;

  /// Events with seq > after_seq, oldest first, at most max_events.
  [[nodiscard]] std::vector<Event> events_since(
      std::uint64_t after_seq, std::size_t max_events = 512) const;

  /// Completion-ordered point rows starting at log index `after`
  /// (0-based), at most max_rows. Empty unless options.store_points. Rows
  /// older than the bounded log window (point_log_capacity) are gone; the
  /// reply then starts at the oldest retained index instead, which a
  /// client detects by comparing its cursor against points_logged.
  [[nodiscard]] std::vector<std::string> points_since(
      std::size_t after, std::size_t max_rows = 1024) const;

  /// The last pushed metrics snapshot ({} before the first push).
  [[nodiscard]] io::Json metrics() const;

 private:
  void push_event_locked(const std::string& type, std::string data);
  void echo_locked(FeedClock::time_point now);
  [[nodiscard]] double elapsed_since_start_locked(
      FeedClock::time_point now) const;

  const Options options_;
  const FeedClock::time_point t0_;

  mutable std::mutex mutex_;
  bool echo_ = false;
  bool drive_echo_ = false;
  double echo_interval_s_ = 1.0;
  FeedClock::time_point last_tick_;

  State state_ = State::kIdle;
  std::string campaign_;
  FeedClock::time_point campaign_t0_;
  std::size_t total_points_ = 0;
  std::size_t done_points_ = 0;
  std::size_t computed_ = 0;
  std::size_t resumed_ = 0;
  std::size_t replications_ = 0;
  std::vector<WorkerRow> workers_;

  std::uint64_t next_seq_ = 1;
  std::deque<Event> events_;

  /// Bounded completion-ordered row log: point_rows_ holds log indices
  /// [points_logged_ - size, points_logged_); older rows have been popped.
  std::size_t points_logged_ = 0;
  std::deque<std::string> point_rows_;

  io::Json metrics_ = io::Json(io::JsonObject{});
};

}  // namespace pas::serve
