#include "serve/feed.hpp"

#include <cstdio>
#include <utility>

#include "orch/supervisor.hpp"

namespace pas::serve {

namespace {

double age_s(FeedClock::time_point now, FeedClock::time_point then) {
  return std::chrono::duration<double>(now - then).count();
}

}  // namespace

CampaignFeed::CampaignFeed(Options options)
    : options_(options),
      t0_(FeedClock::now()),
      last_tick_(t0_),
      campaign_t0_(t0_) {}

void CampaignFeed::set_echo(bool enabled, bool drive_style,
                            double interval_s) {
  const std::lock_guard lock(mutex_);
  echo_ = enabled;
  drive_echo_ = drive_style;
  echo_interval_s_ = interval_s;
}

double CampaignFeed::elapsed_since_start_locked(
    FeedClock::time_point now) const {
  return age_s(now, campaign_t0_);
}

void CampaignFeed::push_event_locked(const std::string& type,
                                     std::string data) {
  Event event;
  event.seq = next_seq_++;
  event.t_s = age_s(FeedClock::now(), t0_);
  event.type = type;
  event.data = std::move(data);
  events_.push_back(std::move(event));
  while (events_.size() > options_.event_capacity) events_.pop_front();
}

void CampaignFeed::begin_campaign(const std::string& name,
                                  std::size_t total_points,
                                  std::size_t replications,
                                  std::size_t resumed) {
  const std::lock_guard lock(mutex_);
  state_ = State::kRunning;
  campaign_ = name;
  campaign_t0_ = FeedClock::now();
  last_tick_ = campaign_t0_;
  total_points_ = total_points;
  done_points_ = resumed;
  computed_ = 0;
  resumed_ = resumed;
  replications_ = replications;
  workers_.clear();
  io::JsonObject data;
  data["event"] = "start";
  data["name"] = name;
  data["total_points"] = total_points;
  data["replications"] = replications;
  data["resumed"] = resumed;
  push_event_locked("campaign", io::Json(std::move(data)).dump());
}

void CampaignFeed::end_campaign(bool interrupted) {
  const std::lock_guard lock(mutex_);
  state_ = interrupted ? State::kInterrupted : State::kDone;
  io::JsonObject data;
  data["event"] = interrupted ? "interrupted" : "done";
  data["name"] = campaign_;
  data["done_points"] = done_points_;
  data["total_points"] = total_points_;
  data["computed"] = computed_;
  push_event_locked("campaign", io::Json(std::move(data)).dump());
}

void CampaignFeed::point_done(std::string row_json) {
  const std::lock_guard lock(mutex_);
  ++done_points_;
  ++computed_;
  if (options_.store_points) {
    point_rows_.push_back(row_json);
    while (point_rows_.size() > options_.point_log_capacity) {
      point_rows_.pop_front();
    }
  }
  ++points_logged_;
  push_event_locked("point", std::move(row_json));
}

void CampaignFeed::update_workers(std::vector<WorkerRow> workers) {
  const std::lock_guard lock(mutex_);
  workers_ = std::move(workers);
}

void CampaignFeed::worker_event(const std::string& kind, int worker,
                                const std::string& detail) {
  const std::lock_guard lock(mutex_);
  io::JsonObject data;
  data["event"] = kind;
  data["worker"] = worker;
  if (!detail.empty()) data["detail"] = detail;
  push_event_locked("worker", io::Json(std::move(data)).dump());
}

void CampaignFeed::progress_tick(bool force) {
  const std::lock_guard lock(mutex_);
  const auto now = FeedClock::now();
  if (!force && age_s(now, last_tick_) < echo_interval_s_) return;
  last_tick_ = now;
  const double elapsed = elapsed_since_start_locked(now);
  io::JsonObject data;
  data["done"] = done_points_;
  data["total"] = total_points_;
  data["computed"] = computed_;
  data["replications"] = replications_;
  data["elapsed_s"] = elapsed;
  data["workers"] = workers_.size();
  push_event_locked("progress", io::Json(std::move(data)).dump());
  if (echo_) echo_locked(now);
}

void CampaignFeed::echo_locked(FeedClock::time_point now) {
  const double elapsed = elapsed_since_start_locked(now);
  const std::string line = orch::progress_line(
      done_points_, total_points_, computed_, replications_, elapsed);
  if (drive_echo_) {
    std::printf("%s | %zu workers\n", line.c_str(), workers_.size());
    for (const auto& w : workers_) {
      std::printf("%s\n",
                  orch::worker_status_line(w.id, w.has_lease,
                                           w.lease_points_left, w.points_done,
                                           age_s(now, w.last_line))
                      .c_str());
    }
  } else {
    std::printf("%s\n", line.c_str());
  }
  std::fflush(stdout);
}

void CampaignFeed::publish(const std::string& type, std::string data_json) {
  const std::lock_guard lock(mutex_);
  push_event_locked(type, std::move(data_json));
}

void CampaignFeed::set_metrics(io::Json snapshot) {
  const std::lock_guard lock(mutex_);
  metrics_ = std::move(snapshot);
}

CampaignFeed::Status CampaignFeed::status() const {
  const std::lock_guard lock(mutex_);
  Status out;
  out.state = state_;
  out.campaign = campaign_;
  out.total_points = total_points_;
  out.done_points = done_points_;
  out.computed = computed_;
  out.resumed = resumed_;
  out.replications = replications_;
  const auto now = FeedClock::now();
  out.elapsed_s =
      state_ == State::kIdle ? 0.0 : elapsed_since_start_locked(now);
  out.workers = workers_;
  out.last_seq = next_seq_ - 1;
  out.points_logged = points_logged_;
  return out;
}

std::vector<CampaignFeed::Event> CampaignFeed::events_since(
    std::uint64_t after_seq, std::size_t max_events) const {
  const std::lock_guard lock(mutex_);
  std::vector<Event> out;
  // The ring holds contiguous sequence numbers, so the start offset is a
  // subtraction, not a scan.
  if (events_.empty()) return out;
  const std::uint64_t first = events_.front().seq;
  std::size_t start = 0;
  if (after_seq + 1 > first) {
    start = static_cast<std::size_t>(after_seq + 1 - first);
    if (start >= events_.size()) return out;
  }
  const std::size_t n = std::min(max_events, events_.size() - start);
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(events_[start + i]);
  return out;
}

std::vector<std::string> CampaignFeed::points_since(
    std::size_t after, std::size_t max_rows) const {
  const std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  // The log is bounded: the deque holds indices [base, points_logged_).
  // A cursor inside the dropped prefix resumes at the oldest retained row.
  const std::size_t base = points_logged_ - point_rows_.size();
  const std::size_t start = after > base ? after - base : 0;
  if (start >= point_rows_.size()) return out;
  const std::size_t n = std::min(max_rows, point_rows_.size() - start);
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(point_rows_[start + i]);
  return out;
}

io::Json CampaignFeed::metrics() const {
  const std::lock_guard lock(mutex_);
  return metrics_;
}

}  // namespace pas::serve
