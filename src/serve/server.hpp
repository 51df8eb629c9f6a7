// Embedded campaign observability server (pas-exp --serve).
//
// A single-threaded epoll loop serving the live-campaign HTTP API out of
// a serve::CampaignFeed. The structure mirrors the simulation kernel's
// EventQueue discipline: one poll loop, a slot-map connection table with
// an explicit free list (connection objects and their parser/output
// buffers are reused, never reallocated per client), and indices — not
// pointers — in the epoll user data.
//
// Endpoints:
//   GET  /               embedded dashboard (self-contained HTML)
//   GET  /api/status     campaign identity, completion, worker table
//   GET  /api/metrics    last pushed metrics snapshot (quantiles included)
//   GET  /api/points?since=N   completion-ordered point rows, incremental
//   GET  /api/events     SSE stream (campaign/progress/point/worker/...)
//
// The server is a pure consumer: it reads feed snapshots and never
// touches campaign state, so attaching it cannot perturb results (the
// CSV byte-identity contract). run() blocks and is intended for a
// dedicated thread; stop() is async-signal-safe-adjacent (atomic flag +
// self-pipe write) so the main thread's SIGINT path can end the loop.
//
// An obs::FlightRecorder notes every request and response line; on loop
// exit the window is dumped to `flightrec_path` — the same post-mortem
// idiom the orchestrator uses for worker protocol traffic.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "serve/feed.hpp"
#include "serve/http.hpp"

namespace pas::serve {

class Server {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 lets the kernel pick; port() reports the bound port either way.
    std::uint16_t port = 0;
    /// Connection-table capacity; accepts beyond it get 503 + close.
    std::size_t max_connections = 64;
    /// Poll-loop tick; bounds SSE latency and stop() response time.
    int tick_ms = 200;
    /// SSE keep-alive comment cadence (quiet streams only).
    double keepalive_s = 10.0;
    /// Where the request/response flight-recorder window is appended on
    /// loop exit ("" = skip the dump).
    std::string flightrec_path;
  };

  Server(CampaignFeed& feed, Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens. Returns false (with `error` set) on failure;
  /// the server owns no descriptors afterwards.
  [[nodiscard]] bool start(std::string& error);

  /// Host/port actually bound (valid after start; resolves port 0).
  [[nodiscard]] const std::string& host() const noexcept {
    return options_.host;
  }
  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }

  /// Runs the poll loop until stop(). Call from a dedicated thread.
  void run();

  /// Ends run() from any thread (atomic flag + wake-pipe write).
  void stop();

  /// Requests served so far (handy for tests; racy reads are fine).
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    int fd = -1;
    bool in_use = false;
    RequestParser parser;
    std::string out;          // bytes awaiting write
    bool close_after_write = false;
    bool sse = false;
    std::uint64_t sse_seq = 0;       // last event seq sent
    double last_sse_write_s = 0.0;   // keep-alive bookkeeping
    bool want_write = false;         // EPOLLOUT currently armed
  };

  void accept_ready();
  void conn_readable(std::size_t slot);
  void conn_writable(std::size_t slot);
  void handle_request(std::size_t slot, const HttpRequest& request);
  void queue_response(std::size_t slot, int status,
                      std::string_view content_type, std::string_view body,
                      bool keep_alive);
  void begin_sse(std::size_t slot, const HttpRequest& request);
  void pump_sse(double now_s);
  void flush(std::size_t slot);
  void update_epoll(std::size_t slot);
  void close_conn(std::size_t slot);
  void close_all();
  [[nodiscard]] double now_s() const;

  [[nodiscard]] std::string status_json() const;
  [[nodiscard]] std::string points_json(const HttpRequest& request) const;

  CampaignFeed& feed_;
  Options options_;
  std::uint16_t bound_port_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> requests_served_{0};

  std::vector<Conn> conns_;
  std::vector<std::size_t> free_slots_;
  std::chrono::steady_clock::time_point t0_{};

  obs::FlightRecorder recorder_{512};
};

/// Splits "host:port" (e.g. "127.0.0.1:8080", ":0"). Empty host means
/// 127.0.0.1. Returns false on a malformed port.
[[nodiscard]] bool parse_listen_address(const std::string& spec,
                                        std::string& host,
                                        std::uint16_t& port);

}  // namespace pas::serve
