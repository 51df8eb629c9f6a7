#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "io/json.hpp"
#include "serve/dashboard.hpp"

namespace pas::serve {

namespace {

// epoll user-data tags for the two non-connection descriptors; connection
// events carry their slot index instead.
constexpr std::uint64_t kListenTag = UINT64_MAX;
constexpr std::uint64_t kWakeTag = UINT64_MAX - 1;

const char* state_name(CampaignFeed::State state) noexcept {
  switch (state) {
    case CampaignFeed::State::kIdle: return "idle";
    case CampaignFeed::State::kRunning: return "running";
    case CampaignFeed::State::kDone: return "done";
    case CampaignFeed::State::kInterrupted: return "interrupted";
  }
  return "?";
}

bool parse_size(std::string_view text, std::size_t& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

}  // namespace

bool parse_listen_address(const std::string& spec, std::string& host,
                          std::uint16_t& port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos) return false;
  host = spec.substr(0, colon);
  if (host.empty()) host = "127.0.0.1";
  const std::string_view port_text = std::string_view(spec).substr(colon + 1);
  std::size_t value = 0;
  if (!parse_size(port_text, value) || value > 65535) return false;
  port = static_cast<std::uint16_t>(value);
  return true;
}

Server::Server(CampaignFeed& feed, Options options)
    : feed_(feed), options_(std::move(options)) {}

Server::~Server() {
  close_all();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
}

bool Server::start(std::string& error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    error = "bad listen address: " + options_.host;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    error = "bind " + options_.host + ":" + std::to_string(options_.port) +
            ": " + std::strerror(errno);
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 64) < 0) {
    error = std::string("listen: ") + std::strerror(errno);
    return false;
  }

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) < 0) {
    error = std::string("pipe2: ") + std::strerror(errno);
    return false;
  }
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    error = std::string("epoll_create1: ") + std::strerror(errno);
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_read_, &ev);

  conns_.resize(options_.max_connections);
  free_slots_.clear();
  for (std::size_t i = options_.max_connections; i-- > 0;) {
    free_slots_.push_back(i);
  }
  t0_ = std::chrono::steady_clock::now();
  return true;
}

double Server::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

void Server::run() {
  epoll_event events[32];
  while (!stop_.load(std::memory_order_relaxed)) {
    const int n =
        ::epoll_wait(epoll_fd_, events, 32, options_.tick_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        accept_ready();
      } else if (tag == kWakeTag) {
        char drain[16];
        while (::read(wake_read_, drain, sizeof(drain)) > 0) {
        }
      } else {
        const auto slot = static_cast<std::size_t>(tag);
        if (slot >= conns_.size() || !conns_[slot].in_use) continue;
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          close_conn(slot);
          continue;
        }
        if ((events[i].events & EPOLLIN) != 0) conn_readable(slot);
        if (slot < conns_.size() && conns_[slot].in_use &&
            (events[i].events & EPOLLOUT) != 0) {
          conn_writable(slot);
        }
      }
    }
    pump_sse(now_s());
  }
  close_all();
  if (!options_.flightrec_path.empty() && recorder_.noted() > 0) {
    std::FILE* f = std::fopen(options_.flightrec_path.c_str(), "a");
    if (f != nullptr) {
      std::fprintf(f, "=== serve shutdown (%llu requests) ===\n",
                   static_cast<unsigned long long>(
                       requests_served_.load(std::memory_order_relaxed)));
      recorder_.dump(f);
      std::fclose(f);
      std::fprintf(stderr,
                   "pas-exp: serve flight recorder appended to %s\n",
                   options_.flightrec_path.c_str());
    }
  }
}

void Server::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (wake_write_ >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t rc = ::write(wake_write_, &byte, 1);
  }
}

void Server::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error; poll again later
    if (free_slots_.empty()) {
      // Table full: best-effort 503 and close. The response is tiny, so
      // a single nonblocking write either lands or the client retries.
      const std::string resp = http_response(
          503, "application/json", "{\"error\":\"too many connections\"}\n",
          false);
      [[maybe_unused]] const ssize_t rc =
          ::write(fd, resp.data(), resp.size());
      ::close(fd);
      continue;
    }
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    Conn& conn = conns_[slot];
    conn.fd = fd;
    conn.in_use = true;
    conn.parser.reset();
    conn.out.clear();
    conn.close_after_write = false;
    conn.sse = false;
    conn.sse_seq = 0;
    conn.last_sse_write_s = 0.0;
    conn.want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = slot;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void Server::conn_readable(std::size_t slot) {
  Conn& conn = conns_[slot];
  char buf[16384];
  while (true) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      if (!conn.parser.consume(std::string_view(buf,
                                                static_cast<std::size_t>(n)))) {
        const int status = conn.parser.error_status();
        recorder_.note('<', static_cast<int>(slot),
                       "malformed request (" + std::to_string(status) + ")");
        queue_response(slot, status, "application/json",
                       "{\"error\":\"" + std::string(status_text(status)) +
                           "\"}\n",
                       false);
        flush(slot);
        return;
      }
      continue;
    }
    if (n == 0) {  // peer closed
      if (conn.out.empty()) {
        close_conn(slot);
      } else {
        conn.close_after_write = true;
        flush(slot);
      }
      return;
    }
    break;  // EAGAIN (or transient error): wait for the next event
  }
  while (conn.parser.has_request()) {
    const HttpRequest request = conn.parser.take_request();
    handle_request(slot, request);
    if (!conns_[slot].in_use) return;  // handler closed the connection
    if (conns_[slot].sse) break;  // stream takes over; ignore pipelined rest
  }
  flush(slot);
}

void Server::conn_writable(std::size_t slot) { flush(slot); }

void Server::handle_request(std::size_t slot, const HttpRequest& request) {
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  recorder_.note('<', static_cast<int>(slot),
                 request.method + " " + request.target);

  if (request.path == "/api/events") {
    if (request.method != "GET") {
      queue_response(slot, 405, "application/json",
                     "{\"error\":\"Method Not Allowed\"}\n",
                     request.keep_alive);
      return;
    }
    begin_sse(slot, request);
    return;
  }

  std::string body;
  std::string content_type = "application/json";
  int status = 200;
  if (request.path == "/" || request.path == "/index.html") {
    if (request.method != "GET") {
      status = 405;
      body = "{\"error\":\"Method Not Allowed\"}\n";
    } else {
      content_type = "text/html; charset=utf-8";
      body = std::string(dashboard_html());
    }
  } else if (request.path == "/api/status") {
    if (request.method != "GET") {
      status = 405;
      body = "{\"error\":\"Method Not Allowed\"}\n";
    } else {
      body = status_json() + "\n";
    }
  } else if (request.path == "/api/metrics") {
    if (request.method != "GET") {
      status = 405;
      body = "{\"error\":\"Method Not Allowed\"}\n";
    } else {
      body = feed_.metrics().dump() + "\n";
    }
  } else if (request.path == "/api/points") {
    if (request.method != "GET") {
      status = 405;
      body = "{\"error\":\"Method Not Allowed\"}\n";
    } else {
      body = points_json(request) + "\n";
    }
  } else {
    status = 404;
    body = "{\"error\":\"Not Found\"}\n";
  }
  queue_response(slot, status, content_type, body, request.keep_alive);
}

void Server::queue_response(std::size_t slot, int status,
                            std::string_view content_type,
                            std::string_view body, bool keep_alive) {
  Conn& conn = conns_[slot];
  recorder_.note('>', static_cast<int>(slot),
                 std::to_string(status) + " " + std::to_string(body.size()) +
                     "B");
  conn.out += http_response(status, content_type, body, keep_alive);
  if (!keep_alive) conn.close_after_write = true;
}

void Server::begin_sse(std::size_t slot, const HttpRequest& request) {
  Conn& conn = conns_[slot];
  conn.sse = true;
  conn.out += sse_preamble();
  recorder_.note('>', static_cast<int>(slot), "200 event-stream");
  // Replay position: Last-Event-ID (an EventSource reconnect) wins over
  // ?since=N; the default 0 replays the whole ring, which is how a late
  // consumer catches up on a short campaign.
  std::size_t after = 0;
  if (const auto it = request.headers.find("last-event-id");
      it != request.headers.end()) {
    (void)parse_size(it->second, after);
  } else {
    (void)parse_size(query_param(request, "since", "0"), after);
  }
  conn.sse_seq = after;
  conn.last_sse_write_s = now_s();
}

void Server::pump_sse(double now) {
  for (std::size_t slot = 0; slot < conns_.size(); ++slot) {
    Conn& conn = conns_[slot];
    if (!conn.in_use || !conn.sse) continue;
    bool wrote = false;
    // Cap per tick so one firehose stream cannot starve the loop; the
    // remainder arrives next tick in order.
    for (const auto& event : feed_.events_since(conn.sse_seq, 512)) {
      conn.out += sse_event(event.seq, event.type, event.data);
      conn.sse_seq = event.seq;
      wrote = true;
    }
    if (wrote) {
      conn.last_sse_write_s = now;
    } else if (now - conn.last_sse_write_s >= options_.keepalive_s) {
      conn.out += sse_comment("keep-alive");
      conn.last_sse_write_s = now;
    }
    if (!conn.out.empty()) flush(slot);
  }
}

void Server::flush(std::size_t slot) {
  Conn& conn = conns_[slot];
  while (!conn.out.empty()) {
    const ssize_t n = ::write(conn.fd, conn.out.data(), conn.out.size());
    if (n > 0) {
      conn.out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;  // socket full; EPOLLOUT will resume
    }
    close_conn(slot);  // hard write error
    return;
  }
  if (conn.out.empty() && conn.close_after_write) {
    close_conn(slot);
    return;
  }
  update_epoll(slot);
}

void Server::update_epoll(std::size_t slot) {
  Conn& conn = conns_[slot];
  const bool want_write = !conn.out.empty();
  if (want_write == conn.want_write) return;
  conn.want_write = want_write;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = slot;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void Server::close_conn(std::size_t slot) {
  Conn& conn = conns_[slot];
  if (!conn.in_use) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conn.fd = -1;
  conn.in_use = false;
  conn.parser.reset();
  conn.out.clear();
  conn.out.shrink_to_fit();
  conn.sse = false;
  free_slots_.push_back(slot);
}

void Server::close_all() {
  for (std::size_t slot = 0; slot < conns_.size(); ++slot) {
    if (conns_[slot].in_use) close_conn(slot);
  }
}

std::string Server::status_json() const {
  const CampaignFeed::Status status = feed_.status();
  const auto now = FeedClock::now();
  io::JsonObject out;
  out["state"] = state_name(status.state);
  out["campaign"] = status.campaign;
  out["total_points"] = status.total_points;
  out["done_points"] = status.done_points;
  out["computed"] = status.computed;
  out["resumed"] = status.resumed;
  out["replications"] = status.replications;
  out["elapsed_s"] = status.elapsed_s;
  out["last_seq"] = status.last_seq;
  out["points_logged"] = status.points_logged;
  io::JsonArray workers;
  for (const auto& w : status.workers) {
    io::JsonObject row;
    row["id"] = w.id;
    row["has_lease"] = w.has_lease;
    row["lease_points_left"] = w.lease_points_left;
    row["points_done"] = w.points_done;
    row["hb_age_s"] =
        std::chrono::duration<double>(now - w.last_line).count();
    workers.emplace_back(std::move(row));
  }
  out["workers"] = std::move(workers);
  return io::Json(std::move(out)).dump();
}

std::string Server::points_json(const HttpRequest& request) const {
  std::size_t since = 0;
  (void)parse_size(query_param(request, "since", "0"), since);
  const std::vector<std::string> rows = feed_.points_since(since);
  const CampaignFeed::Status status = feed_.status();
  // Rows are already compact JSON objects; splice them in verbatim rather
  // than re-parsing through io::Json.
  std::string out = "{\"since\":" + std::to_string(since) +
                    ",\"count\":" + std::to_string(rows.size()) +
                    ",\"next\":" + std::to_string(since + rows.size()) +
                    ",\"total\":" + std::to_string(status.points_logged) +
                    ",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += ',';
    out += rows[i];
  }
  out += "]}";
  return out;
}

}  // namespace pas::serve
