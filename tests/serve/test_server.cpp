// serve::Server over real sockets: endpoint routing, incremental
// /api/points, SSE framing on the wire, and the 8-client soak proving no
// SSE consumer ever sees a dropped or duplicated point-completion event.
#include "serve/server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "io/json.hpp"
#include "serve/feed.hpp"

namespace pas::serve {
namespace {

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{5, 0};  // a wedged server fails the test, not the suite
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
}

std::string read_to_eof(int fd) {
  std::string out;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

struct Response {
  int status = 0;
  std::string head;
  std::string body;
};

/// One-shot request with Connection: close; the response is everything
/// until EOF.
Response roundtrip(std::uint16_t port, const std::string& method,
                   const std::string& target, const std::string& body = "") {
  const int fd = connect_to(port);
  EXPECT_GE(fd, 0);
  std::string wire = method + " " + target + " HTTP/1.1\r\n" +
                     "Host: localhost\r\nConnection: close\r\n";
  if (!body.empty()) {
    wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  wire += "\r\n" + body;
  send_all(fd, wire);
  const std::string raw = read_to_eof(fd);
  ::close(fd);

  Response response;
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return response;
  response.head = raw.substr(0, head_end);
  response.body = raw.substr(head_end + 4);
  if (raw.size() > 12) response.status = std::atoi(raw.c_str() + 9);
  return response;
}

struct SseFrame {
  std::uint64_t id = 0;
  std::string event;
  std::string data;
};

/// Parses complete "id/event/data" frames out of an SSE byte stream,
/// leaving any trailing partial frame in `stream`. Comment frames are
/// dropped.
std::vector<SseFrame> drain_frames(std::string& stream) {
  std::vector<SseFrame> out;
  std::size_t frame_end;
  while ((frame_end = stream.find("\n\n")) != std::string::npos) {
    const std::string frame = stream.substr(0, frame_end);
    stream.erase(0, frame_end + 2);
    SseFrame parsed;
    bool is_event = false;
    std::size_t pos = 0;
    while (pos < frame.size()) {
      std::size_t nl = frame.find('\n', pos);
      if (nl == std::string::npos) nl = frame.size();
      const std::string line = frame.substr(pos, nl - pos);
      pos = nl + 1;
      if (line.rfind("id: ", 0) == 0) {
        parsed.id = std::strtoull(line.c_str() + 4, nullptr, 10);
      } else if (line.rfind("event: ", 0) == 0) {
        parsed.event = line.substr(7);
        is_event = true;
      } else if (line.rfind("data: ", 0) == 0) {
        parsed.data = line.substr(6);
      }
    }
    if (is_event) out.push_back(std::move(parsed));
  }
  return out;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Server::Options options;
    options.port = 0;  // kernel-assigned; the fixture works in parallel CI
    options.tick_ms = 20;
    server_ = std::make_unique<Server>(feed_, options);
    std::string error;
    ASSERT_TRUE(server_->start(error)) << error;
    thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    server_->stop();
    thread_.join();
  }

  CampaignFeed feed_{[] {
    CampaignFeed::Options o;
    o.store_points = true;
    return o;
  }()};
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

TEST_F(ServerTest, StatusEndpointReflectsTheFeed) {
  feed_.begin_campaign("wire-test", 12, 5, 2);
  feed_.point_done("{\"point\":0}");

  const Response response = roundtrip(server_->port(), "GET", "/api/status");
  EXPECT_EQ(response.status, 200);
  const io::Json j = io::Json::parse(response.body);
  EXPECT_EQ(j.at("state").as_string(), "running");
  EXPECT_EQ(j.at("campaign").as_string(), "wire-test");
  EXPECT_DOUBLE_EQ(j.at("total_points").as_double(), 12.0);
  EXPECT_DOUBLE_EQ(j.at("done_points").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(j.at("resumed").as_double(), 2.0);
  EXPECT_TRUE(j.at("workers").as_array().empty());
}

TEST_F(ServerTest, RoutingErrors) {
  EXPECT_EQ(roundtrip(server_->port(), "GET", "/nope").status, 404);
  EXPECT_EQ(roundtrip(server_->port(), "POST", "/api/status").status, 405);
  EXPECT_EQ(roundtrip(server_->port(), "POST", "/api/events").status, 405);
  EXPECT_EQ(roundtrip(server_->port(), "POST", "/api/campaigns").status,
            404);
}

TEST_F(ServerTest, DashboardIsServedAtRoot) {
  const Response response = roundtrip(server_->port(), "GET", "/");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.head.find("text/html"), std::string::npos);
  EXPECT_NE(response.body.find("<!doctype html>"), std::string::npos);
  EXPECT_NE(response.body.find("/api/events"), std::string::npos);
}

TEST_F(ServerTest, MalformedRequestGetsParserStatus) {
  const int fd = connect_to(server_->port());
  ASSERT_GE(fd, 0);
  send_all(fd, "garbage\r\n\r\n");
  const std::string raw = read_to_eof(fd);
  ::close(fd);
  EXPECT_NE(raw.find("400 Bad Request"), std::string::npos);
}

TEST_F(ServerTest, PointsEndpointPagesIncrementally) {
  feed_.begin_campaign("pages", 5, 1, 0);
  for (int i = 0; i < 5; ++i) {
    feed_.point_done("{\"point\":" + std::to_string(i) + "}");
  }

  const Response all = roundtrip(server_->port(), "GET", "/api/points");
  EXPECT_EQ(all.status, 200);
  io::Json j = io::Json::parse(all.body);
  EXPECT_DOUBLE_EQ(j.at("count").as_double(), 5.0);
  EXPECT_DOUBLE_EQ(j.at("next").as_double(), 5.0);
  ASSERT_EQ(j.at("rows").as_array().size(), 5U);
  EXPECT_DOUBLE_EQ(j.at("rows").as_array()[0].at("point").as_double(), 0.0);

  const Response tail =
      roundtrip(server_->port(), "GET", "/api/points?since=3");
  j = io::Json::parse(tail.body);
  EXPECT_DOUBLE_EQ(j.at("count").as_double(), 2.0);
  EXPECT_DOUBLE_EQ(j.at("rows").as_array()[0].at("point").as_double(), 3.0);
}

TEST_F(ServerTest, SseStreamDeliversLiveEventsInOrder) {
  feed_.begin_campaign("sse", 3, 1, 0);  // seq 1, before the client

  const int fd = connect_to(server_->port());
  ASSERT_GE(fd, 0);
  send_all(fd, "GET /api/events HTTP/1.1\r\nHost: x\r\n\r\n");

  // Events published after the subscribe must arrive too.
  feed_.point_done("{\"point\":0}");
  feed_.point_done("{\"point\":1}");
  feed_.end_campaign(false);

  std::string stream;
  std::vector<SseFrame> frames;
  char buf[4096];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (frames.size() < 4 && std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    stream.append(buf, static_cast<std::size_t>(n));
    if (stream.find("\r\n\r\n") != std::string::npos) {
      // Strip the preamble once, then treat the rest as frames.
      EXPECT_NE(stream.find("text/event-stream"), std::string::npos);
      stream.erase(0, stream.find("\r\n\r\n") + 4);
    }
    for (auto& frame : drain_frames(stream)) frames.push_back(frame);
  }
  ::close(fd);

  ASSERT_EQ(frames.size(), 4U);
  EXPECT_EQ(frames[0].event, "campaign");  // ring replay from seq 0
  EXPECT_EQ(frames[1].event, "point");
  EXPECT_EQ(frames[2].event, "point");
  EXPECT_EQ(frames[3].event, "campaign");
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].id, i + 1);
  }
  EXPECT_NE(frames[3].data.find("\"done\""), std::string::npos);
}

TEST_F(ServerTest, LastEventIdResumesAfterTheGivenSeq) {
  feed_.begin_campaign("resume", 3, 1, 0);  // seq 1
  feed_.point_done("{\"point\":0}");           // seq 2
  feed_.point_done("{\"point\":1}");           // seq 3

  const int fd = connect_to(server_->port());
  ASSERT_GE(fd, 0);
  send_all(fd,
           "GET /api/events HTTP/1.1\r\nHost: x\r\nLast-Event-ID: 2\r\n\r\n");
  std::string stream;
  std::vector<SseFrame> frames;
  char buf[4096];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (frames.empty() && std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    stream.append(buf, static_cast<std::size_t>(n));
    const std::size_t head = stream.find("\r\n\r\n");
    if (head != std::string::npos) stream.erase(0, head + 4);
    for (auto& frame : drain_frames(stream)) frames.push_back(frame);
  }
  ::close(fd);

  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames[0].id, 3U);  // replay starts after seq 2
}

// The acceptance soak: 8 concurrent SSE clients while points complete;
// every client must observe every point-completion seq exactly once, in
// order, with monotonic progress counters.
TEST_F(ServerTest, EightClientSoakSeesEveryPointExactlyOnce) {
  constexpr int kClients = 8;
  constexpr int kPoints = 200;

  struct ClientResult {
    std::vector<std::uint64_t> point_seqs;
    std::vector<double> progress_done;
    bool saw_done = false;
  };
  std::vector<ClientResult> results(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c, &results] {
      ClientResult& result = results[c];
      const int fd = connect_to(server_->port());
      if (fd < 0) return;
      send_all(fd, "GET /api/events HTTP/1.1\r\nHost: x\r\n\r\n");
      std::string stream;
      bool preamble_stripped = false;
      char buf[8192];
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (!result.saw_done &&
             std::chrono::steady_clock::now() < deadline) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        stream.append(buf, static_cast<std::size_t>(n));
        if (!preamble_stripped) {
          const std::size_t head = stream.find("\r\n\r\n");
          if (head == std::string::npos) continue;
          stream.erase(0, head + 4);
          preamble_stripped = true;
        }
        for (const auto& frame : drain_frames(stream)) {
          if (frame.event == "point") {
            result.point_seqs.push_back(frame.id);
          } else if (frame.event == "progress") {
            result.progress_done.push_back(
                io::Json::parse(frame.data).at("done").as_double());
          } else if (frame.event == "campaign" &&
                     frame.data.find("\"done\"") != std::string::npos) {
            result.saw_done = true;
            break;
          }
        }
      }
      ::close(fd);
    });
  }

  // Give every client a moment to subscribe, then produce the campaign.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  feed_.begin_campaign("soak", kPoints, 1, 0);
  for (int i = 0; i < kPoints; ++i) {
    feed_.point_done("{\"point\":" + std::to_string(i) + "}");
    feed_.progress_tick(i % 25 == 0);
    if (i % 50 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  feed_.end_campaign(false);
  for (auto& t : clients) t.join();

  // Every client saw the full campaign: each point seq exactly once, in
  // strictly increasing order, and progress counters never went backwards.
  std::vector<std::uint64_t> expected;
  for (const auto& event : feed_.events_since(0, 1 << 16)) {
    if (event.type == "point") expected.push_back(event.seq);
  }
  ASSERT_EQ(expected.size(), static_cast<std::size_t>(kPoints));
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(results[c].saw_done) << "client " << c;
    EXPECT_EQ(results[c].point_seqs, expected) << "client " << c;
    for (std::size_t i = 1; i < results[c].progress_done.size(); ++i) {
      EXPECT_LE(results[c].progress_done[i - 1], results[c].progress_done[i])
          << "client " << c;
    }
  }
}

TEST(ParseListenAddress, HostPortForms) {
  std::string host;
  std::uint16_t port = 0;
  ASSERT_TRUE(parse_listen_address("127.0.0.1:8080", host, port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);

  ASSERT_TRUE(parse_listen_address(":0", host, port));
  EXPECT_EQ(host, "127.0.0.1");  // empty host defaults to loopback
  EXPECT_EQ(port, 0);

  EXPECT_FALSE(parse_listen_address("no-port", host, port));
  EXPECT_FALSE(parse_listen_address("h:99999", host, port));
  EXPECT_FALSE(parse_listen_address("h:abc", host, port));
}

}  // namespace
}  // namespace pas::serve
