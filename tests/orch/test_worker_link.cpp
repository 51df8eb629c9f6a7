// Protocol parsing: strict acceptance of well-formed lines, rejection of
// malformed heartbeats/commands, and format↔parse round trips.
#include "orch/worker_link.hpp"

#include <gtest/gtest.h>

namespace pas::orch {
namespace {

TEST(WorkerProtocol, ParsesWellFormedWorkerLines) {
  const auto hello = parse_worker_line("hello 3");
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->kind, WorkerMsg::Kind::kHello);
  EXPECT_EQ(hello->worker, 3);

  const auto hb = parse_worker_line("hb");
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(hb->kind, WorkerMsg::Kind::kHeartbeat);

  const auto done = parse_worker_line("point_done 42 00ff7a");
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->kind, WorkerMsg::Kind::kPointDone);
  EXPECT_EQ(done->point, 42U);
  EXPECT_EQ(done->rows, std::string("\x00\xff\x7a", 3));

  const auto fail = parse_worker_line("fail cannot open out.csv: EACCES");
  ASSERT_TRUE(fail.has_value());
  EXPECT_EQ(fail->kind, WorkerMsg::Kind::kFail);
  EXPECT_EQ(fail->message, "cannot open out.csv: EACCES");

  // The fail message is free text — odd spacing must not demote a real
  // error report to a protocol violation.
  const auto spaced = parse_worker_line("fail two  spaces   here");
  ASSERT_TRUE(spaced.has_value());
  EXPECT_EQ(spaced->message, "two  spaces   here");
}

TEST(WorkerProtocol, RejectsMalformedWorkerLines) {
  // Malformed heartbeats: the driver treats any of these as a crashed
  // worker — guessing at a corrupt stream could mis-credit points.
  EXPECT_FALSE(parse_worker_line("hb 12").has_value());
  EXPECT_FALSE(parse_worker_line("hb  ").has_value());
  EXPECT_FALSE(parse_worker_line(" hb").has_value());
  EXPECT_FALSE(parse_worker_line("HB").has_value());

  EXPECT_FALSE(parse_worker_line("").has_value());
  EXPECT_FALSE(parse_worker_line("point_done").has_value());
  EXPECT_FALSE(parse_worker_line("point_done abc 00").has_value());
  EXPECT_FALSE(parse_worker_line("point_done -3 00").has_value());
  EXPECT_FALSE(parse_worker_line("point_done 1.5 00").has_value());
  // The rows payload: present, even-length, lower-case hex, last token.
  EXPECT_FALSE(parse_worker_line("point_done 1").has_value());
  EXPECT_FALSE(parse_worker_line("point_done 1 ").has_value());
  EXPECT_FALSE(parse_worker_line("point_done 1 abc").has_value());
  EXPECT_FALSE(parse_worker_line("point_done 1 00FF").has_value());
  EXPECT_FALSE(parse_worker_line("point_done 1 0g").has_value());
  EXPECT_FALSE(parse_worker_line("point_done 1 00 11").has_value());
  EXPECT_FALSE(parse_worker_line("point_done 1 00\r").has_value());
  // Driver commands are not worker lines.
  EXPECT_FALSE(parse_worker_line("point 7").has_value());
  EXPECT_FALSE(parse_worker_line("hello").has_value());
  EXPECT_FALSE(parse_worker_line("hello 1 0").has_value());
  EXPECT_FALSE(parse_worker_line("hello -1").has_value());
  EXPECT_FALSE(parse_worker_line("hello x").has_value());
  EXPECT_FALSE(parse_worker_line("fail").has_value());  // needs a message
  EXPECT_FALSE(parse_worker_line("restart 1").has_value());
}

TEST(WorkerProtocol, ParsesWellFormedDriverLines) {
  const auto point = parse_driver_line("point 12");
  ASSERT_TRUE(point.has_value());
  EXPECT_EQ(point->kind, DriverCmd::Kind::kPoint);
  EXPECT_EQ(point->point, 12U);

  const auto quit = parse_driver_line("quit");
  ASSERT_TRUE(quit.has_value());
  EXPECT_EQ(quit->kind, DriverCmd::Kind::kQuit);
}

TEST(WorkerProtocol, RejectsMalformedDriverLines) {
  EXPECT_FALSE(parse_driver_line("").has_value());
  EXPECT_FALSE(parse_driver_line("point").has_value());  // bare keyword
  EXPECT_FALSE(parse_driver_line("point x").has_value());
  EXPECT_FALSE(parse_driver_line("point -1").has_value());
  EXPECT_FALSE(parse_driver_line("point 9 1").has_value());  // extra token
  EXPECT_FALSE(parse_driver_line("point  9").has_value());   // double space
  EXPECT_FALSE(parse_driver_line("point 9 ").has_value());
  EXPECT_FALSE(parse_driver_line("quit 1").has_value());
  EXPECT_FALSE(parse_driver_line("hb").has_value());  // a worker line
}

TEST(WorkerProtocol, FormatAndParseRoundTrip) {
  const auto hello = parse_worker_line(format_hello(5));
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->worker, 5);

  EXPECT_TRUE(parse_worker_line(format_heartbeat()).has_value());

  // Every byte value survives the hex payload.
  std::string rows;
  for (int b = 0; b < 256; ++b) rows.push_back(static_cast<char>(b));
  const std::string line = format_point_done(107, rows);
  EXPECT_EQ(line.substr(0, 17), "point_done 107 00");
  const auto done = parse_worker_line(line);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->point, 107U);
  EXPECT_EQ(done->rows, rows);

  EXPECT_EQ(format_point(8), "point 8");
  const auto point = parse_driver_line(format_point(8));
  ASSERT_TRUE(point.has_value());
  EXPECT_EQ(point->kind, DriverCmd::Kind::kPoint);
  EXPECT_EQ(point->point, 8U);

  EXPECT_TRUE(parse_driver_line(format_quit()).has_value());

  // fail messages survive embedded newlines by flattening — the protocol
  // stays line-oriented whatever e.what() contains.
  const auto fail = parse_worker_line(format_fail("multi\nline\rerror"));
  ASSERT_TRUE(fail.has_value());
  EXPECT_EQ(fail->message, "multi line error");
}

}  // namespace
}  // namespace pas::orch
