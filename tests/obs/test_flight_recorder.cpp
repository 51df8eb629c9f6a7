#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace pas::obs {
namespace {

TEST(FlightRecorder, KeepsArrivalOrderBelowCapacity) {
  FlightRecorder rec(4);
  rec.note('>', 0, "point 0");
  rec.note('>', 0, "point 1");
  rec.note('<', 0, "point_done 0 <12 bytes>");
  ASSERT_EQ(rec.size(), 3U);
  EXPECT_EQ(rec.noted(), 3U);
  const auto entries = rec.entries();
  EXPECT_EQ(entries[0].line, "point 0");
  EXPECT_EQ(entries[0].direction, '>');
  EXPECT_EQ(entries[2].line, "point_done 0 <12 bytes>");
}

TEST(FlightRecorder, RingWrapKeepsNewestEntries) {
  FlightRecorder rec(3);
  for (int i = 0; i < 10; ++i) {
    rec.note('<', i % 2, "line " + std::to_string(i));
  }
  EXPECT_EQ(rec.size(), 3U);
  EXPECT_EQ(rec.noted(), 10U);
  const auto entries = rec.entries();
  ASSERT_EQ(entries.size(), 3U);
  EXPECT_EQ(entries[0].line, "line 7");
  EXPECT_EQ(entries[1].line, "line 8");
  EXPECT_EQ(entries[2].line, "line 9");
}

TEST(FlightRecorder, DumpRendersWindow) {
  FlightRecorder rec(2);
  rec.note('>', 3, "quit");
  rec.note('<', 3, "fail boom");

  std::string text;
  {
    std::FILE* f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    rec.dump(f);
    std::rewind(f);
    char buf[256];
    while (std::fgets(buf, sizeof(buf), f) != nullptr) text += buf;
    std::fclose(f);
  }
  EXPECT_NE(text.find("flight recorder: last 2 of 2 protocol lines"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("> w3 | quit"), std::string::npos) << text;
  EXPECT_NE(text.find("< w3 | fail boom"), std::string::npos) << text;
}

}  // namespace
}  // namespace pas::obs
