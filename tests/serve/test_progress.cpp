// Formatting of the --progress status lines (shared by drive and
// single-process mode). Pure string functions, tested exactly.
#include <gtest/gtest.h>

#include "serve/feed.hpp"

namespace pas::serve {
namespace {

TEST(ProgressLine, FormatsRateAndEta) {
  // 10 of 40 points done, 8 computed this invocation at 2 reps each over
  // 4 s => 4 reps/s; 30 points * 2 reps / 4 reps/s => ETA 15 s.
  EXPECT_EQ(progress_line(10, 40, 8, 2, 4.0),
            "progress: 10/40 points (25%) | 4.0 reps/s | ETA 15s");
}

TEST(ProgressLine, ZeroElapsedDoesNotDivide) {
  EXPECT_EQ(progress_line(0, 10, 0, 3, 0.0),
            "progress: 0/10 points (0%) | 0.0 reps/s | ETA 0s");
}

TEST(ProgressLine, CompleteCampaign) {
  EXPECT_EQ(progress_line(6, 6, 6, 2, 6.0),
            "progress: 6/6 points (100%) | 2.0 reps/s | ETA 0s");
}

// "pts leased" counts the worker's points in flight (at most two).
TEST(WorkerStatusLine, LeasedWorker) {
  EXPECT_EQ(worker_status_line(3, true, 2, 12, 0.42),
            "  worker 3: 2 pts leased | 12 done | last line 0.4s ago");
}

TEST(WorkerStatusLine, IdleWorker) {
  EXPECT_EQ(worker_status_line(0, false, 0, 7, 61.0),
            "  worker 0: idle | 7 done | last line 61.0s ago");
}

}  // namespace
}  // namespace pas::serve
