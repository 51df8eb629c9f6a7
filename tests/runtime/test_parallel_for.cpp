#include "runtime/parallel_for.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

namespace pas::runtime {
namespace {

TEST(ParallelForRanges, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t n : {1U, 3U, 1001U}) {
    std::vector<std::atomic<int>> hits(n);
    std::atomic<std::size_t> chunks{0};
    parallel_for_ranges(pool, n, [&](std::size_t begin, std::size_t end) {
      ++chunks;
      for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "n " << n;
    // At most one chunk per worker, so per-chunk state is built once each.
    EXPECT_EQ(chunks.load(), std::min<std::size_t>(n, 4)) << "n " << n;
  }
}

TEST(ParallelForRanges, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for_ranges(pool, 0,
                      [&](std::size_t, std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelForRanges, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for_ranges(pool, 100,
                                   [](std::size_t begin, std::size_t end) {
                                     if (begin <= 37 && 37 < end) {
                                       throw std::runtime_error("bad index");
                                     }
                                   }),
               std::runtime_error);
}

}  // namespace
}  // namespace pas::runtime
