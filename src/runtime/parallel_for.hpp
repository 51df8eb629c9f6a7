// A data-parallel helper on top of ThreadPool.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <future>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace pas::runtime {

/// Runs fn(begin, end) on contiguous chunks covering [0, n) across the
/// pool, at most one chunk per worker, blocking until done. Each chunk
/// executes on one worker, so per-chunk state (a world::Workspace and its
/// cached stimulus model) is built once per worker and lives across the
/// whole range without synchronization. Exceptions from any chunk are
/// rethrown (first one wins).
template <typename Fn>
void parallel_for_ranges(ThreadPool& pool, std::size_t n, Fn&& fn) {
  if (n == 0) return;
  const std::size_t workers = pool.thread_count();
  const std::size_t chunk = (n + workers - 1) / workers;
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(n, begin + chunk);
    futures.push_back(
        pool.submit([begin, end, &fn] { fn(begin, end); }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace pas::runtime
