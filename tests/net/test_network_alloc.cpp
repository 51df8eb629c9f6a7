// Allocation regression test for the mac-off broadcast path: once a Network
// and its Simulator are warm, broadcasting and dispatching the deliveries
// must not touch the heap. This is what keeps the kernel's "allocation-free
// hot path" true for the most common event of a protocol run — a payload
// that grows past sim::SmallFn's inline buffer shows up here as one
// allocation per broadcast.
//
// The replacement operators below are global to this test binary, but they
// count only while a test sets t_counting. Every unaligned form is replaced
// so that each allocation and its release go through the same pair
// (libstdc++'s nothrow new, for one, would otherwise come from elsewhere and
// be freed here, which AddressSanitizer reports as a mismatch).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "net/network.hpp"

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;

void* counted_malloc(std::size_t size) noexcept {
  if (t_counting) ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pas::net {
namespace {

TEST(NetworkAllocation, WarmBroadcastsAllocateNothing) {
  // 30 nodes on a 6 x 5 lattice with 6 m pitch: the 10 m radio reaches up
  // to 8 neighbors, the paper field's density.
  std::vector<geom::Vec2> positions;
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 6; ++c) positions.push_back({6.0 * c, 6.0 * r});
  }
  sim::Simulator simulator;
  const sim::SeedSequence seeds(3);
  Network network(simulator, positions, RadioConfig{},
                  std::make_shared<PerfectChannel>(), seeds);
  std::size_t received = 0;
  std::size_t tx_bits = 0;
  for (std::uint32_t i = 0; i < network.size(); ++i) {
    network.set_rx_handler(i, [&received](const Message&) { ++received; });
  }
  network.set_tx_hook(
      [&tx_bits](std::uint32_t, std::size_t bits) { tx_bits += bits; });
  Message response;
  response.payload = ResponsePayload{};
  const auto broadcast_and_run = [&](std::uint32_t k) {
    network.broadcast(k % 30, k % 2 == 0 ? Message{} : response);
    simulator.run();
  };

  for (std::uint32_t k = 0; k < 30; ++k) broadcast_and_run(k);  // warm-up
  received = 0;

  t_allocations = 0;
  t_counting = true;
  for (std::uint32_t k = 0; k < 100; ++k) broadcast_and_run(k);
  t_counting = false;

  EXPECT_EQ(t_allocations, 0U);
  EXPECT_GT(received, 100U * 3);  // the fan-out really ran
  EXPECT_GT(tx_bits, 0U);
}

}  // namespace
}  // namespace pas::net
