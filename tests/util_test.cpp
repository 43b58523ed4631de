// Unit tests for util: RNG determinism/distributions, units, table printer,
// SmallFunction callbacks, ring buffer.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <deque>
#include <memory>
#include <sstream>
#include <vector>

#include "util/arena.hpp"
#include "util/function.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace qperc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng parent(99);
  Rng child1 = parent.fork(std::uint64_t{7});
  parent.next_u64();  // consuming the parent must not change forks
  // fork() is const and keyed on state; same state+tag gives the same child,
  // so re-fork from a copy made before consumption.
  Rng parent2(99);
  Rng child2 = parent2.fork(std::uint64_t{7});
  for (int i = 0; i < 20; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(Rng, ForksWithDifferentTagsDecorrelated) {
  Rng parent(5);
  Rng a = parent.fork(std::uint64_t{1});
  Rng b = parent.fork(std::uint64_t{2});
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, StringForkMatchesHashFork) {
  Rng parent(5);
  Rng a = parent.fork("uplink-loss");
  Rng b = parent.fork(fnv1a("uplink-loss"));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(42);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(42);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.4);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(42);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(42);
  for (const double lambda : {0.3, 2.0, 15.0, 80.0}) {
    double sum = 0.0;
    constexpr int kN = 5000;
    for (int i = 0; i < kN; ++i) sum += static_cast<double>(rng.poisson(lambda));
    EXPECT_NEAR(sum / kN, lambda, std::max(0.1, lambda * 0.08)) << lambda;
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(42);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / kN, 4.0, 0.15);
}

TEST(Units, TransmissionTime) {
  const auto rate = DataRate::megabits_per_second(8.0);  // 1 MB/s
  EXPECT_EQ(rate.transmission_time(1'000'000), seconds(1));
  EXPECT_EQ(rate.transmission_time(500'000), milliseconds(500));
}

TEST(Units, BytesIn) {
  const auto rate = DataRate::megabits_per_second(8.0);
  EXPECT_EQ(rate.bytes_in(seconds(2)), 2'000'000u);
}

TEST(Units, BdpBytes) {
  // 25 Mbps x 24 ms = 75 kB (the DSL BDP from Table 2).
  EXPECT_EQ(bdp_bytes(DataRate::megabits_per_second(25.0), milliseconds(24)), 75'000u);
}

TEST(Units, FromBytesAndDuration) {
  const auto rate = DataRate::from_bytes_and_duration(1'000'000, seconds(1));
  EXPECT_EQ(rate.bps(), 8'000'000u);
  EXPECT_EQ(DataRate::from_bytes_and_duration(100, SimDuration::zero()).bps(), 0u);
}

TEST(Units, ZeroRateHasInfiniteTransmissionTime) {
  EXPECT_EQ(DataRate().transmission_time(1), SimDuration::max());
}

TEST(Time, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(milliseconds(1500)), 1.5);
  EXPECT_DOUBLE_EQ(to_millis(seconds(2)), 2000.0);
  EXPECT_EQ(from_seconds(0.001), milliseconds(1));
}

TEST(Table, AlignsColumnsAndRendersCsv) {
  TextTable table({"a", "bbbb"});
  table.add_row({"1", "2"});
  table.add_rule();
  table.add_row({"333", "4"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("333"), std::string::npos);
  std::ostringstream csv;
  table.print_csv(csv);
  EXPECT_EQ(csv.str(), "a,bbbb\n1,2\n333,4\n");
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.1234, 1), "12.3%");
  EXPECT_EQ(fmt_ms(24.0), "24 ms");
}

TEST(SmallFunction, InvokesInlineCallable) {
  int hits = 0;
  SmallFunction<void()> fn([&hits] { ++hits; });
  ASSERT_TRUE(fn);
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFunction, EmptyAndNullptrStates) {
  SmallFunction<void()> fn;
  EXPECT_FALSE(fn);
  EXPECT_TRUE(fn == nullptr);
  fn = [] {};
  EXPECT_TRUE(fn);
  EXPECT_TRUE(fn != nullptr);
  fn = nullptr;
  EXPECT_FALSE(fn);
}

TEST(SmallFunction, MoveTransfersOwnership) {
  int hits = 0;
  SmallFunction<void()> a([&hits] { ++hits; });
  SmallFunction<void()> b(std::move(a));
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty by contract
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(hits, 1);
}

TEST(SmallFunction, SupportsMoveOnlyCaptures) {
  auto owned = std::make_unique<int>(41);
  SmallFunction<int()> fn([owned = std::move(owned)] { return *owned + 1; });
  EXPECT_EQ(fn(), 42);
}

TEST(SmallFunction, LargeCapturesFallBackToHeap) {
  std::array<std::uint64_t, 32> big{};  // 256 bytes, well past the inline buffer
  big[0] = 7;
  big[31] = 35;
  SmallFunction<std::uint64_t()> fn([big] { return big[0] + big[31]; });
  EXPECT_EQ(fn(), 42u);
  SmallFunction<std::uint64_t()> moved(std::move(fn));
  EXPECT_EQ(moved(), 42u);
}

TEST(SmallFunction, PassesArgumentsAndReturnsValues) {
  SmallFunction<int(int, int)> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(20, 22), 42);
}

TEST(RingBuffer, FifoOrderAcrossGrowth) {
  RingBuffer<int> buffer;
  for (int i = 0; i < 100; ++i) buffer.push_back(i);
  EXPECT_EQ(buffer.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(buffer.pop_front(), i);
  EXPECT_TRUE(buffer.empty());
}

TEST(RingBuffer, WrapsAroundWithoutReordering) {
  RingBuffer<int> buffer;
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so head/tail wrap the slab repeatedly.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 7; ++i) buffer.push_back(next_in++);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(buffer.pop_front(), next_out++);
  }
  while (!buffer.empty()) EXPECT_EQ(buffer.pop_front(), next_out++);
  EXPECT_EQ(next_in, next_out);
}

TEST(RingBuffer, ClearEmptiesAndStaysUsable) {
  RingBuffer<std::unique_ptr<int>> buffer;
  buffer.push_back(std::make_unique<int>(1));
  buffer.push_back(std::make_unique<int>(2));
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
  buffer.push_back(std::make_unique<int>(3));
  EXPECT_EQ(*buffer.front(), 3);
  EXPECT_EQ(*buffer.pop_front(), 3);
}

TEST(ArenaRing, IndexesFromTheFrontAcrossWrapAndGrowth) {
  // Interleaved appends and front pops wrap the slab repeatedly and force
  // growth while wrapped; a std::deque is the reference.
  Arena arena;
  ArenaRing<int> ring;
  std::deque<int> reference;
  int next = 0;
  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < 5 + round % 7; ++i) {
      EXPECT_EQ(ring.push_back(arena, next), next);
      reference.push_back(next++);
    }
    for (int i = 0; i < 4 && !reference.empty(); ++i) {
      ring.pop_front();
      reference.pop_front();
    }
    ASSERT_EQ(ring.size(), reference.size());
    for (std::uint32_t i = 0; i < ring.size(); ++i) ASSERT_EQ(ring[i], reference[i]);
    ASSERT_EQ(ring.front(), reference.front());
    ASSERT_EQ(ring.back(), reference.back());
  }
}

TEST(ArenaVec, InsertAndEraseShiftTheTail) {
  Arena arena;
  ArenaVec<int> vec;
  std::vector<int> reference;
  for (int i = 0; i < 40; ++i) {
    const auto pos = static_cast<std::uint32_t>((i * 7) % (reference.size() + 1));
    EXPECT_EQ(vec.insert(arena, pos, i), i);
    reference.insert(reference.begin() + pos, i);
    if (i % 3 == 2) {
      const auto gone = static_cast<std::uint32_t>((i * 5) % reference.size());
      vec.erase(gone);
      reference.erase(reference.begin() + gone);
    }
    ASSERT_EQ(std::vector<int>(vec.begin(), vec.end()), reference);
  }
}

}  // namespace
}  // namespace qperc
