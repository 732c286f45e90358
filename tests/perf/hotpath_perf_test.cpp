/// \file hotpath_perf_test.cpp
/// Perf smoke tests (ctest label `perf`): floor thresholds for the write
/// pipeline's optimized kernels. The bars are deliberately generous —
/// several times below what an idle laptop-class machine measures — so
/// they only trip on a real regression (an accidental re-pessimization
/// of a hot loop), not on machine noise. End-to-end write throughput is
/// measured by perfbench's `checkpoint` workload (perfbench/README.md).

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <vector>

#include "core/writer.hpp"
#include "simd/simd_level.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Best of `reps` timed runs — perf floors compare the machine's best
/// effort, not a run that lost its timeslice.
double best_seconds(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) best = std::min(best, seconds_of(fn));
  return best;
}

TEST(HotpathPerf, Crc64SustainsAGigabytePerSecond) {
  constexpr std::size_t kBytes = 64ull << 20;
  std::vector<std::byte> buf(kBytes);
  Xoshiro256 rng(7);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next());

  volatile std::uint64_t sink = 0;
  const double s = best_seconds(3, [&] { sink = sink ^ crc64(buf); });

  const double gbs = static_cast<double>(kBytes) / 1e9 / s;
  EXPECT_GE(gbs, 1.0) << "crc64 dropped to " << gbs
                      << " GB/s on a 64 MiB buffer; the sliced kernel "
                         "sustains well over 1 GB/s";
}

TEST(HotpathPerf, CarrylessCrc64BeatsThePortableTierThreefold) {
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
  if (!__builtin_cpu_supports("pclmul")) GTEST_SKIP() << "no PCLMULQDQ";
#else
  GTEST_SKIP() << "no PCLMULQDQ";
#endif
  // The writer's shape: cache-hot chunks of kIoChunk bytes.
  std::vector<std::byte> chunk(kIoChunk);
  Xoshiro256 rng(9);
  for (auto& b : chunk) b = static_cast<std::byte>(rng.next());
  volatile std::uint64_t sink = 0;
  const auto fifty_chunks = [&] {
    for (int i = 0; i < 50; ++i) sink = sink ^ crc64(chunk);
  };

  const double dispatched = best_seconds(5, fifty_chunks);
  double portable = 0;
  {
    simd::ScopedLevelCap cap(simd::Level::kScalar);
    portable = best_seconds(5, fifty_chunks);
  }
  EXPECT_GE(portable / dispatched, 3.0)
      << "carry-less crc64 is only " << portable / dispatched
      << "x the slicing-by-16 tier on hot 1 MiB chunks ("
      << dispatched * 1e3 << " ms vs " << portable * 1e3
      << " ms for 50); it folds several times faster";
}

TEST(HotpathPerf, GeneralPathBinningSustainsTwoMillionParticlesPerSecond) {
  constexpr std::uint64_t kParticles = 500000;
  const auto decomp = PatchDecomposition::for_ranks(Box3::unit(), 64);
  const auto plan = AggregationPlan::non_adaptive(
      decomp, {1, 1, 1}, AggregatorPlacement::kUniform);
  // Domain-wide particles: every partition gets a share, the binning
  // worst case.
  const auto local = workload::uniform(Schema::uintah(), Box3::unit(),
                                       kParticles, stream_seed(11, 0), 0);

  const double s = best_seconds(3, [&] {
    const auto bins = writer_detail::bin_particles(local, plan, false);
    ASSERT_GT(bins.bin_count(), 0u);
  });

  const double mpps = static_cast<double>(kParticles) / 1e6 / s;
  EXPECT_GE(mpps, 2.0) << "general-path binning dropped to " << mpps
                       << " Mparticles/s; the two-pass scatter sustains "
                          "several times this";
}

}  // namespace
}  // namespace spio
