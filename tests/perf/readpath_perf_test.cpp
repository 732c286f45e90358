/// \file readpath_perf_test.cpp
/// Perf smoke tests for the read engine and the query planner (ctest
/// label `perf`). Like hotpath_perf_test.cpp the kernel bars sit several
/// times below what an idle machine measures, so they trip only on a
/// genuine re-pessimization. One floor is exact rather than generous: a
/// warm-cache query must not open a single file — that is a semantic
/// property of the buffer cache, not a timing.

#include <gtest/gtest.h>

#include <time.h>

#include <chrono>
#include <functional>
#include <utility>

#include "core/query_plan/kd_tree.hpp"
#include "core/read_engine.hpp"
#include "core/reader.hpp"
#include "core/writer.hpp"
#include "simd/kernels.hpp"
#include "simd/position_mirror.hpp"
#include "simd/simd_level.hpp"
#include "simmpi/runtime.hpp"
#include "util/rng.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double best_seconds(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) best = std::min(best, seconds_of(fn));
  return best;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Best thread-CPU times of `reps` alternating runs of `a` and `b`. A
/// ratio floor compares the two kernels, both run on this one thread, so
/// its CPU time is their cost and other work on the host does not count;
/// alternating also spreads cache and frequency effects over both sides.
std::pair<double, double> best_interleaved(int reps,
                                           const std::function<void()>& a,
                                           const std::function<void()>& b) {
  const auto cpu_seconds_of = [](const std::function<void()>& fn) {
    const double t0 = thread_cpu_seconds();
    fn();
    return thread_cpu_seconds() - t0;
  };
  double best_a = 1e300, best_b = 1e300;
  for (int r = 0; r < reps; ++r) {
    best_a = std::min(best_a, cpu_seconds_of(a));
    best_b = std::min(best_b, cpu_seconds_of(b));
  }
  return {best_a, best_b};
}

TEST(ReadpathPerf, WarmCacheQueryOpensZeroFiles) {
  TempDir dir("spio-readperf");
  const PatchDecomposition decomp =
      PatchDecomposition::for_ranks(Box3::unit(), 8);
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {1, 1, 1};  // one file per patch: the query spans 8 files
  simmpi::run(8, [&](simmpi::Comm& comm) {
    const auto local = workload::uniform(
        Schema::uintah(), decomp.patch(comm.rank()), 2000,
        stream_seed(55, static_cast<std::uint64_t>(comm.rank())),
        static_cast<std::uint64_t>(comm.rank()) * 2000);
    write_dataset(comm, decomp, local, cfg);
  });

  ReadEngine& eng = ReadEngine::instance();
  const std::uint64_t prev_budget = eng.cache_budget();
  eng.set_cache_budget(256ull << 20);
  eng.clear_cache();

  const Dataset ds = Dataset::open(dir.path());
  const Box3 box({0.1, 0.1, 0.1}, {0.9, 0.9, 0.9});
  ds.query_box(box);  // prime

  ReadStats warm;
  const ParticleBuffer out = ds.query_box(box, -1, 1, &warm);
  EXPECT_GT(out.size(), 0u);
  EXPECT_EQ(warm.files_opened, 0) << "warm-cache query touched disk";
  EXPECT_EQ(warm.bytes_read, 0u);
  EXPECT_GT(warm.cache_hits, 0u);

  eng.set_cache_budget(prev_budget);
}

TEST(ReadpathPerf, FusedFilterBoxSustainsTwoMillionParticlesPerSecond) {
  constexpr std::uint64_t kParticles = 500000;
  const auto buf = workload::uniform(Schema::uintah(), Box3::unit(),
                                     kParticles, stream_seed(56, 0), 0);
  const Box3 half({0, 0, 0}, {0.5, 1, 1});

  ParticleBuffer out(Schema::uintah());
  const double s = best_seconds(3, [&] {
    out.clear();
    const auto n =
        read_detail::filter_box(buf.bytes(), buf.schema(), half, out);
    ASSERT_GT(n, 0u);
  });

  const double mpps = static_cast<double>(kParticles) / 1e6 / s;
  EXPECT_GE(mpps, 2.0) << "fused filter_box dropped to " << mpps
                       << " Mparticles/s; the run-copy kernel sustains "
                          "several times this";
}

/// The SIMD floors on 1M Uintah-schema particles, in thread CPU time.
/// On a scan-bound query (~2.7% selectivity, where the predicate — not
/// the copy — dominates) the SIMD filter kernel is held to ≥2× the fused
/// scalar kernel. On a copy-bound one (~50%: LOD order leaves kept
/// records scattered, one-record runs) it must at least match fused,
/// which the branchless index compaction does (measured ~1.4×). The
/// `*_reference` kernels are byte-identity oracles, not speed
/// baselines, so no bar is held against them. Skipped — loudly — when
/// dispatch is scalar (non-x86 build or `SPIO_SIMD=off`): there is no
/// SIMD path to hold to a floor.
TEST(ReadpathPerf, SimdKernelsBeatFusedScalarFloors) {
  if (simd::active_level() == simd::Level::kScalar) {
    GTEST_SKIP() << "SIMD dispatch is scalar on this host (detected="
                 << simd::level_name(simd::detected_level())
                 << ", active=scalar — SPIO_SIMD cap or non-x86 build); "
                    "no vector floor to enforce";
  }
  constexpr std::uint64_t kParticles = 1000000;
  const Schema schema = Schema::uintah();
  const auto buf = workload::uniform(schema, Box3::unit(), kParticles,
                                     stream_seed(57, 0), 0);
  const auto mirror = PositionMirror::build(
      buf.bytes(), schema.record_size(), schema.offset(0));
  struct Floor {
    const char* regime;
    Box3 box;
    double bar;  // SIMD must be at least this many times fused
  };
  for (const Floor& f :
       {Floor{"scan-bound 2.7%", Box3({0, 0, 0}, {0.3, 0.3, 0.3}), 2.0},
        Floor{"copy-bound 50%", Box3({0, 0, 0}, {0.5, 1, 1}), 1.0}}) {
    ParticleBuffer out(schema);
    const auto [scalar_s, simd_s] = best_interleaved(
        9,
        [&] {
          out.clear();
          ASSERT_GT(read_detail::filter_box(buf.bytes(), schema, f.box, out),
                    0u);
        },
        [&] {
          out.clear();
          std::uint64_t kept = 0;
          ASSERT_TRUE(simd::filter_box(*mirror, buf.bytes(),
                                       schema.record_size(), schema.offset(0), f.box, out,
                                       &kept));
          ASSERT_GT(kept, 0u);
        });
    EXPECT_GE(scalar_s, f.bar * simd_s)
        << f.regime << ": simd filter_box ("
        << simd::level_name(simd::active_level()) << ") only "
        << scalar_s / simd_s << "x over fused scalar, bar " << f.bar << "x";
  }
}

/// The k-d descent must plan at least 10× faster than the linear bbox
/// scan it replaced (the pre-tree planner) at 10k partitions, where
/// real simulation checkpoints live: 64 ~5%-per-axis query boxes
/// against a 10k-patch grid, the same batch through both planners.
/// Measured ~20× on a 4-vCPU AVX2 Xeon guest; a planner that degrades to
/// a linear scan sits at ~1×. Each planner runs its reps back to back:
/// alternating them would hand the tree caches the scan just flushed.
TEST(ReadpathPerf, KdPlanningBeatsLinearScanTenfoldAtTenThousandPartitions) {
  constexpr int kPartitions = 10000;
  constexpr int kQueries = 64;
  const PatchDecomposition grid =
      PatchDecomposition::for_ranks(Box3::unit(), kPartitions);
  std::vector<Box3> boxes;
  boxes.reserve(kPartitions);
  for (int i = 0; i < kPartitions; ++i) boxes.push_back(grid.patch(i));
  const BoxKdTree tree = BoxKdTree::build(boxes);

  Xoshiro256 rng(stream_seed(31, 0));
  std::vector<Box3> queries;
  for (int q = 0; q < kQueries; ++q) {
    const Vec3d lo{rng.uniform(0.0, 0.95), rng.uniform(0.0, 0.95),
                   rng.uniform(0.0, 0.95)};
    queries.push_back(Box3(lo, {lo.x + 0.05, lo.y + 0.05, lo.z + 0.05}));
  }
  std::size_t kd_hits = 0, linear_hits = 0;
  const double kd_s = best_seconds(20, [&] {
    kd_hits = 0;
    for (const Box3& q : queries) kd_hits += tree.query(q).size();
  });
  const double linear_s = best_seconds(20, [&] {
    linear_hits = 0;
    for (const Box3& q : queries)
      for (const Box3& b : boxes) linear_hits += b.overlaps(q) ? 1 : 0;
  });
  ASSERT_GT(kd_hits, 0u);
  ASSERT_EQ(kd_hits, linear_hits);
  EXPECT_GE(linear_s, 10.0 * kd_s)
      << "k-d planning only " << linear_s / kd_s
      << "x over the linear bbox scan at " << kPartitions << " partitions";
}

}  // namespace
}  // namespace spio
