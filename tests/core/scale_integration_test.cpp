#include <gtest/gtest.h>

#include <atomic>
#include <mutex>

#include "core/reader.hpp"
#include "core/restart.hpp"
#include "core/validate.hpp"
#include "core/writer.hpp"
#include "simmpi/runtime.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

/// The largest functional run in the suite: 128 writer ranks through the
/// full pipeline, then readers at several scales — the shape of a real
/// production job, shrunk to thread scale.
TEST(ScaleIntegration, HundredTwentyEightRanksEndToEnd) {
  constexpr int kWriters = 128;
  constexpr std::uint64_t kPerRank = 256;
  const PatchDecomposition decomp(Box3({0, 0, 0}, {8, 4, 4}), {8, 4, 4});
  TempDir dir("spio-scale");

  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {2, 2, 2};  // 16 files of 8 ranks each

  WriteStats job{};
  std::mutex mu;
  simmpi::run(kWriters, [&](simmpi::Comm& comm) {
    const auto local = workload::uniform(
        Schema::uintah(), decomp.patch(comm.rank()), kPerRank,
        stream_seed(128, static_cast<std::uint64_t>(comm.rank())),
        static_cast<std::uint64_t>(comm.rank()) * kPerRank);
    const WriteStats s = write_dataset(comm, decomp, local, cfg);
    std::lock_guard lk(mu);
    job = WriteStats::max_over(job, s);
  });

  EXPECT_EQ(job.files_written, 16);
  EXPECT_EQ(job.particles_written, kWriters * kPerRank);
  EXPECT_TRUE(job.used_aligned_fast_path);

  // Deep validation of all 16 files.
  const auto report = validate_dataset(dir.path(), /*deep=*/true);
  ASSERT_TRUE(report.ok()) << report.errors.front();

  // Post-processing at three very different scales.
  for (const int readers : {3, 16, 64}) {
    const PatchDecomposition rdecomp =
        PatchDecomposition::for_ranks(Box3({0, 0, 0}, {8, 4, 4}), readers);
    std::atomic<std::uint64_t> total{0};
    simmpi::run(readers, [&](simmpi::Comm& comm) {
      total += restart_read(comm, rdecomp, dir.path()).size();
    });
    EXPECT_EQ(total.load(), kWriters * kPerRank) << readers << " readers";
  }
}

/// Mixed-size ranks (including empty ones) at 64 ranks with adaptivity.
TEST(ScaleIntegration, SixtyFourRanksAdaptiveWithEmptyRanks) {
  constexpr int kRanks = 64;
  const PatchDecomposition decomp(Box3::unit(), {4, 4, 4});
  TempDir dir("spio-scale");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {2, 2, 2};
  cfg.adaptive = true;

  std::uint64_t expected = 0;
  for (int r = 0; r < kRanks; ++r) expected += (r % 3 == 0) ? 0 : 100 + r;

  simmpi::run(kRanks, [&](simmpi::Comm& comm) {
    const int r = comm.rank();
    const std::uint64_t n = (r % 3 == 0) ? 0 : 100 + static_cast<std::uint64_t>(r);
    const auto local = workload::uniform(
        Schema::uintah(), decomp.patch(r), n,
        stream_seed(64, static_cast<std::uint64_t>(r)),
        static_cast<std::uint64_t>(r) * 1000);
    write_dataset(comm, decomp, local, cfg);
  });

  const Dataset ds = Dataset::open(dir.path());
  EXPECT_EQ(ds.metadata().total_particles, expected);
  EXPECT_TRUE(validate_dataset(dir.path(), true).ok());
}

}  // namespace
}  // namespace spio
