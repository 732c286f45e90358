#include <gtest/gtest.h>

#include <future>
#include <set>

#include "core/reader.hpp"
#include "core/writer.hpp"
#include "simmpi/runtime.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

/// The runtime and writer hold no global state: several independent SPMD
/// jobs may run concurrently in one process (e.g. a test harness, or an
/// application writing two datasets from two thread pools) without
/// cross-talk.
TEST(ConcurrentJobs, ParallelWritesToDistinctDatasets) {
  constexpr int kJobs = 4;
  constexpr int kRanks = 8;
  constexpr std::uint64_t kPerRank = 400;
  const PatchDecomposition decomp(Box3::unit(), {2, 2, 2});

  std::vector<TempDir> dirs;
  for (int j = 0; j < kJobs; ++j) dirs.emplace_back("spio-conc");

  std::vector<std::future<void>> jobs;
  for (int j = 0; j < kJobs; ++j) {
    jobs.push_back(std::async(std::launch::async, [&, j] {
      WriterConfig cfg;
      cfg.dir = dirs[static_cast<std::size_t>(j)].path();
      cfg.factor = {2, 2, 1};
      simmpi::run(kRanks, [&](simmpi::Comm& comm) {
        const auto local = workload::uniform(
            Schema::uintah(), decomp.patch(comm.rank()), kPerRank,
            stream_seed(static_cast<std::uint64_t>(j),
                        static_cast<std::uint64_t>(comm.rank())),
            static_cast<std::uint64_t>(j) * 1000000 +
                static_cast<std::uint64_t>(comm.rank()) * kPerRank);
        write_dataset(comm, decomp, local, cfg);
      });
    }));
  }
  for (auto& f : jobs) f.get();

  // Every dataset is complete and holds exactly its own job's ids.
  const auto idf = Schema::uintah().index_of("id");
  for (int j = 0; j < kJobs; ++j) {
    const Dataset ds = Dataset::open(dirs[static_cast<std::size_t>(j)].path());
    ASSERT_EQ(ds.metadata().total_particles, kRanks * kPerRank) << "job " << j;
    const auto all = ds.query_box(Box3::unit());
    for (std::size_t i = 0; i < all.size(); ++i) {
      const double id = all.get_f64(i, idf);
      EXPECT_GE(id, j * 1000000.0);
      EXPECT_LT(id, j * 1000000.0 + kRanks * kPerRank);
    }
  }
}

/// Concurrent readers of one dataset are safe (Dataset is immutable).
TEST(ConcurrentJobs, ParallelReadersOfOneDataset) {
  constexpr int kRanks = 8;
  const PatchDecomposition decomp(Box3::unit(), {2, 2, 2});
  TempDir dir("spio-conc-read");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {2, 2, 2};
  simmpi::run(kRanks, [&](simmpi::Comm& comm) {
    const auto local = workload::uniform(
        Schema::uintah(), decomp.patch(comm.rank()), 500,
        stream_seed(4, static_cast<std::uint64_t>(comm.rank())),
        static_cast<std::uint64_t>(comm.rank()) * 500);
    write_dataset(comm, decomp, local, cfg);
  });

  std::vector<std::future<std::uint64_t>> readers;
  for (int t = 0; t < 6; ++t) {
    readers.push_back(std::async(std::launch::async, [&, t] {
      const Dataset ds = Dataset::open(dir.path());
      const Box3 tile =
          PatchDecomposition::for_ranks(ds.metadata().domain, 3).patch(t % 3);
      return static_cast<std::uint64_t>(ds.query_box(tile).size());
    }));
  }
  std::uint64_t counts[3] = {0, 0, 0};
  for (int t = 0; t < 6; ++t) {
    const std::uint64_t n = readers[static_cast<std::size_t>(t)].get();
    if (counts[t % 3] == 0) {
      counts[t % 3] = n;
    } else {
      EXPECT_EQ(counts[t % 3], n);  // identical answers across threads
    }
  }
  EXPECT_EQ(counts[0] + counts[1] + counts[2], 8u * 500u);
}

}  // namespace
}  // namespace spio
