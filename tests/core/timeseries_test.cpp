#include "core/timeseries.hpp"

#include <gtest/gtest.h>

#include "core/reader.hpp"
#include "simmpi/runtime.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

constexpr int kRanks = 8;
constexpr std::uint64_t kPerRank = 100;

const PatchDecomposition& decomp() {
  static const PatchDecomposition d(Box3::unit(), {2, 2, 2});
  return d;
}

void write_step_n(const std::filesystem::path& base, int step) {
  simmpi::run(kRanks, [&](simmpi::Comm& comm) {
    const auto local = workload::uniform(
        Schema::uintah(), decomp().patch(comm.rank()), kPerRank,
        stream_seed(static_cast<std::uint64_t>(step),
                    static_cast<std::uint64_t>(comm.rank())),
        static_cast<std::uint64_t>(step) * 100000 +
            static_cast<std::uint64_t>(comm.rank()) * kPerRank);
    WriterConfig cfg;
    cfg.factor = {2, 2, 2};
    TimeSeries::write_step(comm, decomp(), local, base, step, cfg);
  });
}

TEST(TimeSeries, StepsAccumulateInOrder) {
  TempDir dir("spio-series");
  write_step_n(dir.path(), 0);
  write_step_n(dir.path(), 10);
  write_step_n(dir.path(), 5);  // out-of-order write

  const TimeSeries series = TimeSeries::open(dir.path());
  EXPECT_EQ(series.steps(), (std::vector<int>{0, 5, 10}));
}

TEST(TimeSeries, EachStepIsACompleteDataset) {
  TempDir dir("spio-series");
  write_step_n(dir.path(), 1);
  write_step_n(dir.path(), 2);
  const TimeSeries series = TimeSeries::open(dir.path());
  for (const int step : series.steps()) {
    const Dataset ds = Dataset::open(TimeSeries::step_dir(dir.path(), step));
    EXPECT_EQ(ds.metadata().total_particles, kRanks * kPerRank);
    EXPECT_EQ(ds.query_box(ds.metadata().domain).size(), kRanks * kPerRank);
  }
}

TEST(TimeSeries, StepsHoldDistinctData) {
  TempDir dir("spio-series");
  write_step_n(dir.path(), 1);
  write_step_n(dir.path(), 2);
  const auto idf = Schema::uintah().index_of("id");
  const auto p1 = Dataset::open(TimeSeries::step_dir(dir.path(), 1))
                      .query_box(Box3::unit());
  const auto p2 = Dataset::open(TimeSeries::step_dir(dir.path(), 2))
                      .query_box(Box3::unit());
  // Step-tagged ids do not overlap.
  double max1 = 0, min2 = 1e300;
  for (std::size_t i = 0; i < p1.size(); ++i)
    max1 = std::max(max1, p1.get_f64(i, idf));
  for (std::size_t i = 0; i < p2.size(); ++i)
    min2 = std::min(min2, p2.get_f64(i, idf));
  EXPECT_LT(max1, min2);
}

TEST(TimeSeries, RewritingAStepReplacesIt) {
  TempDir dir("spio-series");
  write_step_n(dir.path(), 3);
  write_step_n(dir.path(), 3);
  const TimeSeries series = TimeSeries::open(dir.path());
  EXPECT_EQ(series.steps(), std::vector<int>{3});
  EXPECT_EQ(Dataset::open(TimeSeries::step_dir(dir.path(), 3))
                .metadata()
                .total_particles,
            kRanks * kPerRank);
}

TEST(TimeSeries, OpenWithoutIndexRejected) {
  TempDir dir("spio-series-none");
  EXPECT_THROW(TimeSeries::open(dir.path()), IoError);
}

TEST(TimeSeries, NegativeStepRejected) {
  TempDir dir("spio-series");
  EXPECT_THROW(
      simmpi::run(kRanks,
                  [&](simmpi::Comm& comm) {
                    ParticleBuffer empty(Schema::uintah());
                    WriterConfig cfg;
                    TimeSeries::write_step(comm, decomp(), empty,
                                           dir.path(), -1, cfg);
                  }),
      ConfigError);
}

TEST(TimeSeries, StepDirNamingIsPadded) {
  EXPECT_EQ(TimeSeries::step_dir("/base", 7).filename(), "step_000007");
  EXPECT_EQ(TimeSeries::step_dir("/base", 123456).filename(), "step_123456");
}

}  // namespace
}  // namespace spio
