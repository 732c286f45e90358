#include <gtest/gtest.h>

#include <set>

#include "core/reader.hpp"
#include "core/writer.hpp"
#include "simmpi/runtime.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

/// Attribute range queries via the §3.5 metadata extension: per-file
/// min/max of every field component, used to prune files before opening
/// them.
class RangeQuery : public ::testing::Test {
 protected:
  static constexpr int kRanks = 8;
  static constexpr std::uint64_t kPerRank = 400;

  static void SetUpTestSuite() {
    dir_ = new TempDir("spio-range");
    const PatchDecomposition decomp(Box3({0, 0, 0}, {8, 1, 1}), {8, 1, 1});
    WriterConfig cfg;
    cfg.dir = dir_->path();
    cfg.factor = {1, 1, 1};  // one file per rank -> 8 files along x
    simmpi::run(kRanks, [&](simmpi::Comm& comm) {
      ParticleBuffer local = workload::uniform(
          Schema::uintah(), decomp.patch(comm.rank()), kPerRank,
          stream_seed(21, static_cast<std::uint64_t>(comm.rank())),
          static_cast<std::uint64_t>(comm.rank()) * kPerRank);
      // Make density disjoint per rank: rank r's densities lie in
      // [1000*r, 1000*r + 500], so range pruning can isolate files.
      const auto density = local.schema().index_of("density");
      Xoshiro256 rng(static_cast<std::uint64_t>(comm.rank()) + 99);
      for (std::size_t i = 0; i < local.size(); ++i) {
        local.set_f64(i, density, 0,
                      1000.0 * comm.rank() + 500.0 * rng.uniform());
      }
      write_dataset(comm, decomp, local, cfg);
    });
  }

  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }

  static TempDir* dir_;
};

TempDir* RangeQuery::dir_ = nullptr;

TEST_F(RangeQuery, MetadataRecordsPerFileRanges) {
  const Dataset ds = Dataset::open(dir_->path());
  ASSERT_TRUE(ds.metadata().has_field_ranges);
  const auto di = ds.metadata().range_index(
      ds.metadata().schema.index_of("density"), 0);
  for (const auto& f : ds.metadata().files) {
    ASSERT_EQ(f.field_ranges.size(), ds.metadata().range_count());
    const double base = 1000.0 * f.partition_id;
    EXPECT_GE(f.field_ranges[di].min, base);
    EXPECT_LE(f.field_ranges[di].max, base + 500.0);
  }
}

TEST_F(RangeQuery, PositionRangesMatchBounds) {
  const Dataset ds = Dataset::open(dir_->path());
  for (const auto& f : ds.metadata().files) {
    const auto xi = ds.metadata().range_index(0, 0);
    EXPECT_GE(f.field_ranges[xi].min, f.bounds.lo.x);
    EXPECT_LE(f.field_ranges[xi].max, f.bounds.hi.x);
  }
}

TEST_F(RangeQuery, RangePruningSkipsFiles) {
  const Dataset ds = Dataset::open(dir_->path());
  const auto density = ds.metadata().schema.index_of("density");
  // Density in [3100, 3400]: only rank 3's file can match.
  const Dataset::RangeFilter rf{density, 0, 3100.0, 3400.0};
  const QueryPlan plan =
      ds.plan_query(ds.metadata().domain, std::span(&rf, 1));
  ASSERT_EQ(plan.files.size(), 1u);
  EXPECT_EQ(ds.metadata().files[static_cast<std::size_t>(plan.files[0].file)]
                .partition_id,
            3u);

  ReadStats rs;
  const auto out =
      ds.query(ds.metadata().domain, std::span(&rf, 1), -1, 1, &rs);
  EXPECT_EQ(rs.files_opened, 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double v = out.get_f64(i, density);
    EXPECT_GE(v, 3100.0);
    EXPECT_LE(v, 3400.0);
  }
  EXPECT_GT(out.size(), 0u);
}

TEST_F(RangeQuery, MatchesBruteForce) {
  const Dataset ds = Dataset::open(dir_->path());
  const auto density = ds.metadata().schema.index_of("density");
  const auto idf = ds.metadata().schema.index_of("id");
  const Dataset::RangeFilter rf{density, 0, 2200.0, 5300.0};
  const Box3 box({1.5, 0, 0}, {6.5, 1, 1});

  const auto fast = ds.query(box, std::span(&rf, 1));
  // Brute force: read everything, filter by both predicates.
  const auto all = ds.query_box_scan_all(ds.metadata().domain);
  std::set<double> expect;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double v = all.get_f64(i, density);
    if (box.contains(all.position(i)) && v >= 2200.0 && v <= 5300.0)
      expect.insert(all.get_f64(i, idf));
  }
  std::set<double> got;
  for (std::size_t i = 0; i < fast.size(); ++i)
    got.insert(fast.get_f64(i, idf));
  EXPECT_EQ(got, expect);
  EXPECT_FALSE(got.empty());
}

TEST_F(RangeQuery, ConjunctionOfFilters) {
  const Dataset ds = Dataset::open(dir_->path());
  const auto& schema = ds.metadata().schema;
  const Dataset::RangeFilter filters[] = {
      {schema.index_of("density"), 0, 0.0, 2400.0},   // ranks 0..2
      {schema.index_of("type"), 0, 1.0, 3.0},         // f32 field filter
  };
  const auto out = ds.query(ds.metadata().domain, filters);
  ASSERT_GT(out.size(), 0u);
  const auto density = schema.index_of("density");
  const auto type = schema.index_of("type");
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_LE(out.get_f64(i, density), 2400.0);
    EXPECT_GE(out.get_f32(i, type), 1.0f);
    EXPECT_LE(out.get_f32(i, type), 3.0f);
  }
}

TEST_F(RangeQuery, EmptyRangeMatchesNothingWithoutOpens) {
  const Dataset ds = Dataset::open(dir_->path());
  const auto density = ds.metadata().schema.index_of("density");
  const Dataset::RangeFilter rf{density, 0, 1e6, 2e6};
  ReadStats rs;
  const auto out =
      ds.query(ds.metadata().domain, std::span(&rf, 1), -1, 1, &rs);
  EXPECT_EQ(out.size(), 0u);
  EXPECT_EQ(rs.files_opened, 0);
}

TEST_F(RangeQuery, InvalidFiltersRejected) {
  const Dataset ds = Dataset::open(dir_->path());
  const Dataset::RangeFilter bad_field{99, 0, 0, 1};
  EXPECT_THROW(ds.query(ds.metadata().domain, std::span(&bad_field, 1)),
               ConfigError);
  const Dataset::RangeFilter bad_comp{0, 7, 0, 1};
  EXPECT_THROW(ds.query(ds.metadata().domain, std::span(&bad_comp, 1)),
               ConfigError);
  const Dataset::RangeFilter inverted{0, 0, 2, 1};
  EXPECT_THROW(ds.query(ds.metadata().domain, std::span(&inverted, 1)),
               ConfigError);
}

TEST(RangeQueryNoRanges, DatasetWithoutRangesStillFiltersExactly) {
  const PatchDecomposition decomp(Box3::unit(), {2, 1, 1});
  TempDir dir("spio-noranges");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.write_field_ranges = false;
  simmpi::run(2, [&](simmpi::Comm& comm) {
    const auto local = workload::uniform(
        Schema::uintah(), decomp.patch(comm.rank()), 200,
        stream_seed(4, static_cast<std::uint64_t>(comm.rank())),
        static_cast<std::uint64_t>(comm.rank()) * 200);
    write_dataset(comm, decomp, local, cfg);
  });
  const Dataset ds = Dataset::open(dir.path());
  EXPECT_FALSE(ds.metadata().has_field_ranges);
  const auto density = ds.metadata().schema.index_of("density");
  const Dataset::RangeFilter rf{density, 0, 0.0, 1000.0};
  ReadStats rs;
  const auto out =
      ds.query(ds.metadata().domain, std::span(&rf, 1), -1, 1, &rs);
  // No pruning possible: every file is opened, but filtering is exact.
  EXPECT_EQ(rs.files_opened, 2);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_LE(out.get_f64(i, density), 1000.0);
}

}  // namespace
}  // namespace spio
