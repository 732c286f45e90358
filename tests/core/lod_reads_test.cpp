#include <gtest/gtest.h>

#include <set>

#include "core/reader.hpp"
#include "core/writer.hpp"
#include "simmpi/runtime.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

/// Fixture writing one dataset shared by all LOD-read tests: 8 ranks,
/// 2 partitions, 4000 particles total, P=16, S=2.
class LodReads : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kPerRank = 500;
  static constexpr int kRanks = 8;

  static void SetUpTestSuite() {
    dir_ = new TempDir("spio-lodreads");
    const PatchDecomposition decomp(Box3({0, 0, 0}, {4, 4, 4}), {2, 2, 2});
    WriterConfig cfg;
    cfg.dir = dir_->path();
    cfg.factor = {2, 2, 1};  // 2 partitions -> 2 files of 2000 each
    cfg.lod = {16, 2.0};
    simmpi::run(kRanks, [&](simmpi::Comm& comm) {
      const auto local = workload::uniform(
          Schema::uintah(), decomp.patch(comm.rank()), kPerRank,
          stream_seed(3, static_cast<std::uint64_t>(comm.rank())),
          static_cast<std::uint64_t>(comm.rank()) * kPerRank);
      write_dataset(comm, decomp, local, cfg);
    });
  }

  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }

  static TempDir* dir_;
};

TempDir* LodReads::dir_ = nullptr;

TEST_F(LodReads, LevelPrefixCountsFollowTheLaw) {
  const Dataset ds = Dataset::open(dir_->path());
  ASSERT_EQ(ds.file_count(), 2);
  const std::uint64_t total = ds.metadata().total_particles;
  ASSERT_EQ(total, 4000u);
  // With n=1, P=16, S=2: global prefixes 16, 48, 112, ... Each file holds
  // half the particles, so per-file prefixes are half of those (rounded
  // up).
  EXPECT_EQ(ds.level_prefix_count(0, 1, 1), 8u);
  EXPECT_EQ(ds.level_prefix_count(0, 2, 1), 24u);
  EXPECT_EQ(ds.level_prefix_count(0, 3, 1), 56u);
  // All levels = whole file.
  const int levels = ds.level_count(1);
  EXPECT_EQ(ds.level_prefix_count(0, levels, 1), 2000u);
  EXPECT_EQ(ds.level_prefix_count(0, -1, 1), 2000u);
}

TEST_F(LodReads, MoreReadersShiftLevelSizes) {
  const Dataset ds = Dataset::open(dir_->path());
  // n readers multiply every level size by n.
  EXPECT_EQ(ds.level_prefix_count(0, 1, 4), 4 * ds.level_prefix_count(0, 1, 1));
  EXPECT_LT(ds.level_count(8), ds.level_count(1));
}

TEST_F(LodReads, ReadingMoreLevelsIsMonotonic) {
  const Dataset ds = Dataset::open(dir_->path());
  std::uint64_t prev = 0;
  for (int l = 0; l <= ds.level_count(1); ++l) {
    const std::uint64_t n = ds.level_prefix_count(0, l, 1);
    EXPECT_GE(n, prev);
    prev = n;
  }
  EXPECT_EQ(prev, 2000u);
}

TEST_F(LodReads, PrefixReadsAreProperPrefixes) {
  // Progressive refinement: the first k particles of level L+1's read are
  // exactly level L's read — an application can append level after level.
  const Dataset ds = Dataset::open(dir_->path());
  const ParticleBuffer l2 = ds.read_data_file(0, 2, 1);
  const ParticleBuffer l4 = ds.read_data_file(0, 4, 1);
  ASSERT_LT(l2.size(), l4.size());
  EXPECT_EQ(std::memcmp(l2.bytes().data(), l4.bytes().data(), l2.byte_size()),
            0);
}

TEST_F(LodReads, PrefixBytesReadMatchesPrefixSize) {
  const Dataset ds = Dataset::open(dir_->path());
  ReadStats rs;
  const auto buf = ds.read_data_file(0, 3, 1, &rs);
  EXPECT_EQ(rs.bytes_read, buf.size() * Schema::uintah().record_size());
  EXPECT_LT(rs.bytes_read, 2000u * Schema::uintah().record_size());
}

TEST_F(LodReads, LodBoundedBoxQueryReturnsSubsetOfFullQuery) {
  const Dataset ds = Dataset::open(dir_->path());
  const Box3 q({0.5, 0.5, 0.5}, {3.5, 3.5, 3.5});
  const ParticleBuffer coarse = ds.query_box(q, /*levels=*/3);
  const ParticleBuffer full = ds.query_box(q);
  EXPECT_LT(coarse.size(), full.size());

  const auto idf = Schema::uintah().index_of("id");
  std::set<double> full_ids;
  for (std::size_t i = 0; i < full.size(); ++i)
    full_ids.insert(full.get_f64(i, idf));
  for (std::size_t i = 0; i < coarse.size(); ++i)
    EXPECT_TRUE(full_ids.count(coarse.get_f64(i, idf)))
        << "coarse particle missing from full query";
}

TEST_F(LodReads, LodPrefixIsRepresentative) {
  // Fig. 9's claim, quantified: the mean position of a 2-level prefix is
  // close to the mean position of the whole file.
  const Dataset ds = Dataset::open(dir_->path());
  const ParticleBuffer coarse = ds.read_data_file(0, 5, 1);
  const ParticleBuffer full = ds.read_data_file(0);
  auto mean_pos = [](const ParticleBuffer& b) {
    Vec3d m{0, 0, 0};
    for (std::size_t i = 0; i < b.size(); ++i) m += b.position(i);
    return m / static_cast<double>(b.size());
  };
  const Vec3d mc = mean_pos(coarse), mf = mean_pos(full);
  const Vec3d extent =
      ds.metadata().files[0].bounds.size();
  EXPECT_LT(std::abs(mc.x - mf.x), 0.15 * extent.x);
  EXPECT_LT(std::abs(mc.y - mf.y), 0.15 * extent.y);
  EXPECT_LT(std::abs(mc.z - mf.z), 0.15 * extent.z);
}

TEST_F(LodReads, ZeroLevelsReadsNothing) {
  const Dataset ds = Dataset::open(dir_->path());
  EXPECT_EQ(ds.read_data_file(0, 0, 1).size(), 0u);
  EXPECT_EQ(ds.query_box(Box3({0, 0, 0}, {4, 4, 4}), 0).size(), 0u);
}

TEST(LodReadsNoMeta, DatasetWithoutBoundsFallsBackToScan) {
  const PatchDecomposition decomp(Box3::unit(), {2, 2, 1});
  TempDir dir("spio-nobounds");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {1, 1, 1};
  cfg.write_spatial_metadata = false;
  simmpi::run(4, [&](simmpi::Comm& comm) {
    const auto local = workload::uniform(
        Schema::uintah(), decomp.patch(comm.rank()), 100,
        stream_seed(9, static_cast<std::uint64_t>(comm.rank())),
        static_cast<std::uint64_t>(comm.rank()) * 100);
    write_dataset(comm, decomp, local, cfg);
  });
  const Dataset ds = Dataset::open(dir.path());
  EXPECT_FALSE(ds.metadata().has_bounds);
  const Box3 q({0, 0, 0}, {0.5, 0.5, 1});
  EXPECT_THROW(ds.query_box(q), ConfigError);
  ReadStats rs;
  const auto out = ds.query_box_scan_all(q, &rs);
  EXPECT_EQ(rs.files_opened, 4);          // must touch every file
  EXPECT_EQ(rs.particles_scanned, 400u);  // and scan every particle
  EXPECT_GT(out.size(), 0u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_TRUE(q.contains(out.position(i)));
}

TEST(ReaderTile, TilesAreDisjointAndCoverDomain) {
  const Box3 domain({0, 0, 0}, {6, 4, 2});
  for (const int n : {1, 2, 4, 6, 8}) {
    const PatchDecomposition tiles = PatchDecomposition::for_ranks(domain, n);
    double vol = 0;
    for (int r = 0; r < n; ++r) {
      const Box3 t = tiles.patch(r);
      vol += t.volume();
      for (int s = r + 1; s < n; ++s)
        EXPECT_FALSE(t.overlaps(tiles.patch(s)));
    }
    EXPECT_NEAR(vol, domain.volume(), 1e-9);
  }
}

}  // namespace
}  // namespace spio
