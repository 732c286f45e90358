#include <gtest/gtest.h>

#include "baselines/fpp.hpp"
#include "baselines/rank_order.hpp"
#include "baselines/shared_file.hpp"
#include "core/reader.hpp"
#include "core/writer.hpp"
#include "simmpi/runtime.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

/// The paper's core read-side claim, verified functionally: the same data
/// written by (a) our spatially-aware format, (b) rank-order two-phase
/// aggregation, (c) file-per-process and (d) a single shared file, then
/// queried with the same spatial box. Our format must touch the fewest
/// files and scan the fewest particles (Fig. 1, §4).
class ReadAmplification : public ::testing::Test {
 protected:
  static constexpr int kRanks = 16;
  static constexpr std::uint64_t kPerRank = 200;
  // 4x4x1 process grid over the unit cube.
  static const PatchDecomposition& decomp() {
    static const PatchDecomposition d(Box3::unit(), {4, 4, 1});
    return d;
  }

  static ParticleBuffer particles(int rank) {
    return workload::uniform(
        Schema::uintah(), decomp().patch(rank), kPerRank,
        stream_seed(31, static_cast<std::uint64_t>(rank)),
        static_cast<std::uint64_t>(rank) * kPerRank);
  }

  static void SetUpTestSuite() {
    dirs_ = new TempDir[4]{TempDir("ra-spio"), TempDir("ra-rankorder"),
                           TempDir("ra-fpp"), TempDir("ra-shared")};
    simmpi::run(kRanks, [&](simmpi::Comm& comm) {
      const ParticleBuffer local = particles(comm.rank());
      WriterConfig cfg;
      cfg.dir = dirs_[0].path();
      cfg.factor = {2, 2, 1};  // 4 files, spatially grouped quadrants
      write_dataset(comm, decomp(), local, cfg);
      baselines::rank_order_write(comm, local, dirs_[1].path(),
                                  /*group_size=*/4);  // 4 files, rank order
      baselines::fpp_write(comm, local, dirs_[2].path());
      baselines::shared_write(comm, local, dirs_[3].path());
    });
  }

  static void TearDownTestSuite() {
    delete[] dirs_;
    dirs_ = nullptr;
  }

  /// A query covering one aggregation partition (the domain's left-front-
  /// bottom quarter: x in [0, 0.5), y in [0, 0.5), all z handled below).
  static Box3 query() { return Box3({0.01, 0.01, 0.01}, {0.49, 0.49, 0.99}); }

  static TempDir* dirs_;
};

TempDir* ReadAmplification::dirs_ = nullptr;

TEST_F(ReadAmplification, AllFormatsAgreeOnTheAnswer) {
  const auto idf = Schema::uintah().index_of("id");
  auto ids = [&](const ParticleBuffer& b) {
    std::set<double> s;
    for (std::size_t i = 0; i < b.size(); ++i) s.insert(b.get_f64(i, idf));
    return s;
  };
  const auto spio_ids = ids(Dataset::open(dirs_[0].path()).query_box(query()));
  EXPECT_EQ(ids(baselines::RankOrderDataset::open(dirs_[1].path())
                    .query_box(query())),
            spio_ids);
  EXPECT_EQ(ids(baselines::FppDataset::open(dirs_[2].path()).query_box(query())),
            spio_ids);
  EXPECT_EQ(
      ids(baselines::SharedDataset::open(dirs_[3].path()).query_box(query())),
      spio_ids);
  EXPECT_FALSE(spio_ids.empty());
}

TEST_F(ReadAmplification, SpioTouchesFewestFiles) {
  ReadStats spio_rs, ro_rs, fpp_rs;
  Dataset::open(dirs_[0].path()).query_box(query(), -1, 1, &spio_rs);
  baselines::RankOrderDataset::open(dirs_[1].path()).query_box(query(), &ro_rs);
  baselines::FppDataset::open(dirs_[2].path()).query_box(query(), &fpp_rs);

  // Our 4-file layout splits the domain in x and y; the query touches
  // exactly 1 of 4 files. Rank-order must read all 4; FPP all 16.
  EXPECT_EQ(spio_rs.files_opened, 1);
  EXPECT_EQ(ro_rs.files_opened, 4);
  EXPECT_EQ(fpp_rs.files_opened, 16);
}

TEST_F(ReadAmplification, SpioScansFewestParticles) {
  ReadStats spio_rs, ro_rs, fpp_rs, sh_rs;
  Dataset::open(dirs_[0].path()).query_box(query(), -1, 1, &spio_rs);
  baselines::RankOrderDataset::open(dirs_[1].path()).query_box(query(), &ro_rs);
  baselines::FppDataset::open(dirs_[2].path()).query_box(query(), &fpp_rs);
  baselines::SharedDataset::open(dirs_[3].path()).query_box(query(), &sh_rs);

  const std::uint64_t total = kRanks * kPerRank;
  EXPECT_EQ(ro_rs.particles_scanned, total);
  EXPECT_EQ(fpp_rs.particles_scanned, total);
  EXPECT_EQ(sh_rs.particles_scanned, total);
  // Ours reads only the one intersecting file (a quarter of the data).
  EXPECT_EQ(spio_rs.particles_scanned, total / 4);
  EXPECT_LT(spio_rs.bytes_read, fpp_rs.bytes_read / 3);
}

TEST_F(ReadAmplification, DistributedRenderingFileCounts) {
  // Fig. 1's 4-node rendering scenario, on our 16-rank dataset: each of 4
  // readers takes one spatial tile. With the spatial layout every reader
  // opens exactly 1 file; with rank-order grouping a tile's particles are
  // spread over several files.
  const Dataset spio = Dataset::open(dirs_[0].path());
  const PatchDecomposition tiles =
      PatchDecomposition::for_ranks(spio.metadata().domain, 4);
  for (int r = 0; r < 4; ++r) {
    const Box3 tile = tiles.patch(r);
    // Shrink slightly to avoid boundary-face overlaps.
    const Box3 inner = Box3(tile.lo + tile.size() * 0.01,
                            tile.hi - tile.size() * 0.01);
    ReadStats rs;
    spio.query_box(inner, -1, 1, &rs);
    EXPECT_EQ(rs.files_opened, 1) << "reader " << r;
  }
}

}  // namespace
}  // namespace spio
