#include <gtest/gtest.h>

#include <set>

#include "core/reader.hpp"
#include "core/writer.hpp"
#include "simmpi/runtime.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

/// The paper's core read-side claim, verified functionally: the same data
/// written (a) with a spatially grouped 2x2x1 partition factor (4 files)
/// and (b) file-per-process (factor 1x1x1, 16 files), then queried with
/// the same spatial box. A spatially-unaware reader — spio's own
/// metadata-free path, `query_box_scan_all`, which opens every file and
/// filters every particle as the rank-order, FPP and shared-file layouts
/// force (Fig. 1, §4) — stands for the legacy formats. The planned query
/// must touch the fewest files and scan the fewest particles.
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
    dirs_ = new TempDir[2]{TempDir("ra-spio"), TempDir("ra-fpp")};
    simmpi::run(kRanks, [&](simmpi::Comm& comm) {
      const ParticleBuffer local = particles(comm.rank());
      WriterConfig cfg;
      cfg.dir = dirs_[0].path();
      cfg.factor = {2, 2, 1};  // 4 files, spatially grouped quadrants
      write_dataset(comm, decomp(), local, cfg);
      cfg.dir = dirs_[1].path();
      cfg.factor = {1, 1, 1};  // file per process: 16 files
      write_dataset(comm, decomp(), local, cfg);
    });
  }

  static void TearDownTestSuite() {
    delete[] dirs_;
    dirs_ = nullptr;
  }

  static Dataset spio() { return Dataset::open(dirs_[0].path()); }
  static Dataset fpp() { return Dataset::open(dirs_[1].path()); }

  /// A query covering one aggregation partition (the domain's left-front-
  /// bottom quarter: x in [0, 0.5), y in [0, 0.5), all z handled below).
  static Box3 query() { return Box3({0.01, 0.01, 0.01}, {0.49, 0.49, 0.99}); }

  /// Files a read touched, whether from disk or the read cache.
  static int files_touched(const ReadStats& rs) {
    return rs.files_opened + static_cast<int>(rs.cache_hits);
  }

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
  const auto spio_ids = ids(spio().query_box(query()));
  EXPECT_EQ(ids(spio().query_box_scan_all(query())), spio_ids);
  EXPECT_EQ(ids(fpp().query_box_scan_all(query())), spio_ids);
  EXPECT_FALSE(spio_ids.empty());
}

TEST_F(ReadAmplification, SpioTouchesFewestFiles) {
  ReadStats spio_rs, scan_rs, fpp_rs;
  spio().query_box(query(), -1, 1, &spio_rs);
  spio().query_box_scan_all(query(), &scan_rs);
  fpp().query_box_scan_all(query(), &fpp_rs);

  // Our 4-file layout splits the domain in x and y; the query touches
  // exactly 1 of 4 files. The unaware scan must read all 4; FPP all 16.
  EXPECT_EQ(files_touched(spio_rs), 1);
  EXPECT_EQ(files_touched(scan_rs), 4);
  EXPECT_EQ(files_touched(fpp_rs), 16);
}

TEST_F(ReadAmplification, SpioScansFewestParticles) {
  ReadStats spio_rs, scan_rs, fpp_rs;
  spio().query_box(query(), -1, 1, &spio_rs);
  spio().query_box_scan_all(query(), &scan_rs);
  fpp().query_box_scan_all(query(), &fpp_rs);

  const std::uint64_t total = kRanks * kPerRank;
  EXPECT_EQ(scan_rs.particles_scanned, total);
  EXPECT_EQ(fpp_rs.particles_scanned, total);
  // Ours reads only the one intersecting file (a quarter of the data).
  EXPECT_EQ(spio_rs.particles_scanned, total / 4);
  EXPECT_LT(spio_rs.bytes_read, fpp_rs.bytes_read / 3);
}

TEST_F(ReadAmplification, DistributedRenderingFileCounts) {
  // Fig. 1's 4-node rendering scenario, on our 16-rank dataset: each of 4
  // readers takes one spatial tile. With the spatial layout every reader
  // opens exactly 1 file; with rank-order grouping a tile's particles are
  // spread over several files.
  const Dataset ds = spio();
  const PatchDecomposition tiles =
      PatchDecomposition::for_ranks(ds.metadata().domain, 4);
  for (int r = 0; r < 4; ++r) {
    const Box3 tile = tiles.patch(r);
    // Shrink slightly to avoid boundary-face overlaps.
    const Box3 inner = Box3(tile.lo + tile.size() * 0.01,
                            tile.hi - tile.size() * 0.01);
    ReadStats rs;
    ds.query_box(inner, -1, 1, &rs);
    EXPECT_EQ(rs.files_opened, 1) << "reader " << r;
  }
}

}  // namespace
}  // namespace spio
