#include <gtest/gtest.h>

#include <set>

#include "baselines/fpp.hpp"
#include "baselines/rank_order.hpp"
#include "baselines/shared_file.hpp"
#include "simmpi/runtime.hpp"
#include "util/temp_dir.hpp"
#include "workload/decomposition.hpp"
#include "workload/generators.hpp"

namespace spio::baselines {
namespace {

ParticleBuffer rank_particles(int rank, const PatchDecomposition& decomp,
                              std::uint64_t n) {
  return workload::uniform(Schema::uintah(), decomp.patch(rank), n,
                           stream_seed(77, static_cast<std::uint64_t>(rank)),
                           static_cast<std::uint64_t>(rank) * n);
}

std::set<double> id_set(const ParticleBuffer& buf) {
  const auto id = buf.schema().index_of("id");
  std::set<double> out;
  for (std::size_t i = 0; i < buf.size(); ++i) out.insert(buf.get_f64(i, id));
  return out;
}

TEST(Fpp, WriteReadRoundTrip) {
  const PatchDecomposition decomp(Box3::unit(), {2, 2, 1});
  TempDir dir("fpp");
  simmpi::run(4, [&](simmpi::Comm& comm) {
    fpp_write(comm, rank_particles(comm.rank(), decomp, 100), dir.path());
  });
  const FppDataset ds = FppDataset::open(dir.path());
  EXPECT_EQ(ds.file_count(), 4);
  EXPECT_EQ(ds.total_particles(), 400u);
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(ds.read_rank_file(r).size(), 100u);
}

TEST(Fpp, EmptyRankFileHandled) {
  const PatchDecomposition decomp(Box3::unit(), {2, 1, 1});
  TempDir dir("fpp");
  simmpi::run(2, [&](simmpi::Comm& comm) {
    const auto buf = comm.rank() == 0
                         ? rank_particles(0, decomp, 50)
                         : ParticleBuffer(Schema::uintah());
    fpp_write(comm, buf, dir.path());
  });
  const FppDataset ds = FppDataset::open(dir.path());
  EXPECT_EQ(ds.total_particles(), 50u);
  EXPECT_EQ(ds.read_rank_file(1).size(), 0u);
}

TEST(Fpp, TruncationDetected) {
  const PatchDecomposition decomp(Box3::unit(), {2, 1, 1});
  TempDir dir("fpp");
  simmpi::run(2, [&](simmpi::Comm& comm) {
    fpp_write(comm, rank_particles(comm.rank(), decomp, 10), dir.path());
  });
  auto bytes = read_file(dir.file("rank_0.bin"));
  bytes.pop_back();
  write_file(dir.file("rank_0.bin"), bytes);
  const FppDataset ds = FppDataset::open(dir.path());
  EXPECT_THROW(ds.read_rank_file(0), FormatError);
}

TEST(SharedFile, WriteReadRoundTrip) {
  const PatchDecomposition decomp(Box3::unit(), {2, 2, 2});
  TempDir dir("shared");
  simmpi::run(8, [&](simmpi::Comm& comm) {
    shared_write(comm, rank_particles(comm.rank(), decomp, 64), dir.path());
  });
  const SharedDataset ds = SharedDataset::open(dir.path());
  EXPECT_EQ(ds.total_particles(), 512u);
  EXPECT_EQ(ds.writer_count(), 8);
  std::set<double> ids;
  for (int r = 0; r < 8; ++r) ids.merge(id_set(ds.read_rank_slice(r)));
  EXPECT_EQ(ids.size(), 512u);
}

TEST(SharedFile, RankSlicesAreContiguousAndOrdered) {
  const PatchDecomposition decomp(Box3::unit(), {4, 1, 1});
  TempDir dir("shared");
  simmpi::run(4, [&](simmpi::Comm& comm) {
    shared_write(comm, rank_particles(comm.rank(), decomp, 50), dir.path());
  });
  const SharedDataset ds = SharedDataset::open(dir.path());
  const auto idf = Schema::uintah().index_of("id");
  for (int r = 0; r < 4; ++r) {
    const auto slice = ds.read_rank_slice(r);
    ASSERT_EQ(slice.size(), 50u);
    // Generator ids are rank*50 + i, so the slice identifies its writer.
    EXPECT_EQ(slice.get_f64(0, idf), r * 50.0);
  }
}

TEST(SharedFile, VariableCountsPlaceCorrectOffsets) {
  const PatchDecomposition decomp(Box3::unit(), {3, 1, 1});
  TempDir dir("shared");
  simmpi::run(3, [&](simmpi::Comm& comm) {
    // Rank r writes r*30 particles.
    const auto buf = rank_particles(
        comm.rank(), decomp, static_cast<std::uint64_t>(comm.rank()) * 30);
    shared_write(comm, buf, dir.path());
  });
  const SharedDataset ds = SharedDataset::open(dir.path());
  EXPECT_EQ(ds.total_particles(), 90u);
  EXPECT_EQ(ds.read_rank_slice(0).size(), 0u);
  EXPECT_EQ(ds.read_rank_slice(2).size(), 60u);
}

TEST(RankOrder, GroupFilesMixDistantRegions) {
  // 8 ranks along x, groups of 4 consecutive ranks: group 0 holds ranks
  // 0-3 = the left half; its file spans half the domain, whereas a
  // spatially-aware 2-file layout would also produce half-domain files —
  // the difference shows with stride: ranks {0,4} in one spatial half.
  const PatchDecomposition decomp(Box3::unit(), {8, 1, 1});
  TempDir dir("rankorder");
  simmpi::run(8, [&](simmpi::Comm& comm) {
    rank_order_write(comm, rank_particles(comm.rank(), decomp, 100),
                     dir.path(), 4);
  });
  const RankOrderDataset ds = RankOrderDataset::open(dir.path());
  EXPECT_EQ(ds.file_count(), 2);
  EXPECT_EQ(ds.total_particles(), 800u);
  std::set<double> ids;
  for (int g = 0; g < ds.file_count(); ++g)
    ids.merge(id_set(ds.read_group_file(g)));
  EXPECT_EQ(ids.size(), 800u);
}

TEST(RankOrder, UnevenTailGroup) {
  const PatchDecomposition decomp(Box3::unit(), {5, 1, 1});
  TempDir dir("rankorder");
  simmpi::run(5, [&](simmpi::Comm& comm) {
    rank_order_write(comm, rank_particles(comm.rank(), decomp, 40),
                     dir.path(), 2);
  });
  const RankOrderDataset ds = RankOrderDataset::open(dir.path());
  EXPECT_EQ(ds.file_count(), 3);
  EXPECT_EQ(ds.read_group_file(2).size(), 40u);  // lone rank 4
}

TEST(RankOrder, EmptyMemberKeepsMemberOrder) {
  // Every member sends a payload, an empty one too; the leader appends
  // them in member order, so the file is ranks 0, 2, 3 back to back.
  const PatchDecomposition decomp(Box3::unit(), {4, 1, 1});
  TempDir dir("rankorder");
  simmpi::run(4, [&](simmpi::Comm& comm) {
    const auto buf = comm.rank() == 1
                         ? ParticleBuffer(Schema::uintah())
                         : rank_particles(comm.rank(), decomp, 20);
    rank_order_write(comm, buf, dir.path(), 4);
  });
  const RankOrderDataset ds = RankOrderDataset::open(dir.path());
  ASSERT_EQ(ds.file_count(), 1);
  const auto file = ds.read_group_file(0);
  ASSERT_EQ(file.size(), 60u);
  const auto idf = Schema::uintah().index_of("id");
  for (std::size_t i = 0; i < file.size(); ++i) {
    const double rank = i < 20 ? 0 : i < 40 ? 2 : 3;
    EXPECT_EQ(file.get_f64(i, idf), rank * 20 + static_cast<double>(i % 20))
        << "record " << i;
  }
}

}  // namespace
}  // namespace spio::baselines
