#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/reader.hpp"
#include "core/writer.hpp"
#include "simmpi/runtime.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

/// Write one dataset with `nranks` rank-threads: each rank generates
/// `per_rank` particles with `gen` and writes via `config`.
using RankGenerator =
    std::function<ParticleBuffer(int rank, const PatchDecomposition&)>;

ParticleBuffer uniform_rank_particles(int rank,
                                      const PatchDecomposition& decomp,
                                      std::uint64_t per_rank) {
  return workload::uniform(Schema::uintah(), decomp.patch(rank), per_rank,
                           stream_seed(1234, static_cast<std::uint64_t>(rank)),
                           static_cast<std::uint64_t>(rank) * per_rank);
}

WriteStats write_with(int nranks, const PatchDecomposition& decomp,
                      const RankGenerator& gen, WriterConfig config) {
  WriteStats job{};
  std::mutex mu;
  simmpi::run(nranks, [&](simmpi::Comm& comm) {
    const ParticleBuffer local = gen(comm.rank(), decomp);
    const WriteStats s = write_dataset(comm, decomp, local, config);
    std::lock_guard lk(mu);
    job = WriteStats::max_over(job, s);
  });
  return job;
}

/// All ids in a buffer (ids are unique across the dataset by generator
/// construction).
std::set<double> id_set(const ParticleBuffer& buf) {
  const auto id = buf.schema().index_of("id");
  std::set<double> out;
  for (std::size_t i = 0; i < buf.size(); ++i) out.insert(buf.get_f64(i, id));
  return out;
}

// ---- parameterized full-pipeline round trip ----

struct RoundTripCase {
  int nranks;
  Vec3i grid;
  PartitionFactor factor;
  std::uint64_t per_rank;
  bool adaptive;
  bool force_general;
};

class RoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(RoundTrip, WriteThenReadBackEverything) {
  const RoundTripCase& c = GetParam();
  const PatchDecomposition decomp(Box3({0, 0, 0}, {8, 8, 8}), c.grid);
  ASSERT_EQ(decomp.rank_count(), c.nranks);

  TempDir dir("spio-roundtrip");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = c.factor;
  cfg.adaptive = c.adaptive;
  cfg.force_general_exchange = c.force_general;

  const WriteStats stats = write_with(
      c.nranks, decomp,
      [&](int r, const PatchDecomposition& d) {
        return uniform_rank_particles(r, d, c.per_rank);
      },
      cfg);

  const std::uint64_t total = c.per_rank * static_cast<std::uint64_t>(c.nranks);
  EXPECT_EQ(stats.particles_written, total);
  if (!c.adaptive && c.per_rank > 0) {
    EXPECT_EQ(stats.files_written,
              static_cast<int>(file_count(c.grid, c.factor)));
  }

  const Dataset ds = Dataset::open(dir.path());
  EXPECT_EQ(ds.metadata().total_particles, total);
  EXPECT_EQ(ds.metadata().schema, Schema::uintah());

  // Reading the whole domain returns every particle exactly once.
  ReadStats rs;
  const ParticleBuffer all =
      ds.query_box(decomp.domain(), /*levels=*/-1, 1, &rs);
  EXPECT_EQ(all.size(), total);
  EXPECT_EQ(id_set(all).size(), total);
  EXPECT_EQ(rs.files_opened, ds.file_count());

  // Every particle lies inside the bounds of the file that holds it.
  for (int fi = 0; fi < ds.file_count(); ++fi) {
    const auto& rec = ds.metadata().files[static_cast<std::size_t>(fi)];
    const ParticleBuffer fb = ds.read_data_file(fi);
    ASSERT_EQ(fb.size(), rec.particle_count);
    for (std::size_t i = 0; i < fb.size(); ++i)
      ASSERT_TRUE(rec.bounds.contains_closed(fb.position(i)))
          << "file " << fi << " particle " << i;
  }

  // File bounds are pairwise disjoint.
  for (int a = 0; a < ds.file_count(); ++a)
    for (int b = a + 1; b < ds.file_count(); ++b)
      EXPECT_FALSE(ds.metadata()
                       .files[static_cast<std::size_t>(a)]
                       .bounds.overlaps(
                           ds.metadata().files[static_cast<std::size_t>(b)].bounds));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RoundTrip,
    ::testing::Values(
        RoundTripCase{8, {2, 2, 2}, {1, 1, 1}, 200, false, false},
        RoundTripCase{8, {2, 2, 2}, {2, 2, 2}, 200, false, false},
        RoundTripCase{16, {4, 2, 2}, {2, 2, 2}, 150, false, false},
        RoundTripCase{16, {4, 4, 1}, {2, 2, 1}, 100, false, false},
        RoundTripCase{16, {4, 4, 1}, {4, 4, 1}, 100, false, false},
        RoundTripCase{27, {3, 3, 3}, {3, 3, 3}, 64, false, false},
        RoundTripCase{32, {4, 4, 2}, {2, 2, 2}, 50, false, false},
        RoundTripCase{12, {3, 2, 2}, {2, 2, 2}, 80, false, false},  // non-dividing
        RoundTripCase{16, {4, 2, 2}, {2, 2, 2}, 150, false, true},  // general path
        RoundTripCase{16, {4, 2, 2}, {2, 2, 2}, 150, true, false},  // adaptive
        RoundTripCase{8, {2, 2, 2}, {2, 2, 2}, 0, false, false}),   // no particles
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      const auto& c = info.param;
      std::string name = std::to_string(c.nranks) + "ranks_" +
                         c.factor.to_string() + "_" +
                         std::to_string(c.per_rank) + "ppr";
      if (c.adaptive) name += "_adaptive";
      if (c.force_general) name += "_general";
      for (auto& ch : name)
        if (ch == 'x') ch = '_';
      return name;
    });

// ---- box queries against brute force ----

TEST(BoxQuery, MatchesBruteForceScan) {
  const PatchDecomposition decomp(Box3({0, 0, 0}, {4, 4, 4}), {2, 2, 2});
  TempDir dir("spio-query");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {2, 2, 1};
  write_with(8, decomp,
             [&](int r, const PatchDecomposition& d) {
               return uniform_rank_particles(r, d, 400);
             },
             cfg);

  const Dataset ds = Dataset::open(dir.path());
  Xoshiro256 rng(99);
  for (int q = 0; q < 25; ++q) {
    Box3 box;
    for (int a = 0; a < 3; ++a) {
      const double lo = rng.uniform(0, 4);
      const double hi = rng.uniform(0, 4);
      box.lo[a] = std::min(lo, hi);
      box.hi[a] = std::max(lo, hi);
    }
    if (box.is_empty()) continue;
    const auto fast = ds.query_box(box);
    const auto slow = ds.query_box_scan_all(box);
    EXPECT_EQ(id_set(fast), id_set(slow)) << "query " << q;
  }
}

TEST(BoxQuery, TouchesOnlyIntersectingFiles) {
  const PatchDecomposition decomp(Box3({0, 0, 0}, {4, 4, 4}), {4, 2, 2});
  TempDir dir("spio-query");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {1, 2, 2};  // 4 partitions along x
  write_with(16, decomp,
             [&](int r, const PatchDecomposition& d) {
               return uniform_rank_particles(r, d, 100);
             },
             cfg);

  const Dataset ds = Dataset::open(dir.path());
  ASSERT_EQ(ds.file_count(), 4);
  ReadStats rs;
  // A query inside the first x-slab touches exactly one file; the
  // spatially-unaware baseline reads all four.
  const Box3 q({0.1, 0.1, 0.1}, {0.9, 3.9, 3.9});
  ds.query_box(q, -1, 1, &rs);
  EXPECT_EQ(rs.files_opened + static_cast<int>(rs.cache_hits), 1);
  // The baseline touches all four files; the one the query above read
  // may now be served from the read cache instead of reopened.
  ReadStats rs_scan;
  ds.query_box_scan_all(q, &rs_scan);
  EXPECT_EQ(rs_scan.files_opened + static_cast<int>(rs_scan.cache_hits), 4);
}

TEST(BoxQuery, FullyContainedFileSkipsFiltering) {
  const PatchDecomposition decomp(Box3({0, 0, 0}, {2, 2, 2}), {2, 1, 1});
  TempDir dir("spio-query");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {1, 1, 1};
  write_with(2, decomp,
             [&](int r, const PatchDecomposition& d) {
               return uniform_rank_particles(r, d, 300);
             },
             cfg);
  const Dataset ds = Dataset::open(dir.path());
  ReadStats rs;
  const auto out = ds.query_box(decomp.domain(), -1, 1, &rs);
  EXPECT_EQ(out.size(), 600u);
  EXPECT_EQ(rs.particles_scanned, rs.particles_returned);
}

// ---- reads at different core counts than the write (paper §4) ----

TEST(ParallelReads, DifferentReaderCountsSeeTheSameData) {
  const PatchDecomposition decomp(Box3({0, 0, 0}, {8, 8, 8}), {4, 2, 2});
  TempDir dir("spio-readers");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {2, 2, 2};
  write_with(16, decomp,
             [&](int r, const PatchDecomposition& d) {
               return uniform_rank_particles(r, d, 250);
             },
             cfg);

  for (const int readers : {1, 2, 4, 8}) {
    std::mutex mu;
    std::set<double> seen;
    std::uint64_t total_read = 0;
    simmpi::run(readers, [&](simmpi::Comm& comm) {
      const Dataset ds = Dataset::open(dir.path());
      const Box3 tile =
          PatchDecomposition::for_ranks(ds.metadata().domain, comm.size())
              .patch(comm.rank());
      const ParticleBuffer mine = ds.query_box(tile);
      const auto ids = id_set(mine);
      std::lock_guard lk(mu);
      total_read += mine.size();
      for (double v : ids) {
        EXPECT_TRUE(seen.insert(v).second)
            << "particle read by two tiles with " << readers << " readers";
      }
    });
    EXPECT_EQ(total_read, 16u * 250u) << readers << " readers";
  }
}

// ---- determinism and path equivalence ----

TEST(Determinism, RepeatedWritesAreBitIdentical) {
  const PatchDecomposition decomp(Box3::unit(), {2, 2, 2});
  auto write_once = [&](const std::filesystem::path& dir) {
    WriterConfig cfg;
    cfg.dir = dir;
    cfg.factor = {2, 2, 1};
    write_with(8, decomp,
               [&](int r, const PatchDecomposition& d) {
                 return uniform_rank_particles(r, d, 120);
               },
               cfg);
  };
  TempDir a("spio-det-a"), b("spio-det-b");
  write_once(a.path());
  write_once(b.path());
  for (const auto& entry : std::filesystem::directory_iterator(a.path())) {
    const auto other = b.path() / entry.path().filename();
    ASSERT_TRUE(std::filesystem::exists(other)) << entry.path();
    EXPECT_EQ(read_file(entry.path()), read_file(other)) << entry.path();
  }
}

TEST(Determinism, FastAndGeneralExchangePathsProduceIdenticalFiles) {
  const PatchDecomposition decomp(Box3::unit(), {4, 2, 2});
  auto write_once = [&](const std::filesystem::path& dir, bool general) {
    WriterConfig cfg;
    cfg.dir = dir;
    cfg.factor = {2, 2, 2};
    cfg.force_general_exchange = general;
    return write_with(16, decomp,
                      [&](int r, const PatchDecomposition& d) {
                        return uniform_rank_particles(r, d, 90);
                      },
                      cfg);
  };
  TempDir a("spio-fast"), b("spio-general");
  const WriteStats fast = write_once(a.path(), false);
  const WriteStats general = write_once(b.path(), true);
  EXPECT_TRUE(fast.used_aligned_fast_path);
  EXPECT_FALSE(general.used_aligned_fast_path);
  for (const auto& entry : std::filesystem::directory_iterator(a.path())) {
    EXPECT_EQ(read_file(entry.path()),
              read_file(b.path() / entry.path().filename()))
        << entry.path();
  }
}

TEST(Stats, AggregationVolumeAccountsRemoteSendsOnly) {
  const PatchDecomposition decomp(Box3::unit(), {4, 1, 1});
  TempDir dir("spio-stats");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {4, 1, 1};  // single aggregator: rank 0
  const WriteStats s = write_with(
      4, decomp,
      [&](int r, const PatchDecomposition& d) {
        return uniform_rank_particles(r, d, 100);
      },
      cfg);
  // Ranks 1..3 ship 100 particles each; rank 0's stay local.
  EXPECT_EQ(s.particles_sent, 300u);
  EXPECT_EQ(s.bytes_sent, 300u * Schema::uintah().record_size());
  EXPECT_EQ(s.particles_written, 400u);
  EXPECT_EQ(s.files_written, 1);
}

TEST(Writer, FilePerProcessEqualsFactorOne) {
  // §3.1: (1,1,1) "is equivalent to file per-process I/O".
  const PatchDecomposition decomp(Box3::unit(), {2, 2, 1});
  TempDir dir("spio-fpp");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {1, 1, 1};
  const WriteStats s = write_with(
      4, decomp,
      [&](int r, const PatchDecomposition& d) {
        return uniform_rank_particles(r, d, 50);
      },
      cfg);
  EXPECT_EQ(s.files_written, 4);
  EXPECT_EQ(s.particles_sent, 0u);  // nothing moves between ranks
  const Dataset ds = Dataset::open(dir.path());
  for (const auto& f : ds.metadata().files)
    EXPECT_EQ(f.particle_count, 50u);
}

TEST(Writer, SharedFileEqualsFullFactor) {
  // §3.1: a partition spanning the domain "will save out a single file,
  // equivalent to single shared file I/O".
  const PatchDecomposition decomp(Box3::unit(), {2, 2, 2});
  TempDir dir("spio-shared");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {2, 2, 2};
  const WriteStats s = write_with(
      8, decomp,
      [&](int r, const PatchDecomposition& d) {
        return uniform_rank_particles(r, d, 50);
      },
      cfg);
  EXPECT_EQ(s.files_written, 1);
  EXPECT_EQ(Dataset::open(dir.path()).metadata().files[0].particle_count,
            400u);
}

// ---- non-uniform distributions and adaptive aggregation ----

TEST(Adaptive, EmptyRegionsGetNoFiles) {
  const PatchDecomposition decomp(Box3({0, 0, 0}, {8, 2, 2}), {4, 2, 2});
  const Box3 occupied = workload::coverage_region(decomp.domain(), 0.5);
  TempDir dir("spio-adaptive");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {2, 2, 2};
  cfg.adaptive = true;
  write_with(16, decomp,
             [&](int r, const PatchDecomposition& d) {
               return workload::uniform_in_region(
                   Schema::uintah(), d.patch(r), occupied, 100,
                   stream_seed(5, static_cast<std::uint64_t>(r)),
                   static_cast<std::uint64_t>(r) * 100);
             },
             cfg);
  const Dataset ds = Dataset::open(dir.path());
  // Only the occupied half is covered by file bounds.
  for (const auto& f : ds.metadata().files) {
    EXPECT_LE(f.bounds.hi.x, occupied.hi.x + 1e-9);
    EXPECT_GT(f.particle_count, 0u);
  }
  // All particles present (8 occupied ranks x 100).
  EXPECT_EQ(ds.metadata().total_particles, 800u);
  const auto all = ds.query_box(decomp.domain());
  EXPECT_EQ(id_set(all).size(), 800u);
}

TEST(Adaptive, NonAdaptiveOnSameDistributionKeepsEmptyPartitionsOut) {
  // The non-adaptive writer on a half-empty domain produces files only for
  // occupied partitions (empty partitions write nothing), but its grid
  // still spans the whole domain.
  const PatchDecomposition decomp(Box3({0, 0, 0}, {8, 2, 2}), {4, 2, 2});
  const Box3 occupied = workload::coverage_region(decomp.domain(), 0.5);
  TempDir dir("spio-nonadaptive");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {2, 2, 2};
  const WriteStats s = write_with(
      16, decomp,
      [&](int r, const PatchDecomposition& d) {
        return workload::uniform_in_region(
            Schema::uintah(), d.patch(r), occupied, 100,
            stream_seed(5, static_cast<std::uint64_t>(r)),
            static_cast<std::uint64_t>(r) * 100);
      },
      cfg);
  EXPECT_EQ(s.partition_count, 2);  // grid has 2 partitions along x
  EXPECT_EQ(s.files_written, 1);    // but only one holds particles
  EXPECT_EQ(Dataset::open(dir.path()).metadata().total_particles, 800u);
}

TEST(Adaptive, ClusteredDistributionRoundTrips) {
  const PatchDecomposition decomp(Box3::unit(), {2, 2, 2});
  TempDir dir("spio-clusters");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {2, 2, 2};
  cfg.adaptive = true;
  write_with(8, decomp,
             [&](int r, const PatchDecomposition& d) {
               // Only half the ranks hold particles, in tight clusters.
               if (r % 2 == 1) return ParticleBuffer(Schema::uintah());
               return workload::gaussian_clusters(
                   Schema::uintah(), d.patch(r), 200, 2, 0.1,
                   stream_seed(17, static_cast<std::uint64_t>(r)),
                   static_cast<std::uint64_t>(r) * 200);
             },
             cfg);
  const Dataset ds = Dataset::open(dir.path());
  EXPECT_EQ(ds.metadata().total_particles, 4u * 200u);
  EXPECT_EQ(id_set(ds.query_box(decomp.domain())).size(), 800u);
}

// ---- failure injection ----

TEST(FailureInjection, TruncatedDataFileDetectedOnRead) {
  const PatchDecomposition decomp(Box3::unit(), {2, 1, 1});
  TempDir dir("spio-trunc");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {1, 1, 1};
  write_with(2, decomp,
             [&](int r, const PatchDecomposition& d) {
               return uniform_rank_particles(r, d, 100);
             },
             cfg);
  // Truncate the first data file.
  const Dataset ds = Dataset::open(dir.path());
  const auto victim =
      dir.path() / ds.metadata().files[0].file_name();
  auto bytes = read_file(victim);
  bytes.resize(bytes.size() / 2);
  write_file(victim, bytes);
  EXPECT_THROW(ds.read_data_file(0), FormatError);
  EXPECT_THROW(ds.query_box(Box3::unit()), FormatError);
}

TEST(FailureInjection, MissingMetadataRejected) {
  TempDir dir("spio-nometa");
  EXPECT_THROW(Dataset::open(dir.path()), IoError);
}

TEST(FailureInjection, CorruptMetadataRejected) {
  const PatchDecomposition decomp(Box3::unit(), {2, 1, 1});
  TempDir dir("spio-corrupt");
  WriterConfig cfg;
  cfg.dir = dir.path();
  write_with(2, decomp,
             [&](int r, const PatchDecomposition& d) {
               return uniform_rank_particles(r, d, 10);
             },
             cfg);
  auto bytes = read_file(dir.file(DatasetMetadata::kFileName));
  bytes.resize(bytes.size() - 16);  // chop the tail of the record table
  write_file(dir.file(DatasetMetadata::kFileName), bytes);
  EXPECT_THROW(Dataset::open(dir.path()), FormatError);
}

TEST(Writer, AggregationMemoryGuard) {
  const PatchDecomposition decomp(Box3::unit(), {2, 2, 1});
  // All-to-one aggregation of 4 x 100 particles = 49,600 bytes.
  auto attempt = [&](std::uint64_t limit) {
    TempDir dir("spio-memguard");
    WriterConfig cfg;
    cfg.dir = dir.path();
    cfg.factor = {2, 2, 1};  // single aggregator
    cfg.max_aggregation_bytes = limit;
    simmpi::run(4, [&](simmpi::Comm& comm) {
      write_dataset(comm, decomp,
                    uniform_rank_particles(comm.rank(), decomp, 100), cfg);
    });
  };
  EXPECT_NO_THROW(attempt(0));        // unlimited
  EXPECT_NO_THROW(attempt(1 << 20));  // roomy
  EXPECT_THROW(attempt(10000), ConfigError);
}

TEST(Writer, RejectsBadConfigs) {
  const PatchDecomposition decomp(Box3::unit(), {2, 1, 1});
  EXPECT_THROW(
      simmpi::run(2,
                  [&](simmpi::Comm& comm) {
                    ParticleBuffer empty(Schema::uintah());
                    WriterConfig cfg;  // dir unset
                    write_dataset(comm, decomp, empty, cfg);
                  }),
      ConfigError);
  EXPECT_THROW(
      simmpi::run(2,
                  [&](simmpi::Comm& comm) {
                    ParticleBuffer empty(Schema::uintah());
                    WriterConfig cfg;
                    cfg.dir = "/tmp/spio-x";
                    cfg.factor = {0, 1, 1};
                    write_dataset(comm, decomp, empty, cfg);
                  }),
      ConfigError);
  // Rank count mismatch with the decomposition.
  EXPECT_THROW(
      simmpi::run(3,
                  [&](simmpi::Comm& comm) {
                    ParticleBuffer empty(Schema::uintah());
                    WriterConfig cfg;
                    cfg.dir = "/tmp/spio-x";
                    write_dataset(comm, decomp, empty, cfg);
                  }),
      ConfigError);
}

}  // namespace
}  // namespace spio
