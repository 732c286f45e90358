/// \file read_engine_test.cpp
/// The read engine's three guarantees, pinned:
///   1. the fused filter kernels are byte-identical to their retained
///      `*_reference` oracles on randomized schemas, boxes and filters
///      (NaNs included),
///   2. every query entry point returns byte-identical output under any
///      engine configuration (pool size, cache budget, SIMD level) — the
///      serial reference path is THE semantics, the engine only
///      reproduces it faster — and a collected result is exactly the
///      plan-order concatenation of its per-file chunks,
///   3. the buffer cache counts hits/misses/evictions correctly, a zero
///      budget reproduces plain reads exactly, and entries are never
///      served stale after a dataset is rewritten in place,
///   4. the plan executor behind every entry point raises the earliest
///      failing file in plan order and, after a failure or a stopping
///      sink, delivers nothing more and fetches at most a window ahead.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "core/read_engine.hpp"
#include "core/reader.hpp"
#include "core/restart.hpp"
#include "core/writer.hpp"
#include "simd/position_mirror.hpp"
#include "simd/simd_level.hpp"
#include "simmpi/runtime.hpp"
#include "util/rng.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

/// Scoped engine configuration: applies a pool size / cache budget and
/// restores the previous values (cache residents are dropped, which is
/// fine — they are a performance artifact, never a semantic one).
class EngineConfig {
 public:
  EngineConfig(int threads, std::uint64_t budget)
      : prev_threads_(ReadEngine::instance().concurrency()),
        prev_budget_(ReadEngine::instance().cache_budget()) {
    ReadEngine::instance().set_concurrency(threads);
    ReadEngine::instance().set_cache_budget(budget);
  }
  ~EngineConfig() {
    ReadEngine::instance().set_concurrency(prev_threads_);
    ReadEngine::instance().set_cache_budget(prev_budget_);
  }

 private:
  int prev_threads_;
  std::uint64_t prev_budget_;
};

bool same_bytes(std::span<const std::byte> a, std::span<const std::byte> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

Schema random_schema(Xoshiro256& rng) {
  std::vector<FieldDesc> fields{{"position", FieldType::kF64, 3}};
  const std::size_t extra = 1 + rng.uniform_index(3);
  for (std::size_t i = 0; i < extra; ++i)
    fields.push_back({"f" + std::to_string(i),
                      rng.uniform_index(2) == 0 ? FieldType::kF64
                                                : FieldType::kF32,
                      static_cast<std::uint32_t>(1 + rng.uniform_index(3))});
  return Schema(fields);
}

Box3 random_box(Xoshiro256& rng) {
  Box3 box;
  for (int a = 0; a < 3; ++a) {
    const double lo = rng.uniform(-0.1, 1.1);
    const double hi = rng.uniform(-0.1, 1.1);
    box.lo[a] = std::min(lo, hi);
    box.hi[a] = std::max(lo, hi);
  }
  return box;
}

// ---- 1. fused kernels vs reference oracles ----

TEST(ReadKernels, FilterBoxMatchesReferenceOnRandomInputs) {
  Xoshiro256 rng(401);
  for (int round = 0; round < 20; ++round) {
    const Schema schema = random_schema(rng);
    auto buf = workload::uniform(schema, Box3::unit(), 500 + rng.uniform_index(1500),
                                 rng.next(), 0);
    // Sprinkle NaN positions: Box3::contains excludes them, and both
    // kernels must agree on that.
    for (int k = 0; k < 5; ++k) {
      const std::size_t i = rng.uniform_index(buf.size());
      buf.set_position(i, {std::numeric_limits<double>::quiet_NaN(), 0.5, 0.5});
    }
    const Box3 box = random_box(rng);

    ParticleBuffer ref(schema), opt(schema);
    const auto nref =
        read_detail::filter_box_reference(buf.bytes(), schema, box, ref);
    const auto nopt = read_detail::filter_box(buf.bytes(), schema, box, opt);
    EXPECT_EQ(nref, nopt) << "round " << round;
    EXPECT_TRUE(same_bytes(ref.bytes(), opt.bytes())) << "round " << round;
  }
}

TEST(ReadKernels, FilterBoxRangesMatchesReferenceIncludingNaN) {
  Xoshiro256 rng(402);
  for (int round = 0; round < 20; ++round) {
    const Schema schema = random_schema(rng);
    auto buf = workload::uniform(schema, Box3::unit(), 1000, rng.next(), 0);

    // Filters over random (field, component) pairs of either type.
    std::vector<RangeFilter> filters;
    const std::size_t nf = 1 + rng.uniform_index(2);
    for (std::size_t k = 0; k < nf; ++k) {
      const std::size_t field = 1 + rng.uniform_index(schema.field_count() - 1);
      const FieldDesc& fd = schema.fields()[field];
      const std::uint32_t comp =
          static_cast<std::uint32_t>(rng.uniform_index(fd.components));
      const double a = rng.uniform(0, 1), b = rng.uniform(0, 1);
      filters.push_back({field, comp, std::min(a, b), std::max(a, b)});
    }
    // NaN attribute values pass a range filter (the reference's
    // `v < lo || v > hi` is false for NaN); pin that both agree.
    for (int k = 0; k < 5; ++k) {
      const std::size_t i = rng.uniform_index(buf.size());
      const RangeFilter& rf = filters[0];
      if (schema.fields()[rf.field].type == FieldType::kF64)
        buf.set_f64(i, rf.field, rf.component,
                    std::numeric_limits<double>::quiet_NaN());
      else
        buf.set_f32(i, rf.field, rf.component,
                    std::numeric_limits<float>::quiet_NaN());
    }
    const Box3 box = random_box(rng);

    ParticleBuffer ref(schema), opt(schema);
    const auto nref = read_detail::filter_box_ranges_reference(
        buf.bytes(), schema, box, filters, ref);
    const auto nopt =
        read_detail::filter_box_ranges(buf.bytes(), schema, box, filters, opt);
    EXPECT_EQ(nref, nopt) << "round " << round;
    EXPECT_TRUE(same_bytes(ref.bytes(), opt.bytes())) << "round " << round;
  }
}

TEST(ReadKernels, ParseSizeBytes) {
  std::uint64_t v = 0;
  EXPECT_TRUE(read_detail::parse_size_bytes("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(read_detail::parse_size_bytes("4096", &v));
  EXPECT_EQ(v, 4096u);
  EXPECT_TRUE(read_detail::parse_size_bytes("64k", &v));
  EXPECT_EQ(v, 64u << 10);
  EXPECT_TRUE(read_detail::parse_size_bytes("256M", &v));
  EXPECT_EQ(v, 256u << 20);
  EXPECT_TRUE(read_detail::parse_size_bytes("2g", &v));
  EXPECT_EQ(v, 2ull << 30);
  EXPECT_FALSE(read_detail::parse_size_bytes("", &v));
  EXPECT_FALSE(read_detail::parse_size_bytes("abc", &v));
  EXPECT_FALSE(read_detail::parse_size_bytes("12q", &v));
  EXPECT_FALSE(read_detail::parse_size_bytes("12kk", &v));
}

// ---- 2. engine output is configuration-independent ----

class ReadEngineQueries : public ::testing::Test {
 protected:
  static constexpr int kRanks = 8;
  static constexpr std::uint64_t kPerRank = 500;

  static void SetUpTestSuite() {
    dir_ = new TempDir("spio-engine");
    write_to(dir_->path(), 7);
  }
  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }

  /// Write the 8-rank, 8-file dataset — factor {1,1,1} keeps one file
  /// per patch so queries genuinely fan out over files. (The seed varies
  /// the payload, the shape stays identical — used by the
  /// in-place-rewrite test.)
  static void write_to(const std::filesystem::path& dir, int seed) {
    const PatchDecomposition decomp =
        PatchDecomposition::for_ranks(Box3::unit(), kRanks);
    WriterConfig cfg;
    cfg.dir = dir;
    cfg.factor = {1, 1, 1};
    simmpi::run(kRanks, [&](simmpi::Comm& comm) {
      const auto local = workload::uniform(
          Schema::uintah(), decomp.patch(comm.rank()), kPerRank,
          stream_seed(static_cast<std::uint64_t>(seed),
                      static_cast<std::uint64_t>(comm.rank())),
          static_cast<std::uint64_t>(comm.rank()) * kPerRank);
      write_dataset(comm, decomp, local, cfg);
    });
  }

  /// The retained serial reference path: per-file plain reads + the
  /// reference kernels, in file order. Computed with the cache off and
  /// the pool at 1, it is exactly the pre-engine read path.
  static ParticleBuffer reference_query_box(const Dataset& ds,
                                            const Box3& box) {
    EngineConfig serial(1, 0);
    ParticleBuffer out(ds.metadata().schema);
    for (const int fi : ds.metadata().files_intersecting(box)) {
      const ParticleBuffer buf = ds.read_data_file(fi);
      const auto& f = ds.metadata().files[static_cast<std::size_t>(fi)];
      if (box.contains_box(f.bounds))
        out.append_bytes(buf.bytes());
      else
        read_detail::filter_box_reference(buf.bytes(), ds.metadata().schema,
                                          box, out);
    }
    return out;
  }

  static ParticleBuffer reference_query(
      const Dataset& ds, const Box3& box,
      std::span<const Dataset::RangeFilter> filters) {
    EngineConfig serial(1, 0);
    ParticleBuffer out(ds.metadata().schema);
    for (const int fi : ds.metadata().files_intersecting(box)) {
      const ParticleBuffer buf = ds.read_data_file(fi);
      read_detail::filter_box_ranges_reference(
          buf.bytes(), ds.metadata().schema, box, filters, out);
    }
    return out;
  }

  static TempDir* dir_;
};

TempDir* ReadEngineQueries::dir_ = nullptr;

TEST_F(ReadEngineQueries, EveryEntryPointIsByteIdenticalAcrossConfigs) {
  const Dataset ds = Dataset::open(dir_->path());
  const Schema& schema = ds.metadata().schema;
  const Box3 box({0.2, 0.15, 0.3}, {0.85, 0.8, 0.7});
  const std::vector<Dataset::RangeFilter> filters{
      {schema.index_of("density"), 0, 990.0, 1050.0}};

  const ParticleBuffer want_box = reference_query_box(ds, box);
  const ParticleBuffer want_rq = reference_query(ds, box, filters);
  ASSERT_GT(want_box.size(), 0u);
  ASSERT_GT(want_rq.size(), 0u);

  struct Config {
    int threads;
    std::uint64_t budget;
  };
  // Serial/no-cache (the exact pre-engine path), a parallel pool with a
  // roomy cache, a parallel pool with no cache, and a cache so small it
  // evicts on every fetch.
  for (const Config c : {Config{1, 0}, Config{4, 64ull << 20}, Config{4, 0},
                         Config{2, 200 << 10}}) {
    EngineConfig cfg(c.threads, c.budget);
    for (int pass = 0; pass < 2; ++pass) {  // pass 1 re-reads (cache warm)
      const ParticleBuffer got_box = ds.query_box(box);
      EXPECT_TRUE(same_bytes(got_box.bytes(), want_box.bytes()))
          << "query_box threads=" << c.threads << " budget=" << c.budget
          << " pass=" << pass;

      const ParticleBuffer got_rq = ds.query(box, filters);
      EXPECT_TRUE(same_bytes(got_rq.bytes(), want_rq.bytes()))
          << "query threads=" << c.threads << " budget=" << c.budget;

      const ParticleBuffer got_scan = ds.query_box_scan_all(box);
      EXPECT_TRUE(same_bytes(got_scan.bytes(), want_box.bytes()))
          << "query_box_scan_all threads=" << c.threads
          << " budget=" << c.budget;

      ParticleBuffer streamed(schema);
      ds.stream_box(box, [&](const ParticleBuffer& chunk) {
        streamed.append_bytes(chunk.bytes());
        return true;
      });
      EXPECT_TRUE(same_bytes(streamed.bytes(), want_box.bytes()))
          << "stream_box threads=" << c.threads << " budget=" << c.budget;
    }
  }
}

/// The collected result of every materializing entry point is the
/// plan-order concatenation of each planned file's prefix through the
/// `*_reference` kernels, byte for byte, whatever shape its chunks take:
/// one file (the chunk is moved out as the result), chunks that are all
/// empty, and whole-file fast-path chunks mixed with filtered ones — at
/// every pool size and cache budget, on the SIMD kernels and under a
/// scalar cap.
TEST_F(ReadEngineQueries, CollectedResultIsPlanOrderConcatOfReferenceChunks) {
  const Dataset ds = Dataset::open(dir_->path());
  const Schema& schema = ds.metadata().schema;
  const std::vector<Dataset::RangeFilter> filters{
      {schema.index_of("density"), 0, 990.0, 1050.0}};

  const auto oracle = [&](const std::vector<FilePlan>& plan, const Box3& box,
                          std::span<const Dataset::RangeFilter> f) {
    EngineConfig serial(1, 0);
    ParticleBuffer out(schema);
    for (const FilePlan& p : plan) {
      const Dataset::FilePrefix prefix =
          ds.fetch_file_records(p.file, p.fetch_records, nullptr);
      if (f.empty())
        read_detail::filter_box_reference(prefix.bytes(), schema, box, out);
      else
        read_detail::filter_box_ranges_reference(prefix.bytes(), schema, box,
                                                 f, out);
    }
    return out;
  };
  std::vector<FilePlan> every_file;
  for (int fi = 0; fi < ds.file_count(); ++fi) {
    const std::uint64_t n =
        ds.metadata().files[static_cast<std::size_t>(fi)].particle_count;
    every_file.push_back({fi, n, n});
  }

  // The patches are the octants of the unit cube, one file each.
  const double eps = 1e-9;
  const Box3 one_file({0.1, 0.1, 0.1}, {0.4, 0.4, 0.4});
  const Box3 empty_probe({0.5 - eps, 0.5 - eps, 0.5 - eps},
                         {0.5 + eps, 0.5 + eps, 0.5 + eps});
  const Box3 mixed({-0.1, -0.1, -0.1}, {0.75, 1.1, 1.1});
  ASSERT_EQ(ds.plan_query(one_file, {}).files.size(), 1u);
  ASSERT_EQ(oracle(every_file, empty_probe, {}).size(), 0u);
  std::size_t whole = 0;
  const std::vector<FilePlan> mixed_plan = ds.plan_query(mixed, {}).files;
  for (const FilePlan& p : mixed_plan)
    whole += mixed.contains_box(
        ds.metadata().files[static_cast<std::size_t>(p.file)].bounds);
  ASSERT_GT(whole, 0u);
  ASSERT_LT(whole, mixed_plan.size());

  std::vector<simd::Level> levels{simd::active_level()};
  if (levels.front() != simd::Level::kScalar)
    levels.push_back(simd::Level::kScalar);
  for (const Box3& box : {one_file, empty_probe, mixed}) {
    const ParticleBuffer want_box =
        oracle(ds.plan_query(box, {}).files, box, {});
    const ParticleBuffer want_rq =
        oracle(ds.plan_query(box, filters).files, box, filters);
    const ParticleBuffer want_scan = oracle(every_file, box, {});
    for (const int threads : {1, 4}) {
      for (const std::uint64_t budget : {0ull, 64ull << 20}) {
        EngineConfig cfg(threads, budget);
        for (const simd::Level level : levels) {
          simd::ScopedLevelCap cap(level);
          ReadEngine::instance().clear_cache();
          for (int pass = 0; pass < 2; ++pass) {  // cold, then warm
            const std::string where =
                "box " + std::to_string(box.lo.x) + ".." +
                std::to_string(box.hi.x) + " threads=" +
                std::to_string(threads) + " budget=" + std::to_string(budget) +
                " level=" + simd::level_name(level) +
                " pass=" + std::to_string(pass);
            EXPECT_TRUE(same_bytes(ds.query_box(box).bytes(),
                                   want_box.bytes()))
                << "query_box " << where;
            EXPECT_TRUE(same_bytes(ds.query(box, filters).bytes(),
                                   want_rq.bytes()))
                << "query " << where;
            EXPECT_TRUE(same_bytes(ds.query_box_scan_all(box).bytes(),
                                   want_scan.bytes()))
                << "query_box_scan_all " << where;
          }
        }
      }
    }
  }
}

/// The paper's restart read at a different rank count is serial-
/// equivalent: every reader's bytes are the same whatever the engine's
/// pool size, cache budget and warmth.
TEST_F(ReadEngineQueries, RestartReadIsByteIdenticalAcrossConfigs) {
  const PatchDecomposition decomp =
      PatchDecomposition::for_ranks(Box3::unit(), 4);

  const auto run_once = [&] {
    std::vector<std::vector<std::byte>> per_rank(4);
    simmpi::run(4, [&](simmpi::Comm& comm) {
      ParticleBuffer mine = restart_read(comm, decomp, dir_->path());
      per_rank[static_cast<std::size_t>(comm.rank())] = mine.take_bytes();
    });
    return per_rank;
  };

  std::vector<std::vector<std::byte>> want;
  {
    EngineConfig serial(1, 0);
    want = run_once();
  }
  std::size_t total = 0;
  for (const auto& bytes : want) {
    EXPECT_FALSE(bytes.empty());
    total += bytes.size();
  }
  EXPECT_EQ(total, Dataset::open(dir_->path()).metadata().total_particles *
                       Schema::uintah().record_size());
  for (const int threads : {1, 4}) {
    for (const std::uint64_t budget :
         {std::uint64_t{0}, std::uint64_t{64} << 20}) {
      EngineConfig cfg(threads, budget);
      ReadEngine::instance().clear_cache();
      for (int pass = 0; pass < 2; ++pass) {  // pass 0 cold, pass 1 warm
        const auto got = run_once();
        for (int r = 0; r < 4; ++r)
          EXPECT_TRUE(same_bytes(got[static_cast<std::size_t>(r)],
                                 want[static_cast<std::size_t>(r)]))
              << "rank " << r << " threads=" << threads
              << " budget=" << budget << " pass=" << pass;
      }
    }
  }
}

TEST_F(ReadEngineQueries, StreamBoxStopsEarlyUnderPrefetch) {
  const Dataset ds = Dataset::open(dir_->path());
  EngineConfig cfg(4, 64ull << 20);
  std::uint64_t first_chunk = 0, calls = 0;
  const std::uint64_t delivered =
      ds.stream_box(ds.metadata().domain, [&](const ParticleBuffer& chunk) {
        ++calls;
        first_chunk = chunk.size();
        return false;  // stop after the first chunk
      });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(delivered, first_chunk);
  EXPECT_GT(delivered, 0u);
}

TEST_F(ReadEngineQueries, StatsCountIoTimeAndExactReturns) {
  const Dataset ds = Dataset::open(dir_->path());
  const Schema& schema = ds.metadata().schema;
  EngineConfig cfg(1, 0);
  const Box3 box({0.1, 0.1, 0.1}, {0.9, 0.9, 0.9});

  // Satellite of the engine PR: per-file file_io_seconds used to be
  // dropped by the query paths; now every opened file contributes.
  ReadStats rs;
  const ParticleBuffer out = ds.query_box(box, -1, 1, &rs);
  EXPECT_GT(rs.files_opened, 0);
  EXPECT_GT(rs.file_io_seconds, 0.0);
  EXPECT_EQ(rs.particles_returned, out.size());
  EXPECT_GE(rs.particles_scanned, rs.particles_returned);

  // `query` counts returns exactly (no subtract-and-recount): returned
  // equals the result size even though files are read whole and then
  // filtered.
  const std::vector<Dataset::RangeFilter> filters{
      {schema.index_of("density"), 0, 0.0, 1e30}};
  ReadStats rq;
  const ParticleBuffer out2 = ds.query(box, filters, -1, 1, &rq);
  EXPECT_EQ(rq.particles_returned, out2.size());
  EXPECT_GT(rq.file_io_seconds, 0.0);
}

// ---- 3. cache semantics ----

TEST_F(ReadEngineQueries, CacheCountsHitsMissesAndServesWarmQueriesFromMemory) {
  const Dataset ds = Dataset::open(dir_->path());
  EngineConfig cfg(1, 64ull << 20);
  ReadEngine& eng = ReadEngine::instance();
  eng.clear_cache();
  eng.reset_cache_stats();
  const Box3 box({0.1, 0.1, 0.1}, {0.9, 0.9, 0.9});

  ReadStats cold;
  ds.query_box(box, -1, 1, &cold);
  EXPECT_GT(cold.files_opened, 0);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, static_cast<std::uint64_t>(cold.files_opened));

  ReadStats warm;
  ds.query_box(box, -1, 1, &warm);
  EXPECT_EQ(warm.files_opened, 0);
  EXPECT_EQ(warm.bytes_read, 0u);
  EXPECT_EQ(warm.cache_hits, static_cast<std::uint64_t>(cold.files_opened));
  EXPECT_EQ(warm.cache_misses, 0u);
  // The warm pass still scanned every cached prefix.
  EXPECT_EQ(warm.particles_scanned, cold.particles_scanned);

  const ReadCacheStats cs = eng.cache_stats();
  EXPECT_EQ(cs.misses, warm.cache_hits);
  EXPECT_GE(cs.hits, warm.cache_hits);
  EXPECT_GT(cs.bytes_held, 0u);
  EXPECT_EQ(cs.entries, static_cast<std::uint64_t>(cold.files_opened));
}

TEST_F(ReadEngineQueries, TinyBudgetEvictsAndZeroBudgetBypasses) {
  const Dataset ds = Dataset::open(dir_->path());
  ReadEngine& eng = ReadEngine::instance();
  const Box3 box = ds.metadata().domain;

  {
    // Budget of the largest file entry — prefix plus its SoA position
    // mirror when SIMD dispatch will build one: every fetch fits but
    // evicts the previously-cached file.
    const bool mirrored =
        simd::active_level() != simd::Level::kScalar;
    std::uint64_t one_file = 0;
    for (const auto& f : ds.metadata().files) {
      std::uint64_t charge =
          f.particle_count * ds.metadata().schema.record_size();
      if (mirrored)
        charge += PositionMirror::bytes_for_count(
            static_cast<std::size_t>(f.particle_count));
      one_file = std::max<std::uint64_t>(one_file, charge);
    }
    EngineConfig cfg(1, one_file);
    eng.clear_cache();
    eng.reset_cache_stats();
    ds.query_box(box);
    ds.query_box(box);
    const ReadCacheStats cs = eng.cache_stats();
    EXPECT_GT(cs.evictions, 0u);
    EXPECT_GT(cs.bytes_evicted, 0u);
    EXPECT_LE(cs.bytes_held, one_file);
    EXPECT_LE(cs.entries, 1u);
  }
  {
    // Zero budget: plain reads, no cache traffic at all.
    EngineConfig cfg(1, 0);
    eng.reset_cache_stats();
    ReadStats rs;
    ds.query_box(box, -1, 1, &rs);
    EXPECT_EQ(rs.cache_hits, 0u);
    EXPECT_EQ(rs.cache_misses, 0u);
    EXPECT_EQ(rs.files_opened, ds.file_count());
    const ReadCacheStats cs = eng.cache_stats();
    EXPECT_EQ(cs.hits, 0u);
    EXPECT_EQ(cs.misses, 0u);
    EXPECT_EQ(cs.bytes_held, 0u);
  }
}

/// The whole budget serves every file: a working set of 8 prefixes (and
/// their mirrors) under a budget of 1.1x their sum stays resident, so a
/// warm repeat reads nothing from disk. A budget split into per-key
/// partitions, none large enough for two files, fails this as soon as
/// two files share a partition.
TEST_F(ReadEngineQueries, WorkingSetWithinBudgetIsServedWarmFromMemory) {
  const Dataset ds = Dataset::open(dir_->path());
  ReadEngine& eng = ReadEngine::instance();
  // Inset from the domain, so every file is partially covered: each
  // fetch reads the whole prefix and, under SIMD dispatch, builds its
  // mirror.
  const Box3 box({0.01, 0.01, 0.01}, {0.99, 0.99, 0.99});
  ASSERT_EQ(ds.metadata().files_intersecting(box).size(),
            static_cast<std::size_t>(ds.file_count()));

  const bool mirrored = simd::active_level() != simd::Level::kScalar;
  std::uint64_t working_set = 0;
  for (const auto& f : ds.metadata().files) {
    working_set += f.particle_count * ds.metadata().schema.record_size();
    if (mirrored)
      working_set += PositionMirror::bytes_for_count(
          static_cast<std::size_t>(f.particle_count));
  }
  EngineConfig cfg(4, working_set + working_set / 10);
  eng.clear_cache();
  eng.reset_cache_stats();

  ReadStats cold;
  const ParticleBuffer first = ds.query_box(box, -1, 1, &cold);
  EXPECT_EQ(cold.cache_misses, static_cast<std::uint64_t>(ds.file_count()));
  EXPECT_EQ(eng.cache_stats().bytes_held, working_set);

  ReadStats warm;
  const ParticleBuffer again = ds.query_box(box, -1, 1, &warm);
  EXPECT_EQ(warm.bytes_read, 0u);
  EXPECT_EQ(warm.files_opened, 0);
  EXPECT_EQ(warm.cache_hits, static_cast<std::uint64_t>(ds.file_count()));
  EXPECT_EQ(eng.cache_stats().evictions, 0u);
  EXPECT_TRUE(same_bytes(first.bytes(), again.bytes()));
}

TEST_F(ReadEngineQueries, RewrittenDatasetIsNeverServedStale) {
  TempDir dir("spio-engine-rewrite");
  write_to(dir.path(), 100);
  EngineConfig cfg(1, 64ull << 20);
  ReadEngine& eng = ReadEngine::instance();
  eng.clear_cache();

  const Box3 box({0.1, 0.1, 0.1}, {0.9, 0.9, 0.9});
  const Dataset before = Dataset::open(dir.path());
  const ParticleBuffer old_out = before.query_box(box);  // primes the cache

  // Rewrite in place with different payloads (identical shape, so the
  // file sizes do not change), then push every data file's mtime well
  // past filesystem timestamp granularity.
  write_to(dir.path(), 101);
  const Dataset after = Dataset::open(dir.path());
  for (const auto& f : after.metadata().files) {
    const auto p = dir.path() / f.file_name();
    std::filesystem::last_write_time(
        p, std::filesystem::last_write_time(p) + std::chrono::seconds(5));
  }

  const ParticleBuffer fresh = [&] {
    EngineConfig bypass(1, 0);
    return after.query_box(box);
  }();
  ReadStats rs;
  const ParticleBuffer got = after.query_box(box, -1, 1, &rs);
  EXPECT_EQ(rs.cache_hits, 0u) << "stale prefixes must not satisfy fetches";
  EXPECT_TRUE(same_bytes(got.bytes(), fresh.bytes()));
  EXPECT_FALSE(same_bytes(got.bytes(), old_out.bytes()))
      << "rewrite with a different seed should change the query payload";
}

TEST_F(ReadEngineQueries, ConcurrentQueriesOnOneDatasetStayByteIdentical) {
  // 4 simmpi ranks querying one Dataset through a 4-thread pool and a
  // shared cache — the TSan-watched contention case.
  const Dataset ds = Dataset::open(dir_->path());
  EngineConfig cfg(4, 64ull << 20);
  const Box3 box({0.2, 0.15, 0.3}, {0.85, 0.8, 0.7});
  const ParticleBuffer want = reference_query_box(ds, box);

  std::mutex mu;
  std::vector<bool> ok;
  simmpi::run(4, [&](simmpi::Comm& comm) {
    (void)comm;
    for (int i = 0; i < 3; ++i) {
      const ParticleBuffer got = ds.query_box(box);
      const bool match = same_bytes(got.bytes(), want.bytes());
      std::lock_guard lk(mu);
      ok.push_back(match);
    }
  });
  EXPECT_EQ(ok.size(), 12u);
  for (const bool b : ok) EXPECT_TRUE(b);
}

// ---- 4. executor error and stop rules ----

/// Installs a fetch hook that counts every real disk read and throws
/// `IoError` for the named data files; removes it on destruction.
class FailingFetches {
 public:
  explicit FailingFetches(std::vector<std::string> failing)
      : failing_(std::move(failing)) {
    ReadEngine::instance().set_fetch_hook(
        [this](const std::filesystem::path& p, std::uint64_t) {
          reads_.fetch_add(1);
          const std::string name = p.filename().string();
          for (const std::string& f : failing_)
            if (name == f) throw IoError("injected read failure in " + name);
        });
  }
  ~FailingFetches() { ReadEngine::instance().set_fetch_hook(nullptr); }

  int reads() const { return reads_.load(); }
  void reset() { reads_.store(0); }

 private:
  std::vector<std::string> failing_;
  std::atomic<int> reads_{0};
};

TEST_F(ReadEngineQueries, ExecutorRaisesEarliestFailureAndStopsDelivering) {
  const Dataset ds = Dataset::open(dir_->path());
  const Schema& schema = ds.metadata().schema;
  const Box3 box = ds.metadata().domain;
  const std::vector<Dataset::RangeFilter> filters{
      {schema.index_of("density"), 0, -1e30, 1e30}};
  // The whole domain plans every file, and every file has particles in
  // it, so each planned file yields one non-empty chunk.
  const std::vector<FilePlan> plan = ds.plan_query(box, {}).files;
  ASSERT_EQ(plan.size(), static_cast<std::size_t>(kRanks));
  const auto name_at = [&](std::size_t k) {
    return ds.metadata().files[static_cast<std::size_t>(plan[k].file)]
        .file_name();
  };
  constexpr std::size_t kEarly = 2, kLate = 5;
  const std::string early = name_at(kEarly);

  ReadEngine& eng = ReadEngine::instance();
  for (const int threads : {1, 4}) {
    for (const std::uint64_t budget : {0ull, 64ull << 20}) {
      EngineConfig cfg(threads, budget);
      const std::string where = "threads=" + std::to_string(threads) +
                                " budget=" + std::to_string(budget);
      const auto expect_early_error = [&](const char* entry,
                                          const std::function<void()>& run) {
        eng.clear_cache();
        try {
          run();
          ADD_FAILURE() << entry << " did not throw, " << where;
        } catch (const IoError& e) {
          EXPECT_NE(std::string(e.what()).find(early), std::string::npos)
              << entry << " raised '" << e.what() << "', " << where;
        }
      };
      {
        FailingFetches hook({name_at(kLate), early});
        expect_early_error("query_box", [&] { ds.query_box(box); });
        expect_early_error("query", [&] { ds.query(box, filters); });
        std::size_t calls = 0;
        expect_early_error("stream_box", [&] {
          ds.stream_box(box, [&](const ParticleBuffer&) {
            ++calls;
            return true;
          });
        });
        // Only the chunks before the failing file reach the sink.
        EXPECT_EQ(calls, kEarly) << where;

        // A sink that stops before the failing file ends the query
        // normally, even when the failing file was already prefetched.
        eng.clear_cache();
        calls = 0;
        EXPECT_NO_THROW(ds.stream_box(box, [&](const ParticleBuffer&) {
          return ++calls < kEarly;
        })) << where;
        EXPECT_EQ(calls, kEarly) << where;
      }
      {
        // After the sink stops on chunk k, at most `concurrency()` files
        // past it have been fetched — exactly none with a pool of 1.
        FailingFetches hook({});
        for (const std::size_t stop_at : {std::size_t{0}, std::size_t{3}}) {
          eng.clear_cache();
          hook.reset();
          std::size_t calls = 0;
          ds.stream_box(box, [&](const ParticleBuffer&) {
            return calls++ < stop_at;
          });
          EXPECT_EQ(calls, stop_at + 1) << where;
          const int past = hook.reads() - static_cast<int>(stop_at + 1);
          EXPECT_GE(past, 0) << where;
          EXPECT_LE(past, eng.concurrency()) << where;
          if (threads == 1) {
            EXPECT_EQ(past, 0) << where;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace spio
