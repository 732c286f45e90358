/// \file access_profile_test.cpp
/// Oracle differential suite for the spatial access profiler (ctest
/// label `profile`). The profiler's byte semantics are pinned against
/// two independent oracles:
///   - `bytes_fetched` must byte-match an instrumented
///     `ReadEngine::FetchHook` — the hook fires on every real disk read
///     (bypass + single-flight leader) and on nothing else, so cache
///     hits, followers, and coalesced service waiters must add nothing,
///   - `bytes_used` must byte-match what each query actually returned.
/// Both hold across box/range/LOD/stream queries, cold and warm caches,
/// and serial vs engine vs service execution; the detailed per-query
/// records must have per-file splits summing exactly to query totals.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/query_service.hpp"
#include "core/read_engine.hpp"
#include "core/reader.hpp"
#include "core/restart.hpp"
#include "core/writer.hpp"
#include "obs/access_profile.hpp"
#include "obs/json.hpp"
#include "simmpi/runtime.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

/// Scoped engine configuration (pool size / cache budget), restored on
/// destruction.
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

/// The fetch-hook oracle: sums the prefix bytes of every real disk read
/// the engine performs while installed. An optional per-read sleep
/// widens the single-flight window so concurrent cold queries reliably
/// produce followers.
class FetchOracle {
 public:
  explicit FetchOracle(int sleep_ms = 0) {
    ReadEngine::instance().set_fetch_hook(
        [this, sleep_ms](const std::filesystem::path&, std::uint64_t bytes) {
          if (sleep_ms > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
          std::lock_guard lk(mu_);
          bytes_ += bytes;
          ++reads_;
        });
  }
  ~FetchOracle() { ReadEngine::instance().set_fetch_hook({}); }

  std::uint64_t bytes() const {
    std::lock_guard lk(mu_);
    return bytes_;
  }
  std::uint64_t reads() const {
    std::lock_guard lk(mu_);
    return reads_;
  }

 private:
  mutable std::mutex mu_;
  std::uint64_t bytes_ = 0;
  std::uint64_t reads_ = 0;
};

/// Fresh accounting for one test: cache emptied (so cold means cold)
/// and every profiler slot zeroed.
void reset_accounting() {
  ReadEngine::instance().clear_cache();
  ReadEngine::instance().reset_cache_stats();
  obs::AccessProfiler::instance().reset_counters();
}

/// The profiler's totals: the sum of every registered file's slot.
struct Totals {
  std::uint64_t accesses = 0;
  std::uint64_t bytes_scanned = 0;
  std::uint64_t bytes_fetched = 0;
  std::uint64_t bytes_used = 0;
};

Totals profile_totals() {
  Totals t;
  for (const auto& f : obs::AccessProfiler::instance().snapshot_files()) {
    t.accesses += f.accesses;
    t.bytes_scanned += f.bytes_scanned;
    t.bytes_fetched += f.bytes_fetched;
    t.bytes_used += f.bytes_used;
  }
  return t;
}

class AccessProfileTest : public ::testing::Test {
 protected:
  static constexpr int kRanks = 8;
  static constexpr std::uint64_t kPerRank = 600;

  static void SetUpTestSuite() {
    dir_ = new TempDir("spio-profile");
    const PatchDecomposition decomp =
        PatchDecomposition::for_ranks(Box3::unit(), kRanks);
    WriterConfig cfg;
    cfg.dir = dir_->path();
    cfg.factor = {1, 1, 1};  // one file per patch: queries fan out
    simmpi::run(kRanks, [&](simmpi::Comm& comm) {
      const auto local = workload::uniform(
          Schema::uintah(), decomp.patch(comm.rank()), kPerRank,
          stream_seed(83, static_cast<std::uint64_t>(comm.rank())),
          static_cast<std::uint64_t>(comm.rank()) * kPerRank);
      write_dataset(comm, decomp, local, cfg);
    });
  }
  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }

  /// Run one of each query shape (box, range, LOD, stream) and return
  /// the total bytes they handed back to the caller.
  static std::uint64_t run_query_mix(const Dataset& ds) {
    const Schema& schema = ds.metadata().schema;
    const Box3 box({0.1, 0.1, 0.1}, {0.9, 0.9, 0.9});
    const std::vector<Dataset::RangeFilter> filters{
        {schema.index_of("density"), 0, 990.0, 1060.0}};
    std::uint64_t returned = 0;
    returned += ds.query_box(box).byte_size();
    returned += ds.query(box, filters).byte_size();
    returned += ds.query_box(box, /*levels=*/2).byte_size();  // LOD subset
    ds.stream_box(box, [&](const ParticleBuffer& chunk) {
      returned += chunk.byte_size();
      return true;
    });
    return returned;
  }

  static TempDir* dir_;
};

TempDir* AccessProfileTest::dir_ = nullptr;

// ---- bytes_fetched vs the fetch-hook oracle ----

TEST_F(AccessProfileTest, FetchedBytesMatchHookOracleAcrossConfigsAndWarmth) {
  const Dataset ds = Dataset::open(dir_->path());

  struct Config {
    int threads;
    std::uint64_t budget;
  };
  // Serial/no-cache (every fetch a bypass), serial with cache, and the
  // pooled engine with cache — the three execution shapes of the read
  // path outside the service.
  for (const Config c : {Config{1, 0}, Config{1, 64ull << 20},
                         Config{4, 64ull << 20}}) {
    EngineConfig cfg(c.threads, c.budget);
    reset_accounting();
    FetchOracle oracle;

    const std::uint64_t cold_returned = run_query_mix(ds);
    ASSERT_GT(cold_returned, 0u);
    Totals t = profile_totals();
    EXPECT_EQ(t.bytes_fetched, oracle.bytes())
        << "cold, threads=" << c.threads << " budget=" << c.budget;
    EXPECT_GT(t.bytes_fetched, 0u);

    // Warm pass: with the cache on, hits must add nothing to either
    // side; with it off, both sides grow by the same plain re-reads.
    run_query_mix(ds);
    t = profile_totals();
    EXPECT_EQ(t.bytes_fetched, oracle.bytes())
        << "warm, threads=" << c.threads << " budget=" << c.budget;
    if (c.budget > 0) {
      // Everything fit, so the warm mix fetched nothing new.
      EXPECT_GT(t.accesses, 0u);
      EXPECT_GT(t.bytes_scanned, t.bytes_fetched);
    }
  }
}

TEST_F(AccessProfileTest, UsedBytesMatchReturnedBytes) {
  const Dataset ds = Dataset::open(dir_->path());

  for (const int threads : {1, 4}) {
    EngineConfig cfg(threads, 64ull << 20);
    reset_accounting();
    const std::uint64_t returned = run_query_mix(ds);
    const Totals t = profile_totals();
    EXPECT_EQ(t.bytes_used, returned) << "threads=" << threads;
    EXPECT_GE(t.bytes_scanned, t.bytes_used) << "threads=" << threads;
    EXPECT_GE(t.bytes_scanned, t.bytes_fetched) << "threads=" << threads;
  }

  // The scan-all baseline filters every record of every file: used
  // equals returned there too, while scanned covers the whole dataset.
  EngineConfig cfg(1, 0);
  reset_accounting();
  const Box3 corner({0.0, 0.0, 0.0}, {0.4, 0.4, 0.4});
  const ParticleBuffer out = ds.query_box_scan_all(corner);
  const Totals t = profile_totals();
  EXPECT_EQ(t.bytes_used, out.byte_size());
  EXPECT_EQ(t.bytes_scanned, ds.metadata().total_particles *
                                 ds.metadata().schema.record_size());
}

TEST_F(AccessProfileTest, PerFileSlotInvariantsHold) {
  const Dataset ds = Dataset::open(dir_->path());
  auto& prof = obs::AccessProfiler::instance();
  EngineConfig cfg(4, 64ull << 20);
  reset_accounting();
  run_query_mix(ds);
  run_query_mix(ds);  // warm pass adds hits

  const auto files = prof.snapshot_files(/*touched_only=*/true);
  ASSERT_FALSE(files.empty());
  Totals sum;
  for (const auto& f : files) {
    EXPECT_EQ(f.hits + f.misses + f.followers + f.bypasses, f.accesses)
        << f.name;
    EXPECT_LE(f.bytes_fetched, f.bytes_scanned) << f.name;
    EXPECT_GT(f.particle_count, 0u) << f.name;
    EXPECT_GT(f.last_touch_us, 0u) << f.name;
    EXPECT_FALSE(f.name.empty());
    sum.accesses += f.accesses;
    sum.bytes_scanned += f.bytes_scanned;
    sum.bytes_fetched += f.bytes_fetched;
    sum.bytes_used += f.bytes_used;
  }
  // Per-file slots are the only accounting: the profile document's
  // totals are exactly their sum.
  const obs::JsonValue doc = obs::JsonValue::parse(prof.dump());
  const obs::JsonValue& t = doc.at("totals");
  EXPECT_EQ(t.at("accesses").as_u64(), sum.accesses);
  EXPECT_EQ(t.at("bytes_scanned").as_u64(), sum.bytes_scanned);
  EXPECT_EQ(t.at("bytes_fetched").as_u64(), sum.bytes_fetched);
  EXPECT_EQ(t.at("bytes_used").as_u64(), sum.bytes_used);
  EXPECT_EQ(prof.unattributed(), 0u);
}

// ---- concurrency: followers and coalesced waiters never double-count ----

TEST_F(AccessProfileTest, ConcurrentColdQueriesNeverDoubleCountDiskBytes) {
  const Dataset ds = Dataset::open(dir_->path());
  EngineConfig cfg(4, 64ull << 20);
  reset_accounting();
  // The sleeping hook holds every leader in the read long enough that
  // concurrent ranks reliably join as single-flight followers.
  FetchOracle oracle(/*sleep_ms=*/3);

  const Box3 box({0.1, 0.1, 0.1}, {0.9, 0.9, 0.9});
  simmpi::run(4, [&](simmpi::Comm& comm) {
    (void)comm;
    const ParticleBuffer out = ds.query_box(box);
    ASSERT_GT(out.size(), 0u);
  });

  const Totals t = profile_totals();
  EXPECT_EQ(t.bytes_fetched, oracle.bytes())
      << "followers or hits charged disk bytes they did not read";
  // All four ranks scanned every intersecting prefix; the disk saw each
  // at most a handful of times (once, outside a narrow single-flight
  // re-entry race — which the oracle equality above still covers).
  EXPECT_GE(t.bytes_scanned, t.bytes_fetched);
}

TEST_F(AccessProfileTest, CoalescedServiceWaitersNeverDoubleCount) {
  const Dataset ds = Dataset::open(dir_->path());
  EngineConfig cfg(4, 64ull << 20);
  reset_accounting();
  FetchOracle oracle(/*sleep_ms=*/2);

  const Box3 box({0.2, 0.2, 0.2}, {0.8, 0.8, 0.8});
  QueryService svc(ServiceConfig{2, 256, {}});
  std::atomic<std::uint64_t> returned{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c)
    clients.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        QueryService::Options opt;
        opt.coalesce_key = "hot-box";  // every client hammers one key
        const QueryService::Result got =
            svc.run([&ds, &box] { return ds.query_box(box); }, opt);
        returned += got->byte_size();
      }
    });
  for (auto& t : clients) t.join();
  const ServiceStats stats = svc.stats();
  svc.shutdown();

  ASSERT_GT(returned.load(), 0u);
  EXPECT_GT(stats.coalesced, 0u) << "the coalescing path was never exercised";
  const Totals t = profile_totals();
  // Coalesced waiters share one execution: disk bytes match the hook
  // exactly, and used bytes reflect executions, not client completions.
  EXPECT_EQ(t.bytes_fetched, oracle.bytes());
  EXPECT_LT(t.bytes_used, returned.load());
}

TEST_F(AccessProfileTest, RestartReadFetchedBytesMatchHookOracle) {
  EngineConfig cfg(4, 64ull << 20);
  reset_accounting();
  FetchOracle oracle;

  const PatchDecomposition decomp =
      PatchDecomposition::for_ranks(Box3::unit(), 4);
  std::atomic<std::uint64_t> bytes{0};
  simmpi::run(4, [&](simmpi::Comm& comm) {
    bytes += restart_read(comm, decomp, dir_->path()).byte_size();
  });
  ASSERT_EQ(bytes.load(), kRanks * kPerRank * Schema::uintah().record_size());

  const Totals t = profile_totals();
  EXPECT_EQ(t.bytes_fetched, oracle.bytes());
  // The reader patches tile the domain, so every record is used by
  // exactly one reader.
  EXPECT_EQ(t.bytes_used, bytes.load());
  EXPECT_GE(t.bytes_scanned, t.bytes_used);
}

// ---- detailed per-query records ----

TEST_F(AccessProfileTest, DetailedRecordsSplitSumsExactlyToQueryTotals) {
  const Dataset ds = Dataset::open(dir_->path());
  auto& prof = obs::AccessProfiler::instance();
  EngineConfig cfg(4, 64ull << 20);
  reset_accounting();
  prof.set_detailed(true);  // collect records; no auto-write

  run_query_mix(ds);
  const std::string text = prof.dump();
  prof.set_detailed(false);

  const obs::JsonValue doc = obs::JsonValue::parse(text);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("format").as_string(), "spio.access_profile");
  EXPECT_EQ(doc.at("version").as_u64(), 1u);

  const obs::JsonValue& queries = doc.at("queries");
  // query_box, query, LOD query_box, stream_box.
  ASSERT_EQ(queries.size(), 4u);
  std::set<std::uint64_t> qids;
  std::set<std::string> kinds;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const obs::JsonValue& q = queries.at(i);
    const std::uint64_t qid = q.at("qid").as_u64();
    EXPECT_NE(qid, 0u);
    qids.insert(qid);
    kinds.insert(q.at("kind").as_string());

    std::uint64_t scanned = 0, fetched = 0, used = 0;
    const obs::JsonValue& files = q.at("files");
    ASSERT_GT(files.size(), 0u) << "query " << i;
    for (std::size_t f = 0; f < files.size(); ++f) {
      scanned += files.at(f).at("bytes_scanned").as_u64();
      fetched += files.at(f).at("bytes_fetched").as_u64();
      used += files.at(f).at("bytes_used").as_u64();
    }
    EXPECT_EQ(scanned, q.at("bytes_scanned").as_u64()) << "query " << i;
    EXPECT_EQ(fetched, q.at("bytes_fetched").as_u64()) << "query " << i;
    EXPECT_EQ(used, q.at("bytes_used").as_u64()) << "query " << i;
    EXPECT_LE(fetched, scanned) << "query " << i;
  }
  EXPECT_EQ(qids.size(), queries.size()) << "request IDs must be distinct";
  EXPECT_EQ(kinds, (std::set<std::string>{"query_box", "query", "stream_box"}))
      << "the LOD query is a query_box record";
  EXPECT_EQ(doc.at("queries_dropped").as_u64(), 0u);

  // The queries' fetched bytes are the totals' fetched bytes: every
  // cold fetch of this test happened inside a recorded query.
  const obs::JsonValue& totals = doc.at("totals");
  EXPECT_EQ(totals.at("bytes_fetched").as_u64(),
            profile_totals().bytes_fetched);
}

TEST_F(AccessProfileTest, WriteProducesAParsableProfileDocument) {
  const Dataset ds = Dataset::open(dir_->path());
  auto& prof = obs::AccessProfiler::instance();
  EngineConfig cfg(1, 64ull << 20);
  reset_accounting();
  prof.set_detailed(true);
  run_query_mix(ds);

  TempDir out("spio-profile-out");
  const std::string path = (out.path() / "profile.spio.json").string();
  ASSERT_TRUE(prof.write(path));
  prof.set_detailed(false);

  const std::vector<std::byte> bytes = read_file(path);
  const obs::JsonValue doc = obs::JsonValue::parse(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  EXPECT_EQ(doc.at("format").as_string(), "spio.access_profile");
  bool found = false;
  const obs::JsonValue& datasets = doc.at("datasets");
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    if (datasets.at(d).at("dir").as_string() == dir_->path().string()) {
      found = true;
      const obs::JsonValue& files = datasets.at(d).at("files");
      EXPECT_EQ(files.size(), static_cast<std::size_t>(kRanks));
      // Partition bboxes ride along: that is what makes the profile a
      // spatial heatmap rather than a flat byte table.
      const obs::JsonValue& b = files.at(0).at("bounds");
      EXPECT_EQ(b.at("lo").size(), 3u);
      EXPECT_EQ(b.at("hi").size(), 3u);
    }
  }
  EXPECT_TRUE(found) << "the test dataset must appear in the profile";
}

// ---- kill switch ----

TEST_F(AccessProfileTest, KillSwitchFreezesAllCounters) {
  const Dataset ds = Dataset::open(dir_->path());
  auto& prof = obs::AccessProfiler::instance();
  EngineConfig cfg(1, 0);
  reset_accounting();

  prof.set_enabled(false);
  ds.query_box(Box3({0.1, 0.1, 0.1}, {0.9, 0.9, 0.9}));
  Totals t = profile_totals();
  EXPECT_EQ(t.accesses, 0u);
  EXPECT_EQ(t.bytes_scanned, 0u);
  EXPECT_EQ(t.bytes_used, 0u);

  prof.set_enabled(true);
  ds.query_box(Box3({0.1, 0.1, 0.1}, {0.9, 0.9, 0.9}));
  t = profile_totals();
  EXPECT_GT(t.accesses, 0u);
  EXPECT_GT(t.bytes_used, 0u);
}

}  // namespace
}  // namespace spio
