/// \file chaos_service_test.cpp
/// Chaos under concurrency (ISSUE 6): fault injection firing while the
/// query service is saturated. The write-side chaos suite injects
/// faults through `checked_write_file`; the read side injects them at
/// the engine boundary — the fetch hook delays reads (I/O weather) and
/// a chaos thread truncates a data file in place (a torn read) while 16
/// clients hammer the service. Every run must end in a clean outcome:
/// every future resolves (no hangs), each with byte-identical data or a
/// typed `spio::Error` (no silent corruption, no double-free — ASan
/// covers the latter), a postmortem bundle is emitted for the failure,
/// and after the file is restored the service recovers byte-identically.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "core/query_service.hpp"
#include "core/read_engine.hpp"
#include "core/reader.hpp"
#include "core/writer.hpp"
#include "obs/postmortem.hpp"
#include "simmpi/runtime.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

constexpr int kRanks = 8;
constexpr std::uint64_t kPerRank = 400;

void write_dataset_to(const std::filesystem::path& dir) {
  const PatchDecomposition decomp =
      PatchDecomposition::for_ranks(Box3::unit(), kRanks);
  WriterConfig cfg;
  cfg.dir = dir;
  cfg.factor = {1, 1, 1};
  simmpi::run(kRanks, [&](simmpi::Comm& comm) {
    const auto local = workload::uniform(
        Schema::uintah(), decomp.patch(comm.rank()), kPerRank,
        stream_seed(77, static_cast<std::uint64_t>(comm.rank())),
        static_cast<std::uint64_t>(comm.rank()) * kPerRank);
    write_dataset(comm, decomp, local, cfg);
  });
}

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

class ScopedFetchHook {
 public:
  explicit ScopedFetchHook(ReadEngine::FetchHook hook) {
    ReadEngine::instance().set_fetch_hook(std::move(hook));
  }
  ~ScopedFetchHook() { ReadEngine::instance().set_fetch_hook(nullptr); }
};

bool same_bytes(std::span<const std::byte> a, std::span<const std::byte> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// One seeded chaos schedule: saturate the service with 16 clients,
/// truncate one data file mid-run (plus per-fetch delay jitter), then
/// restore it and verify recovery.
void run_chaos_serve(std::uint64_t seed) {
  TempDir dir("spio-chaos-serve");
  write_dataset_to(dir.path());
  const Dataset ds = Dataset::open(dir.path());
  const Box3 box = ds.metadata().domain;

  ParticleBuffer want(ds.metadata().schema);
  {
    EngineConfig serial(1, 0);
    want = ds.query_box(box);
  }

  ReadEngine& eng = ReadEngine::instance();
  EngineConfig cfg(2, 256ull << 20);
  eng.clear_cache();

  // Delayed I/O: every real disk read costs 0-2 ms, seeded.
  std::atomic<std::uint64_t> delay_state{seed * 2654435761ull + 1};
  ScopedFetchHook hook([&](const std::filesystem::path&, std::uint64_t) {
    std::uint64_t x = delay_state.fetch_add(0x9e3779b97f4a7c15ull);
    x ^= x >> 33;
    std::this_thread::sleep_for(std::chrono::microseconds(x % 2000));
  });

  QueryService svc(ServiceConfig{4, 128, dir.path()});

  // Pick the victim file and remember its bytes.
  const auto& victim_rec = ds.metadata().files[0];
  const std::filesystem::path victim = dir.path() / victim_rec.file_name();
  const std::vector<std::byte> original = read_file(victim);

  constexpr int kClients = 16;
  constexpr int kQueriesPerClient = 5;
  std::atomic<int> ok{0}, typed_errors{0}, wrong{0};
  std::atomic<bool> chaos_started{false};

  std::thread chaos([&] {
    // Torn read mid-saturation: truncate the victim in place and drop
    // the cache so in-flight and future queries must touch the torn
    // file. `fetch_file_records` surfaces it as FormatError (size
    // mismatch) or IoError (short read) — typed, never silent.
    while (svc.stats().inflight == 0) std::this_thread::yield();
    std::filesystem::resize_file(victim, original.size() / 2);
    eng.clear_cache();
    chaos_started.store(true);
    // Hold the fault until at least one query failed on it, then heal.
    const auto t0 = std::chrono::steady_clock::now();
    while (svc.stats().failed == 0 &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(5))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(original.data()),
              static_cast<std::streamsize>(original.size()));
    out.close();
    eng.clear_cache();  // drop any half-era residents; sigs re-validate
  });

  std::vector<std::thread> clients;
  for (int cl = 0; cl < kClients; ++cl)
    clients.emplace_back([&, cl] {
      Xoshiro256 rng(stream_seed(seed, static_cast<std::uint64_t>(cl)));
      for (int q = 0; q < kQueriesPerClient; ++q) {
        try {
          const QueryService::Result got =
              svc.run([&] { return ds.query_box(box); });
          if (same_bytes(got->bytes(), want.bytes()))
            ok.fetch_add(1);
          else
            wrong.fetch_add(1);
        } catch (const Error&) {
          typed_errors.fetch_add(1);  // FormatError/IoError/Rejected
        }
        // Jitter so the chaos window overlaps different query phases.
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.uniform_index(500)));
      }
    });

  for (auto& t : clients) t.join();
  chaos.join();
  svc.shutdown();

  // No hangs (we got here), no silent corruption:
  EXPECT_EQ(wrong.load(), 0) << "seed " << seed;
  EXPECT_EQ(ok.load() + typed_errors.load(), kClients * kQueriesPerClient)
      << "seed " << seed;
  EXPECT_TRUE(chaos_started.load());
  // The fault bit: the full-domain query always touches the victim, so
  // the window between truncation and heal fails some queries.
  EXPECT_GT(typed_errors.load(), 0) << "seed " << seed;

  // The injected fault actually bit, and the postmortem bundle emitted.
  if (typed_errors.load() > 0 && svc.stats().failed > 0) {
    EXPECT_TRUE(
        std::filesystem::exists(dir.path() / obs::kPostmortemFile))
        << "seed " << seed;
  }

  // Recovery: the healed dataset serves byte-identical results.
  eng.clear_cache();
  QueryService after(ServiceConfig{2, 16, {}});
  const QueryService::Result healed =
      after.run([&] { return ds.query_box(box); });
  EXPECT_TRUE(same_bytes(healed->bytes(), want.bytes())) << "seed " << seed;
  after.shutdown();
}

TEST(ChaosService, TornReadsAndDelayedIoUnderSaturationStayTyped) {
  for (const std::uint64_t seed : {11ull, 23ull, 37ull}) run_chaos_serve(seed);
}

}  // namespace
}  // namespace spio
