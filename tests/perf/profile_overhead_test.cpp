/// \file profile_overhead_test.cpp
/// Perf floor (ctest label `perf`) for the spatial access profiler's
/// always-on tier: per-file attribution rides every fetch of the read
/// path, so it must cost a handful of relaxed atomic RMWs — bounded
/// both at the call site (absolute nanoseconds) and end to end (a
/// warm readpath with the profiler on must stay within 3% of the
/// kill-switched run, the budget docs/OBSERVABILITY.md promises).

#include <gtest/gtest.h>
#include <time.h>

#include <functional>

#include "core/read_engine.hpp"
#include "core/reader.hpp"
#include "core/writer.hpp"
#include "obs/access_profile.hpp"
#include "simmpi/runtime.hpp"
#include "util/rng.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Every sample below runs on this one thread (the end-to-end floor
/// sets the engine to one worker, which runs each query inline), so its
/// CPU time is the cost of the code under test: a busy host slows the
/// thread's wall clock, not its CPU time.
double seconds_of(const std::function<void()>& fn) {
  const double t0 = thread_cpu_seconds();
  fn();
  return thread_cpu_seconds() - t0;
}

TEST(ProfileOverhead, RecordAccessIsNanosecondCheap) {
  auto& prof = obs::AccessProfiler::instance();
  // A real slot, so the measurement covers the attribution path and not
  // just the unattributed bump.
  const int base = prof.register_dataset(
      "perf-probe", Box3::unit(), 48, true,
      {{"probe.bin", Box3::unit(), 1000}});
  ASSERT_GE(base, 0);
  prof.reset_counters();
  // One file of a read: a cache hit with its filter-side bytes.
  const obs::AccessProfiler::FileAccess access{
      obs::AccessOutcome::kHit, false, 4096, 3, 1024, 0, 0};

  constexpr int kIters = 1000000;
  double best = 1e300;
  for (int r = 0; r < 3; ++r)
    best = std::min(best, seconds_of([&] {
             for (int i = 0; i < kIters; ++i)
               prof.record_access(base, 0, access);
           }));
  const double ns = best / kIters * 1e9;
  EXPECT_LE(ns, 300.0)
      << "an always-on record_access costs " << ns
      << " ns; it should be a clock read plus relaxed adds";

  // The kill switch must cut that to a single relaxed load.
  prof.set_enabled(false);
  best = 1e300;
  for (int r = 0; r < 3; ++r)
    best = std::min(best, seconds_of([&] {
             for (int i = 0; i < kIters; ++i)
               prof.record_access(base, 0, access);
           }));
  prof.set_enabled(true);
  const double off_ns = best / kIters * 1e9;
  EXPECT_LE(off_ns, 30.0) << "the kill-switched record_access costs "
                          << off_ns << " ns; work leaked ahead of the gate";
  prof.reset_counters();
}

/// The end-to-end 3% bound. Warm engine queries (cache-resident, the
/// highest fetch rate per unit work the read path can sustain) run
/// inline on the test thread (`set_concurrency(1)`) and are timed in
/// thread CPU time, interleaved profiler-on/profiler-off so cache and
/// frequency weather moves both sides; best-of keeps the comparison on
/// clean samples.
TEST(ProfileOverhead, AlwaysOnTierStaysWithinThreePercentOfKillSwitchedRun) {
  TempDir dir("spio-profperf");
  constexpr int kRanks = 8;
  const PatchDecomposition decomp =
      PatchDecomposition::for_ranks(Box3::unit(), kRanks);
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {1, 1, 1};
  simmpi::run(kRanks, [&](simmpi::Comm& comm) {
    const auto local = workload::uniform(
        Schema::uintah(), decomp.patch(comm.rank()), 2000,
        stream_seed(91, static_cast<std::uint64_t>(comm.rank())),
        static_cast<std::uint64_t>(comm.rank()) * 2000);
    write_dataset(comm, decomp, local, cfg);
  });

  ReadEngine& eng = ReadEngine::instance();
  const std::uint64_t prev_budget = eng.cache_budget();
  const int prev_threads = eng.concurrency();
  eng.set_cache_budget(256ull << 20);
  eng.set_concurrency(1);
  eng.clear_cache();

  const Dataset ds = Dataset::open(dir.path());
  const Box3 box({0.1, 0.1, 0.1}, {0.9, 0.9, 0.9});
  ds.query_box(box);  // prime the cache: both sides measure warm queries

  auto& prof = obs::AccessProfiler::instance();
  constexpr int kQueriesPerSample = 50;
  const auto sample = [&] {
    return seconds_of([&] {
      for (int i = 0; i < kQueriesPerSample; ++i) ds.query_box(box);
    });
  };

  double best_on = 1e300, best_off = 1e300;
  const auto sample_with = [&](bool on) {
    prof.set_enabled(on);
    double& best = on ? best_on : best_off;
    best = std::min(best, sample());
  };
  // ABBA order: each arm runs first in half the pairs, so an effect of
  // position within a pair cannot land on one arm only.
  for (int r = 0; r < 11; ++r) {
    sample_with(r % 2 == 0);
    sample_with(r % 2 != 0);
  }
  prof.set_enabled(true);
  eng.set_cache_budget(prev_budget);
  eng.set_concurrency(prev_threads);

  // ≤3% relative plus 2ms absolute slack: a sample is 14–24 ms of thread
  // CPU time, and cache and frequency jitter alone swing a couple
  // percent at this scale (same shape as the telemetry-exporter floor).
  // The profiler's true cost — a dozen relaxed adds and one clock read
  // per file — sits far under the relative bound; the gate trips if the
  // always-on tier grows per-call work of a few microseconds on the
  // query thread (a 5000-iteration spin per `record_access`, +6 ms a
  // sample, fails it). With one query thread it sees no cross-core
  // contention on the profiler's shared counters, and an uncontended
  // lock per call is far too cheap for it to catch.
  EXPECT_LE(best_on, best_off * 1.03 + 0.002)
      << "always-on profiling costs " << (best_on / best_off - 1.0) * 100
      << "% of warm readpath throughput; the budget is 3%";
}

}  // namespace
}  // namespace spio
