/// \file obs_overhead_test.cpp
/// Perf floor (ctest label `perf`) for the observability subsystem's
/// disabled path: an instrumentation site that is off must cost about
/// one relaxed atomic load — nanoseconds, not microseconds — so spans
/// can live on hot paths (per-message transport, per-file reads) without
/// a recompile-time switch. Each floor times this thread's CPU, so time
/// slicing on a loaded host does not count against it; a regression here
/// means someone put work ahead of the enabled() gate.

#include <gtest/gtest.h>

#include <time.h>

#include <functional>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace spio {
namespace {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Every floor below runs on this one thread, so its CPU time is the
/// cost of the code under test.
double seconds_of(const std::function<void()>& fn) {
  const double t0 = thread_cpu_seconds();
  fn();
  return thread_cpu_seconds() - t0;
}

double best_seconds(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) best = std::min(best, seconds_of(fn));
  return best;
}

TEST(ObsOverhead, DisabledSpansAreNanosecondCheap) {
  obs::disable();
  obs::Tracer::instance().clear();
  obs::FlightRecorder::instance().clear();
  // The floor is measured with the black box LIVE: a disabled span still
  // feeds the always-on flight recorder (two ring records), and that
  // combined path must stay within the same budget.
  ASSERT_TRUE(obs::FlightRecorder::instance().is_enabled());

  constexpr int kIters = 1000000;
  const double s = best_seconds(3, [&] {
    for (int i = 0; i < kIters; ++i) {
      obs::ScopedSpan span("perf.noop", "perf");
    }
  });
  // Nothing may reach the tracer while disabled — but every span must
  // have hit the flight ring (begin + end per iteration).
  EXPECT_EQ(obs::Tracer::instance().event_count(), 0u);
  EXPECT_GE(obs::FlightRecorder::instance().record_count(),
            2u * kIters);

  const double ns_per_span = s / kIters * 1e9;
  EXPECT_LE(ns_per_span, 200.0)
      << "a disabled span costs " << ns_per_span
      << " ns; the enabled() gate should keep it at a handful";
  obs::FlightRecorder::instance().clear();
}

TEST(ObsOverhead, FlightRecordIsNanosecondCheap) {
  obs::FlightRecorder::instance().clear();
  constexpr int kIters = 1000000;
  const double s = best_seconds(3, [&] {
    for (int i = 0; i < kIters; ++i)
      obs::flight_record(obs::FlightType::kMark, "perf.flight",
                         static_cast<std::uint64_t>(i));
  });
  EXPECT_GE(obs::FlightRecorder::instance().record_count(),
            static_cast<std::uint64_t>(kIters));

  const double ns_per_record = s / kIters * 1e9;
  EXPECT_LE(ns_per_record, 150.0)
      << "a flight record costs " << ns_per_record
      << " ns; it should be one clock read plus relaxed stores";
  obs::FlightRecorder::instance().clear();
}

TEST(ObsOverhead, CachedCounterAddStaysCheapWhileEnabled) {
  obs::enable();
  auto& c = obs::MetricsRegistry::global().counter("perf.overhead_probe");
  c.reset();

  constexpr int kIters = 1000000;
  const double s = best_seconds(3, [&] {
    for (int i = 0; i < kIters; ++i) c.add(1);
  });
  EXPECT_GE(c.value(), static_cast<std::uint64_t>(kIters));

  const double ns_per_add = s / kIters * 1e9;
  EXPECT_LE(ns_per_add, 100.0)
      << "a cached counter add costs " << ns_per_add
      << " ns; it should be one relaxed fetch_add";

  obs::disable();
  c.reset();
}

}  // namespace
}  // namespace spio
