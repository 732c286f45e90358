/// \file stats_export_test.cpp
/// TelemetryExporter: SPIO_STATS spec parsing, the start/stop lifecycle
/// (flag transitions, idempotent stop, restartability, no thread leak),
/// the stats stream's shape (every line parses, seq consecutive, final
/// marker only on the last line), torn-line-free output under concurrent
/// metric hammering, and the queue_depth_max watermark reset per window.

#include "obs/stats_export.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/temp_dir.hpp"

namespace spio {
namespace {

using obs::JsonValue;
using obs::TelemetryExporter;
using namespace std::chrono_literals;

std::vector<std::string> lines_of(const std::filesystem::path& p) {
  std::ifstream f(p, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(f, line)) lines.push_back(line);
  return lines;
}

/// Current thread count of this process (Linux; 0 elsewhere).
int process_thread_count() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "Threads:") {
      int n = 0;
      f >> n;
      return n;
    }
    f.ignore(4096, '\n');
  }
  return 0;
}

/// Wait for `path` to accumulate at least `n` lines (bounded).
void await_lines(const std::filesystem::path& path, std::size_t n) {
  for (int spins = 0; spins < 500; ++spins) {
    if (lines_of(path).size() >= n) return;
    std::this_thread::sleep_for(10ms);
  }
}

class StatsExportTest : public ::testing::Test {
 protected:
  void TearDown() override {
    TelemetryExporter::instance().stop();
    obs::MetricsRegistry::global().reset();
  }
};

TEST_F(StatsExportTest, ParseSpecAcceptsIntervalColonPath) {
  std::chrono::milliseconds interval{0};
  std::string path;
  EXPECT_TRUE(
      TelemetryExporter::parse_spec("250:/tmp/stats.jsonl", interval, path));
  EXPECT_EQ(interval, 250ms);
  EXPECT_EQ(path, "/tmp/stats.jsonl");
  // Paths may themselves contain colons (only the first splits).
  EXPECT_TRUE(TelemetryExporter::parse_spec("5:a:b.jsonl", interval, path));
  EXPECT_EQ(interval, 5ms);
  EXPECT_EQ(path, "a:b.jsonl");
}

TEST_F(StatsExportTest, ParseSpecRejectsMalformedInput) {
  std::chrono::milliseconds interval{777};
  std::string path = "untouched";
  for (const char* bad :
       {"", "250", ":path", "0:path", "-5:path", "abc:path", "250:",
        "1e3:path", "99999999:path"}) {
    EXPECT_FALSE(TelemetryExporter::parse_spec(bad, interval, path))
        << "spec '" << bad << "' should be rejected";
  }
  EXPECT_EQ(interval, 777ms) << "outputs must stay untouched on failure";
  EXPECT_EQ(path, "untouched");
}

TEST_F(StatsExportTest, LifecycleFlagsAndIdempotentStop) {
  TempDir dir("spio-stats");
  auto& exp = TelemetryExporter::instance();
  EXPECT_FALSE(exp.running());
  EXPECT_FALSE(obs::telemetry_running());

  ASSERT_TRUE(exp.start(10ms, dir.file("s.jsonl").string()));
  EXPECT_TRUE(exp.running());
  EXPECT_TRUE(obs::telemetry_running());
  EXPECT_TRUE(obs::stats_enabled()) << "counter sites must publish now";
  EXPECT_FALSE(exp.start(10ms, dir.file("other.jsonl").string()))
      << "second start while running must be refused";

  exp.stop();
  EXPECT_FALSE(exp.running());
  EXPECT_FALSE(obs::telemetry_running());
  exp.stop();  // idempotent
  EXPECT_FALSE(exp.running());

  // The stream ends with exactly one final sample even when stop()
  // lands between ticks.
  const auto lines = lines_of(dir.file("s.jsonl"));
  ASSERT_FALSE(lines.empty());
  EXPECT_TRUE(JsonValue::parse(lines.back()).at("final").as_bool());
  for (std::size_t i = 0; i + 1 < lines.size(); ++i)
    EXPECT_FALSE(JsonValue::parse(lines[i]).at("final").as_bool())
        << "final marker before the last line (line " << i << ")";
}

TEST_F(StatsExportTest, RestartAfterStopStartsFreshStream) {
  TempDir dir("spio-stats");
  auto& exp = TelemetryExporter::instance();
  ASSERT_TRUE(exp.start(10ms, dir.file("one.jsonl").string()));
  await_lines(dir.file("one.jsonl"), 2);
  exp.stop();
  ASSERT_TRUE(exp.start(10ms, dir.file("two.jsonl").string()));
  await_lines(dir.file("two.jsonl"), 2);
  exp.stop();
  const auto two = lines_of(dir.file("two.jsonl"));
  ASSERT_GE(two.size(), 2u);
  EXPECT_EQ(JsonValue::parse(two.front()).at("seq").as_u64(), 0u)
      << "a restarted stream numbers samples from zero";
}

TEST_F(StatsExportTest, StartStopCyclesDoNotLeakThreads) {
  TempDir dir("spio-stats");
  auto& exp = TelemetryExporter::instance();
  const auto cycle = [&] {
    ASSERT_TRUE(exp.start(5ms, dir.file("cycle.jsonl").string()));
    std::this_thread::sleep_for(15ms);
    exp.stop();
  };
  // Count from after one cycle: TSan starts its own background thread
  // with the first thread the process creates, and keeps it.
  cycle();
  const int before = process_thread_count();
  if (before == 0) GTEST_SKIP() << "/proc/self/status unavailable";
  for (int i = 0; i < 8; ++i) cycle();
  EXPECT_EQ(process_thread_count(), before)
      << "each stop() must join the sampler thread";
}

TEST_F(StatsExportTest, StreamShapeSeqAndTimestamps) {
  TempDir dir("spio-stats");
  auto& reg = obs::MetricsRegistry::global();
  auto& exp = TelemetryExporter::instance();
  ASSERT_TRUE(exp.start(10ms, dir.file("s.jsonl").string()));
  reg.counter("service.completed").add(7);
  reg.windowed("service.latency_us").observe(1500);
  await_lines(dir.file("s.jsonl"), 4);
  exp.stop();

  const auto lines = lines_of(dir.file("s.jsonl"));
  ASSERT_GE(lines.size(), 4u);
  double prev_ts = -1;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const JsonValue s = JsonValue::parse(lines[i]);
    EXPECT_EQ(s.at("format").as_string(), "spio.stats");
    EXPECT_EQ(s.at("version").as_u64(), 1u);
    EXPECT_EQ(s.at("seq").as_u64(), i) << "seq must be consecutive";
    const double ts = s.at("ts_us").as_double();
    EXPECT_GE(ts, prev_ts) << "timestamps must be non-decreasing";
    prev_ts = ts;
    EXPECT_EQ(s.at("interval_ms").as_u64(), 10u);
    // The counter and the windowed histogram both appear.
    EXPECT_GE(s.at("counters").at("service.completed").as_u64(), 7u);
    const JsonValue& w = s.at("windows").at("service.latency_us");
    EXPECT_GE(w.at("total_count").as_u64(), 1u);
    const double p50 = w.at("p50").as_double();
    EXPECT_LE(p50, w.at("p95").as_double());
    EXPECT_LE(w.at("p95").as_double(), w.at("p99").as_double());
  }
}

TEST_F(StatsExportTest, ConcurrentHammeringNeverTearsALine) {
  TempDir dir("spio-stats");
  auto& reg = obs::MetricsRegistry::global();
  auto& exp = TelemetryExporter::instance();
  ASSERT_TRUE(exp.start(5ms, dir.file("s.jsonl").string()));

  std::atomic<bool> go{true};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 4; ++t)
    hammers.emplace_back([&reg, &go] {
      auto& c = reg.counter("service.completed");
      auto& h = reg.windowed("service.latency_us");
      auto& g = reg.gauge("service.queue_depth");
      std::uint64_t v = 0;
      while (go.load(std::memory_order_relaxed)) {
        c.add(1);
        h.observe(100 + (v & 8191));
        g.set(static_cast<double>(v & 63));
        ++v;
      }
    });
  std::this_thread::sleep_for(150ms);
  go.store(false);
  for (auto& h : hammers) h.join();
  exp.stop();

  const auto lines = lines_of(dir.file("s.jsonl"));
  ASSERT_GE(lines.size(), 10u) << "expected many 5ms ticks in 150ms";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ASSERT_NO_THROW({
      const JsonValue s = JsonValue::parse(lines[i]);
      EXPECT_EQ(s.at("seq").as_u64(), i);
    }) << "line " << i << " is torn or malformed: " << lines[i];
  }
  EXPECT_TRUE(JsonValue::parse(lines.back()).at("final").as_bool());
}

TEST_F(StatsExportTest, QueueDepthMaxWatermarkResetsEachWindow) {
  TempDir dir("spio-stats");
  auto& reg = obs::MetricsRegistry::global();
  // Simulate what publish_queue_depth does: set + set_max.
  reg.gauge("service.queue_depth").set(3);
  reg.gauge("service.queue_depth_max").set_max(9);

  auto& exp = TelemetryExporter::instance();
  ASSERT_TRUE(exp.start(10ms, dir.file("s.jsonl").string()));
  await_lines(dir.file("s.jsonl"), 2);
  exp.stop();

  const auto lines = lines_of(dir.file("s.jsonl"));
  ASSERT_GE(lines.size(), 2u);
  const JsonValue first = JsonValue::parse(lines.front());
  EXPECT_EQ(first.at("derived").at("queue_depth_max").as_double(), 9.0)
      << "the first window reports the pre-start high water";
  // After the first sample the watermark collapses to the live depth;
  // with no further traffic every later window reports 3.
  const JsonValue second = JsonValue::parse(lines[1]);
  EXPECT_EQ(second.at("derived").at("queue_depth_max").as_double(), 3.0)
      << "watermark must reset to current depth after each sample";
  EXPECT_EQ(second.at("derived").at("queue_depth").as_double(), 3.0);
}

TEST_F(StatsExportTest, DerivedRatesComeFromWindowDeltas) {
  TempDir dir("spio-stats");
  auto& reg = obs::MetricsRegistry::global();
  // Pre-load history that must NOT count toward the first window's
  // rates: deltas start from the snapshot taken at start().
  reg.counter("reader.cache.hits").add(1'000'000);
  reg.counter("reader.cache.misses").add(1'000'000);

  auto& exp = TelemetryExporter::instance();
  ASSERT_TRUE(exp.start(10ms, dir.file("s.jsonl").string()));
  // During the run everything hits.
  for (int i = 0; i < 100; ++i) reg.counter("reader.cache.hits").add(1);
  await_lines(dir.file("s.jsonl"), 3);
  exp.stop();

  const auto lines = lines_of(dir.file("s.jsonl"));
  ASSERT_GE(lines.size(), 1u);
  // Some window saw the 100 pure hits: its hit rate is exactly 1.0
  // (the 50% cumulative history would drag a non-delta rate to ~0.5).
  bool saw_pure_hits = false;
  for (const auto& line : lines) {
    const JsonValue s = JsonValue::parse(line);
    if (s.at("derived").at("cache_hit_rate").as_double() == 1.0)
      saw_pure_hits = true;
  }
  EXPECT_TRUE(saw_pure_hits)
      << "cache_hit_rate must be computed from per-window deltas";
}

}  // namespace
}  // namespace spio
