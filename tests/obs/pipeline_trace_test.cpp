#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/read_engine.hpp"
#include "core/reader.hpp"
#include "core/restart.hpp"
#include "core/writer.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/run_record.hpp"
#include "obs/stats_export.hpp"
#include "obs/trace.hpp"
#include "simmpi/runtime.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

constexpr int kRanks = 8;
constexpr std::uint64_t kPerRank = 200;
constexpr std::uint64_t kTotal = kRanks * kPerRank;

/// Golden-schema coverage for the instrumented pipeline: a real 8-rank
/// write + read run must emit a parseable Chrome trace whose spans nest,
/// with every pipeline phase present, and the registry's byte accounting
/// must match the Write/ReadStats the pipeline itself returns.
class PipelineTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::enable();
    obs::Tracer::instance().clear();
    obs::MetricsRegistry::global().reset();
  }
  void TearDown() override {
    obs::disable();
    obs::Tracer::instance().clear();
    obs::MetricsRegistry::global().reset();
  }

  static WriteStats write_dataset_traced(const std::filesystem::path& dir) {
    const PatchDecomposition decomp(Box3::unit(), {2, 2, 2});
    WriterConfig cfg;
    cfg.dir = dir;
    cfg.factor = {2, 2, 1};
    WriteStats job{};
    std::mutex mu;
    simmpi::run(kRanks, [&](simmpi::Comm& comm) {
      const auto local = workload::uniform(
          Schema::uintah(), decomp.patch(comm.rank()), kPerRank,
          stream_seed(99, static_cast<std::uint64_t>(comm.rank())),
          static_cast<std::uint64_t>(comm.rank()) * kPerRank);
      const WriteStats s = write_dataset(comm, decomp, local, cfg);
      std::lock_guard lk(mu);
      job = WriteStats::max_over(job, s);
    });
    return job;
  }

  struct SpanRec {
    std::string name;
    double ts = 0;
    double end = 0;
    std::int64_t tid = 0;
  };

  static std::vector<SpanRec> complete_spans() {
    const obs::JsonValue doc =
        obs::JsonValue::parse(obs::Tracer::instance().chrome_json());
    const obs::JsonValue& events = doc.at("traceEvents");
    std::vector<SpanRec> out;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const obs::JsonValue& e = events.at(i);
      if (e.at("ph").as_string() != "X") continue;
      SpanRec s;
      s.name = e.at("name").as_string();
      s.ts = e.at("ts").as_double();
      s.end = s.ts + e.at("dur").as_double();
      s.tid = e.at("tid").as_i64();
      out.push_back(std::move(s));
    }
    return out;
  }

  static std::uint64_t counter(const char* name) {
    return obs::MetricsRegistry::global().counter(name).value();
  }
};

TEST_F(PipelineTrace, WriteEmitsNestedSpansOnEveryRankTrack) {
  TempDir dir("spio-pipeline");
  write_dataset_traced(dir.path());

  const std::vector<SpanRec> spans = complete_spans();
  static const char* kPhases[] = {"write.setup",        "write.meta_exchange",
                                  "write.particle_exchange", "write.reorder",
                                  "write.file_io",      "write.metadata_io"};

  // Every rank thread contributes its own track, and each track carries
  // the umbrella span plus all six pipeline phases.
  std::set<std::int64_t> tids;
  for (const SpanRec& s : spans) tids.insert(s.tid);
  for (int r = 0; r < kRanks; ++r) EXPECT_EQ(tids.count(r), 1u) << "rank " << r;

  for (int r = 0; r < kRanks; ++r) {
    const SpanRec* whole = nullptr;
    for (const SpanRec& s : spans)
      if (s.tid == r && s.name == "write.dataset") whole = &s;
    ASSERT_NE(whole, nullptr) << "rank " << r;

    std::vector<const SpanRec*> phases;
    for (const char* name : kPhases) {
      const SpanRec* found = nullptr;
      for (const SpanRec& s : spans)
        if (s.tid == r && s.name == name) found = &s;
      ASSERT_NE(found, nullptr) << name << " missing on rank " << r;
      phases.push_back(found);
    }

    // Phases nest inside the umbrella span and run back to back without
    // overlapping (1 us tolerance: begin/end share one clock read).
    constexpr double kTolUs = 1.0;
    for (const SpanRec* p : phases) {
      EXPECT_GE(p->ts, whole->ts - kTolUs) << p->name;
      EXPECT_LE(p->end, whole->end + kTolUs) << p->name;
    }
    std::vector<const SpanRec*> ordered = phases;
    std::sort(ordered.begin(), ordered.end(),
              [](const SpanRec* a, const SpanRec* b) { return a->ts < b->ts; });
    for (std::size_t i = 1; i < ordered.size(); ++i)
      EXPECT_GE(ordered[i]->ts, ordered[i - 1]->end - kTolUs)
          << ordered[i]->name << " overlaps " << ordered[i - 1]->name;
  }
}

TEST_F(PipelineTrace, WriteCountersMatchWriteStatsExactly) {
  TempDir dir("spio-pipeline");
  const WriteStats job = write_dataset_traced(dir.path());

  // max_over sums volume fields across ranks, so the job-level stats and
  // the per-rank counter publications must land on identical totals.
  EXPECT_EQ(counter("writer.particles_sent"), job.particles_sent);
  EXPECT_EQ(counter("writer.bytes_sent"), job.bytes_sent);
  EXPECT_EQ(counter("writer.particles_written"), job.particles_written);
  EXPECT_EQ(counter("writer.bytes_written"), job.bytes_written);
  EXPECT_EQ(counter("writer.files_written"),
            static_cast<std::uint64_t>(job.files_written));
  EXPECT_EQ(job.particles_written, kTotal);

  // The run record next to the dataset carries the same totals.
  ASSERT_TRUE(obs::run_record_present(dir.path()));
  const obs::JsonValue doc = obs::load_run_record(dir.path());
  const obs::JsonValue& w = doc.at("write");
  EXPECT_EQ(w.at("ranks").as_i64(), kRanks);
  EXPECT_EQ(w.at("phase_seconds").size(), static_cast<std::size_t>(kRanks));
  EXPECT_EQ(w.at("totals").at("bytes_written").as_u64(), job.bytes_written);
  EXPECT_EQ(w.at("totals").at("particles_written").as_u64(),
            job.particles_written);
  EXPECT_EQ(w.at("totals").at("files_written").as_u64(),
            static_cast<std::uint64_t>(job.files_written));
  EXPECT_EQ(w.at("config").at("factor").as_string(), "2x2x1");
}

TEST_F(PipelineTrace, QueryCountersMatchReadStatsExactly) {
  TempDir dir("spio-pipeline");
  write_dataset_traced(dir.path());
  // Isolate the reader's counters from the write that produced the data.
  obs::MetricsRegistry::global().reset();
  obs::Tracer::instance().clear();

  const Dataset ds = Dataset::open(dir.path());
  ReadStats rs;
  const ParticleBuffer all = ds.query_box(Box3::unit(), -1, 1, &rs);
  EXPECT_EQ(all.size(), kTotal);

  EXPECT_EQ(counter("reader.files_opened"),
            static_cast<std::uint64_t>(rs.files_opened));
  EXPECT_EQ(counter("reader.bytes_read"), rs.bytes_read);
  EXPECT_EQ(counter("reader.particles_scanned"), rs.particles_scanned);
  EXPECT_EQ(counter("reader.particles_returned"), rs.particles_returned);
  EXPECT_EQ(counter("reader.bytes_returned"),
            rs.particles_returned * ds.metadata().schema.record_size());

  // The query emits its own spans: one per opened file under the query.
  const std::vector<SpanRec> spans = complete_spans();
  std::size_t query_spans = 0, file_spans = 0;
  for (const SpanRec& s : spans) {
    if (s.name == "read.query_box") ++query_spans;
    if (s.name == "read.file") ++file_spans;
  }
  EXPECT_EQ(query_spans, 1u);
  EXPECT_EQ(file_spans, static_cast<std::size_t>(rs.files_opened));
}

TEST_F(PipelineTrace, DisabledRunLeavesDatasetDirClean) {
  obs::disable();
  TempDir dir("spio-pipeline");
  write_dataset_traced(dir.path());
  // Default (untraced) runs must leave the dataset byte-identical to the
  // pre-observability format: no run record appears.
  EXPECT_FALSE(obs::run_record_present(dir.path()));
  EXPECT_EQ(obs::Tracer::instance().event_count(), 0u);
}

/// The `reader.*` registry is a view of the `ReadStats` each read entry
/// point hands back, published under the stats gate alone: a live
/// `SPIO_STATS` stream with tracing off must see the scan side too.
class TelemetryReads : public PipelineTrace {
 protected:
  void SetUp() override {
    PipelineTrace::SetUp();
    obs::disable();
    ASSERT_TRUE(obs::TelemetryExporter::instance().start(
        std::chrono::hours(1), stream_dir_.file("stats.jsonl").string()));
    ASSERT_FALSE(obs::enabled());
    ASSERT_TRUE(obs::stats_enabled());
  }
  void TearDown() override {
    obs::TelemetryExporter::instance().stop();
    PipelineTrace::TearDown();
  }

  /// A dataset written before the registry and the engine cache are
  /// cleared, so the reads below start cold and count alone.
  void write_cold(const std::filesystem::path& dir) {
    write_dataset_traced(dir);
    ReadEngine::instance().clear_cache();
    obs::MetricsRegistry::global().reset();
  }

  static void expect_counters_equal(const ReadStats& rs,
                                    std::uint64_t record_size) {
    EXPECT_EQ(counter("reader.files_opened"),
              static_cast<std::uint64_t>(rs.files_opened));
    EXPECT_EQ(counter("reader.bytes_read"), rs.bytes_read);
    EXPECT_EQ(counter("reader.particles_scanned"), rs.particles_scanned);
    EXPECT_EQ(counter("reader.particles_returned"), rs.particles_returned);
    EXPECT_EQ(counter("reader.bytes_returned"),
              rs.particles_returned * record_size);
    EXPECT_EQ(counter("reader.files_skipped"),
              static_cast<std::uint64_t>(rs.files_skipped));
    EXPECT_EQ(counter("reader.lod_bytes_skipped"), rs.lod_bytes_skipped);
  }

  /// One reading thread: the gauge's last write saw every counter.
  static void expect_amplification_equal(const ReadStats& rs) {
    EXPECT_DOUBLE_EQ(
        obs::MetricsRegistry::global().gauge("reader.read_amplification")
            .value(),
        rs.read_amplification());
  }

  TempDir stream_dir_{"spio-telemetry"};
};

TEST_F(TelemetryReads, ColdQueryBoxCountersMatchReadStats) {
  TempDir dir("spio-pipeline");
  write_cold(dir.path());
  const Dataset ds = Dataset::open(dir.path());
  ReadStats rs;
  const ParticleBuffer got =
      ds.query_box(Box3{{0.1, 0.1, 0.1}, {0.7, 0.6, 0.9}}, -1, 1, &rs);
  ASSERT_GT(rs.bytes_read, 0u) << "the query must read from disk";
  ASSERT_GT(rs.particles_scanned, got.size()) << "a partial box filters";
  EXPECT_EQ(rs.particles_returned, got.size());
  expect_counters_equal(rs, ds.metadata().schema.record_size());
  expect_amplification_equal(rs);
}

TEST_F(TelemetryReads, DirectFileReadCountersMatchReadStats) {
  TempDir dir("spio-pipeline");
  write_cold(dir.path());
  const Dataset ds = Dataset::open(dir.path());
  ReadStats rs;
  std::uint64_t got = 0;
  for (int fi = 0; fi < ds.file_count(); ++fi)
    got += ds.read_data_file(fi, -1, 1, &rs).size();
  EXPECT_EQ(got, kTotal);
  EXPECT_EQ(rs.particles_returned, kTotal);
  expect_counters_equal(rs, ds.metadata().schema.record_size());
  expect_amplification_equal(rs);
}

/// Four restart readers publish `reader.*` at once; the counters still
/// add up to the sum of the four `ReadStats`.
TEST_F(TelemetryReads, ConcurrentRestartReadCountersMatchReadStats) {
  TempDir dir("spio-pipeline");
  write_cold(dir.path());
  constexpr int kReaders = 4;
  const PatchDecomposition decomp =
      PatchDecomposition::for_ranks(Box3::unit(), kReaders);
  ReadStats sum;
  std::mutex mu;
  simmpi::run(kReaders, [&](simmpi::Comm& comm) {
    ReadStats rs;
    restart_read(comm, decomp, dir.path(), &rs);
    std::lock_guard lk(mu);
    sum.accumulate(rs);
  });
  EXPECT_EQ(sum.particles_returned, kTotal);
  ASSERT_GT(sum.bytes_read, 0u);
  expect_counters_equal(sum, Schema::uintah().record_size());
}

}  // namespace
}  // namespace spio
