#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>

#include "obs/run_record.hpp"
#include "util/error.hpp"
#include "util/temp_dir.hpp"

namespace spio::obs {
namespace {

WriteRunInfo sample_write_info() {
  WriteRunInfo info;
  info.ranks = 2;
  info.schema_bytes = 124;
  info.partition_count = 4;
  info.config["factor"] = "2x1x1";
  info.config["adaptive"] = "false";
  for (int r = 0; r < 2; ++r) {
    WritePhaseSeconds p;
    p.rank = r;
    p.setup = 0.5 + r;
    p.meta_exchange = 0.25;
    p.particle_exchange = 1.0;
    p.reorder = 0.125;
    p.file_io = 2.0;
    p.metadata_io = 0.0625;
    info.phases.push_back(p);
  }
  info.totals.particles_sent = 1000;
  info.totals.bytes_sent = 124000;
  info.totals.particles_written = 1000;
  info.totals.bytes_written = 124000;
  info.totals.files_written = 2;
  return info;
}

TEST(RunRecord, WriteRecordRoundTrips) {
  TempDir dir("spio-record");
  EXPECT_FALSE(run_record_present(dir.path()));

  MetricsRegistry reg;
  // A value above 2^53 checks that counters survive the JSON round trip
  // at full u64 precision.
  const std::uint64_t big = (std::uint64_t{1} << 61) + 3;
  reg.counter("writer.bytes_written").add(big);
  save_write_record(dir.path(), sample_write_info(), reg.snapshot());

  ASSERT_TRUE(run_record_present(dir.path()));
  const JsonValue doc = load_run_record(dir.path());
  EXPECT_EQ(doc.at("format").as_string(), "spio.run_record");
  EXPECT_EQ(doc.at("version").as_i64(), 1);

  const JsonValue& w = doc.at("write");
  EXPECT_EQ(w.at("ranks").as_i64(), 2);
  EXPECT_EQ(w.at("schema_bytes").as_u64(), 124u);
  EXPECT_EQ(w.at("partition_count").as_i64(), 4);
  EXPECT_EQ(w.at("config").at("factor").as_string(), "2x1x1");
  ASSERT_EQ(w.at("phase_seconds").size(), 2u);
  const JsonValue& p1 = w.at("phase_seconds").at(std::size_t{1});
  EXPECT_EQ(p1.at("rank").as_i64(), 1);
  EXPECT_DOUBLE_EQ(p1.at("setup").as_double(), 1.5);
  EXPECT_DOUBLE_EQ(p1.at("file_io").as_double(), 2.0);
  EXPECT_EQ(w.at("totals").at("bytes_written").as_u64(), 124000u);
  EXPECT_EQ(w.at("counters").at("writer.bytes_written").as_u64(), big);
  EXPECT_TRUE(w.at("environment").at("threads_as_ranks").as_bool());
}

TEST(RunRecord, LoadRejectsForeignJson) {
  TempDir dir("spio-record");
  {
    std::ofstream f(dir.path() / kRunRecordFile);
    f << "{\"format\": \"something.else\"}\n";
  }
  EXPECT_THROW(load_run_record(dir.path()), FormatError);
  EXPECT_THROW(load_run_record(dir.path() / "absent"), IoError);
}

TEST(RunRecord, MetricsToJsonRendersAllKinds) {
  MetricsRegistry reg;
  reg.counter("a.count").add(7);
  reg.gauge("a.ratio").set(0.5);
  reg.histogram("a.sizes").observe(100);
  reg.histogram("a.sizes").observe(200);

  const JsonValue j = metrics_to_json(reg.snapshot());
  EXPECT_EQ(j.at("a.count").as_u64(), 7u);
  EXPECT_DOUBLE_EQ(j.at("a.ratio").as_double(), 0.5);
  const JsonValue& h = j.at("a.sizes");
  EXPECT_EQ(h.at("count").as_u64(), 2u);
  EXPECT_EQ(h.at("sum").as_u64(), 300u);
  // 100 -> [64, 127], 200 -> [128, 255]: two non-empty buckets.
  ASSERT_EQ(h.at("buckets").size(), 2u);
  EXPECT_EQ(h.at("buckets").at(std::size_t{0}).at(std::size_t{0}).as_u64(),
            127u);
  EXPECT_EQ(h.at("buckets").at(std::size_t{0}).at(std::size_t{1}).as_u64(),
            1u);
}

}  // namespace
}  // namespace spio::obs
