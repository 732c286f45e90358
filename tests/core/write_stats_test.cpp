#include <gtest/gtest.h>

#include <type_traits>

#include "core/reader.hpp"
#include "core/writer.hpp"

namespace spio {
namespace {

WriteStats sample_write(double t, std::uint64_t v) {
  WriteStats s;
  s.setup_seconds = t;
  s.meta_exchange_seconds = t * 2;
  s.particle_exchange_seconds = t * 3;
  s.reorder_seconds = t * 4;
  s.file_io_seconds = t * 5;
  s.metadata_io_seconds = t * 6;
  s.particles_sent = v;
  s.bytes_sent = v * 10;
  s.particles_written = v * 2;
  s.bytes_written = v * 20;
  s.files_written = static_cast<int>(v % 7);
  s.partition_count = static_cast<int>(v % 5);
  return s;
}

// Both stats structs ride through simmpi gathers as raw bytes when the
// run record is assembled.
static_assert(std::is_trivially_copyable_v<WriteStats>);
static_assert(std::is_trivially_copyable_v<ReadStats>);

TEST(WriteStats, MaxOverTakesSlowestTimesAndSumsVolumes) {
  WriteStats a = sample_write(1.0, 100);
  WriteStats b = sample_write(2.0, 30);
  a.file_io_seconds = 11.0;  // a is slower at I/O, b everywhere else
  b.was_aggregator = true;
  b.used_aligned_fast_path = true;
  b.partition_count = 8;

  const WriteStats m = WriteStats::max_over(a, b);
  EXPECT_DOUBLE_EQ(m.setup_seconds, 2.0);
  EXPECT_DOUBLE_EQ(m.meta_exchange_seconds, 4.0);
  EXPECT_DOUBLE_EQ(m.particle_exchange_seconds, 6.0);
  EXPECT_DOUBLE_EQ(m.reorder_seconds, 8.0);
  EXPECT_DOUBLE_EQ(m.file_io_seconds, 11.0);
  EXPECT_DOUBLE_EQ(m.metadata_io_seconds, 12.0);
  EXPECT_EQ(m.particles_sent, 130u);
  EXPECT_EQ(m.bytes_sent, 1300u);
  EXPECT_EQ(m.particles_written, 260u);
  EXPECT_EQ(m.bytes_written, 2600u);
  EXPECT_EQ(m.files_written, a.files_written + b.files_written);
  EXPECT_EQ(m.partition_count, 8);
  EXPECT_TRUE(m.was_aggregator);
  EXPECT_TRUE(m.used_aligned_fast_path);
}

TEST(WriteStats, MaxOverWithDefaultIsIdentity) {
  const WriteStats a = sample_write(1.5, 42);
  const WriteStats m = WriteStats::max_over(WriteStats{}, a);
  EXPECT_DOUBLE_EQ(m.total_seconds(), a.total_seconds());
  EXPECT_EQ(m.particles_written, a.particles_written);
  EXPECT_EQ(m.bytes_sent, a.bytes_sent);
  EXPECT_EQ(m.files_written, a.files_written);
  EXPECT_FALSE(m.was_aggregator);
}

TEST(WriteStats, TotalAndAggregationSecondsSplitAtFileIo) {
  const WriteStats s = sample_write(1.0, 1);
  // total = 1+2+3+4+5+6, aggregation = everything before file I/O.
  EXPECT_DOUBLE_EQ(s.total_seconds(), 21.0);
  EXPECT_DOUBLE_EQ(s.aggregation_seconds(), 10.0);
  EXPECT_DOUBLE_EQ(s.total_seconds() - s.aggregation_seconds(),
                   s.file_io_seconds + s.metadata_io_seconds);
}

TEST(ReadStats, MaxOverTakesSlowestTimesAndSumsVolumes) {
  ReadStats a;
  a.files_opened = 2;
  a.bytes_read = 1000;
  a.particles_scanned = 10;
  a.particles_returned = 5;
  a.cache_hits = 1;
  a.cache_misses = 2;
  a.file_io_seconds = 3.0;
  ReadStats b;
  b.files_opened = 3;
  b.bytes_read = 500;
  b.particles_scanned = 4;
  b.particles_returned = 4;
  b.cache_hits = 4;
  b.cache_misses = 8;
  b.file_io_seconds = 1.0;

  const ReadStats m = ReadStats::max_over(a, b);
  EXPECT_EQ(m.files_opened, 5);
  EXPECT_EQ(m.bytes_read, 1500u);
  EXPECT_EQ(m.particles_scanned, 14u);
  EXPECT_EQ(m.particles_returned, 9u);
  EXPECT_EQ(m.cache_hits, 5u);
  EXPECT_EQ(m.cache_misses, 10u);
  EXPECT_DOUBLE_EQ(m.file_io_seconds, 3.0);
}

TEST(ReadStats, AccumulateAddsEveryField) {
  ReadStats acc;
  ReadStats one;
  one.files_opened = 1;
  one.bytes_read = 100;
  one.particles_scanned = 8;
  one.particles_returned = 2;
  one.cache_hits = 3;
  one.cache_misses = 1;
  one.file_io_seconds = 0.25;
  acc.accumulate(one);
  acc.accumulate(one);
  EXPECT_EQ(acc.files_opened, 2);
  EXPECT_EQ(acc.bytes_read, 200u);
  EXPECT_EQ(acc.particles_scanned, 16u);
  EXPECT_EQ(acc.particles_returned, 4u);
  EXPECT_EQ(acc.cache_hits, 6u);
  EXPECT_EQ(acc.cache_misses, 2u);
  EXPECT_DOUBLE_EQ(acc.file_io_seconds, 0.5);
}

TEST(ReadStats, ReadAmplificationIsScannedOverReturned) {
  ReadStats s;
  EXPECT_DOUBLE_EQ(s.read_amplification(), 0.0);  // nothing returned
  s.particles_scanned = 12;
  s.particles_returned = 4;
  EXPECT_DOUBLE_EQ(s.read_amplification(), 3.0);
  s.particles_returned = 0;
  EXPECT_DOUBLE_EQ(s.read_amplification(), 0.0);
}

}  // namespace
}  // namespace spio
