#include "util/serialize.hpp"

#include <gtest/gtest.h>

#include "util/temp_dir.hpp"

namespace spio {
namespace {

TEST(BinaryRoundTrip, ScalarsInOrder) {
  BinaryWriter w;
  w.write<std::uint32_t>(7);
  w.write<double>(3.25);
  w.write<std::int8_t>(-2);

  BinaryReader r(w.bytes());
  EXPECT_EQ(r.read<std::uint32_t>(), 7u);
  EXPECT_EQ(r.read<double>(), 3.25);
  EXPECT_EQ(r.read<std::int8_t>(), -2);
  EXPECT_TRUE(r.at_end());
}

TEST(BinaryRoundTrip, VectorWithLengthPrefix) {
  BinaryWriter w;
  std::vector<std::uint64_t> v{1, 2, 3, 4};
  w.write_vector(v);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.read_vector<std::uint64_t>(), v);
}

TEST(BinaryRoundTrip, EmptyVector) {
  BinaryWriter w;
  w.write_vector(std::vector<double>{});
  BinaryReader r(w.bytes());
  EXPECT_TRUE(r.read_vector<double>().empty());
  EXPECT_TRUE(r.at_end());
}

TEST(BinaryRoundTrip, Strings) {
  BinaryWriter w;
  w.write_string("position");
  w.write_string("");
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.read_string(), "position");
  EXPECT_EQ(r.read_string(), "");
}

TEST(BinaryReader, TruncatedScalarThrows) {
  BinaryWriter w;
  w.write<std::uint16_t>(5);
  BinaryReader r(w.bytes());
  EXPECT_THROW(r.read<std::uint64_t>(), FormatError);
}

TEST(BinaryReader, OversizedLengthPrefixThrows) {
  BinaryWriter w;
  w.write<std::uint64_t>(1'000'000);  // claims a million elements
  BinaryReader r(w.bytes());
  EXPECT_THROW(r.read_vector<double>(), FormatError);

  // 2^61 + 1 doubles is 2^64 + 8 bytes, which wraps to the 8 bytes left:
  // a multiplying bounds check would pass and the allocation would throw
  // std::length_error instead of a typed error.
  BinaryWriter forged;
  forged.write<std::uint64_t>((std::uint64_t{1} << 61) + 1);
  forged.write<double>(1.0);
  BinaryReader fr(forged.bytes());
  EXPECT_THROW(fr.read_vector<double>(), FormatError);
  BinaryReader sr(forged.bytes());
  EXPECT_THROW(sr.read_span<double>((std::size_t{1} << 61) + 1),
               FormatError);
}

TEST(BinaryReader, OversizedStringThrows) {
  BinaryWriter w;
  w.write<std::uint64_t>(100);
  w.write<std::uint8_t>('x');
  BinaryReader r(w.bytes());
  EXPECT_THROW(r.read_string(), FormatError);
}

TEST(BinaryReader, RemainingAndPositionTrack) {
  BinaryWriter w;
  w.write<std::uint32_t>(1);
  w.write<std::uint32_t>(2);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  r.read<std::uint32_t>();
  EXPECT_EQ(r.position(), 4u);
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(FileIo, WriteReadRoundTrip) {
  TempDir dir("serialize-test");
  const auto path = dir.file("blob.bin");
  std::vector<std::byte> payload(1000);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::byte>(i % 251);
  write_file(path, payload);
  EXPECT_EQ(file_size_bytes(path), payload.size());
  EXPECT_EQ(read_file(path), payload);
}

TEST(FileIo, RangedRead) {
  TempDir dir("serialize-test");
  const auto path = dir.file("blob.bin");
  std::vector<std::byte> payload(100);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::byte>(i);
  write_file(path, payload);

  const auto mid = read_file_range(path, 10, 20);
  ASSERT_EQ(mid.size(), 20u);
  for (std::size_t i = 0; i < mid.size(); ++i)
    EXPECT_EQ(mid[i], static_cast<std::byte>(10 + i));
}

TEST(FileIo, RangePastEndThrowsFormatError) {
  TempDir dir("serialize-test");
  const auto path = dir.file("blob.bin");
  write_file(path, std::vector<std::byte>(10));
  EXPECT_THROW(read_file_range(path, 5, 10), FormatError);
}

TEST(FileIo, MissingFileThrowsIoError) {
  TempDir dir("serialize-test");
  EXPECT_THROW(read_file(dir.file("nope.bin")), IoError);
  EXPECT_THROW(file_size_bytes(dir.file("nope.bin")), IoError);
}

TEST(FileIo, AppendExtendsFile) {
  TempDir dir("serialize-test");
  const auto path = dir.file("log.bin");
  std::vector<std::byte> a(3, std::byte{1}), b(2, std::byte{2});
  append_file(path, a);
  append_file(path, b);
  const auto all = read_file(path);
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0], std::byte{1});
  EXPECT_EQ(all[4], std::byte{2});
}

TEST(FileIo, OverwriteReplacesContent) {
  TempDir dir("serialize-test");
  const auto path = dir.file("blob.bin");
  write_file(path, std::vector<std::byte>(100, std::byte{7}));
  write_file(path, std::vector<std::byte>(3, std::byte{9}));
  EXPECT_EQ(file_size_bytes(path), 3u);
}

}  // namespace
}  // namespace spio
