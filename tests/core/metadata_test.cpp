#include "core/metadata.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/journal.hpp"
#include "util/serialize.hpp"
#include "util/temp_dir.hpp"

namespace spio {
namespace {

DatasetMetadata sample_metadata() {
  DatasetMetadata m;
  m.schema = Schema::uintah();
  m.domain = Box3({0, 0, 0}, {4, 4, 4});
  m.lod = {32, 2.0};
  m.has_field_ranges = false;
  m.total_particles = 300;
  m.files.push_back({0, 0, 100, Box3({0, 0, 0}, {2, 4, 4}), {}});
  m.files.push_back({1, 4, 200, Box3({2, 0, 0}, {4, 4, 4}), {}});
  return m;
}

DatasetMetadata sample_with_ranges() {
  DatasetMetadata m = sample_metadata();
  m.has_field_ranges = true;
  for (auto& f : m.files) {
    f.field_ranges.assign(m.range_count(), FieldRange{0.0, 1.0});
    // Make density (index 12 = 3 position + 9 stress) distinctive.
    f.field_ranges[m.range_index(m.schema.index_of("density"), 0)] = {
        900.0 + f.partition_id * 100.0, 1000.0 + f.partition_id * 100.0};
  }
  return m;
}

TEST(Metadata, RangeIndexingFlattensComponents) {
  const DatasetMetadata m = sample_metadata();
  // uintah: position x3, stress x9, density, volume, id, type = 16.
  EXPECT_EQ(m.range_count(), 16u);
  EXPECT_EQ(m.range_index(0, 0), 0u);
  EXPECT_EQ(m.range_index(0, 2), 2u);
  EXPECT_EQ(m.range_index(1, 0), 3u);   // stress starts after position
  EXPECT_EQ(m.range_index(2, 0), 12u);  // density
  EXPECT_EQ(m.range_index(5, 0), 15u);  // type
}

TEST(Metadata, FieldRangesRoundTrip) {
  const DatasetMetadata m = sample_with_ranges();
  const DatasetMetadata back = DatasetMetadata::deserialize(m.serialize());
  EXPECT_EQ(back, m);
  EXPECT_TRUE(back.has_field_ranges);
  const auto di = m.range_index(m.schema.index_of("density"), 0);
  EXPECT_EQ(back.files[1].field_ranges[di], (FieldRange{1000.0, 1100.0}));
}

TEST(Metadata, FieldRangeIntersection) {
  const FieldRange r{5.0, 10.0};
  EXPECT_TRUE(r.intersects(0.0, 5.0));    // touch at the low end
  EXPECT_TRUE(r.intersects(10.0, 20.0));  // touch at the high end
  EXPECT_TRUE(r.intersects(6.0, 7.0));    // inside
  EXPECT_TRUE(r.intersects(0.0, 20.0));   // contains
  EXPECT_FALSE(r.intersects(0.0, 4.9));
  EXPECT_FALSE(r.intersects(10.1, 20.0));
}

TEST(Metadata, InconsistentRangeTableRejectedOnWrite) {
  DatasetMetadata m = sample_with_ranges();
  m.files[0].field_ranges.pop_back();
  EXPECT_THROW(m.serialize(), ConfigError);
}

TEST(Metadata, InvertedRangeRejectedOnRead) {
  DatasetMetadata m = sample_with_ranges();
  m.files[0].field_ranges[0] = {5.0, 1.0};
  EXPECT_THROW(DatasetMetadata::deserialize(m.serialize()), FormatError);
}

TEST(Metadata, SerializeDeserializeRoundTrip) {
  const DatasetMetadata m = sample_metadata();
  const auto bytes = m.serialize();
  EXPECT_EQ(DatasetMetadata::deserialize(bytes), m);
}

TEST(Metadata, SaveLoadRoundTrip) {
  TempDir dir("meta-test");
  const DatasetMetadata m = sample_metadata();
  m.save(dir.path());
  EXPECT_TRUE(std::filesystem::exists(dir.file(DatasetMetadata::kFileName)));
  EXPECT_EQ(DatasetMetadata::load(dir.path()), m);
}

TEST(Metadata, FileNameDerivedFromAggregatorRank) {
  // Fig. 4: "Agg rank is used to derive the name of the data file".
  FileRecord f;
  f.aggregator_rank = 12;
  EXPECT_EQ(f.file_name(), "File_12.bin");
}

TEST(Metadata, RoundTripWithoutBounds) {
  DatasetMetadata m = sample_metadata();
  m.has_bounds = false;
  const auto back = DatasetMetadata::deserialize(m.serialize());
  EXPECT_EQ(back.has_bounds, false);
  EXPECT_EQ(back.files.size(), 2u);
  EXPECT_EQ(back.files[1].particle_count, 200u);
  // Without bounds, spatial selection must refuse.
  EXPECT_THROW(back.files_intersecting(Box3::unit()), ConfigError);
}

TEST(Metadata, FilesIntersectingSelectsByBox) {
  const DatasetMetadata m = sample_metadata();
  EXPECT_EQ(m.files_intersecting(Box3({0, 0, 0}, {1, 1, 1})),
            (std::vector<int>{0}));
  EXPECT_EQ(m.files_intersecting(Box3({3, 3, 3}, {4, 4, 4})),
            (std::vector<int>{1}));
  EXPECT_EQ(m.files_intersecting(Box3({1, 1, 1}, {3, 3, 3})),
            (std::vector<int>{0, 1}));
  EXPECT_TRUE(m.files_intersecting(Box3({9, 9, 9}, {10, 10, 10})).empty());
}

TEST(Metadata, RejectsBadMagic) {
  auto bytes = sample_metadata().serialize();
  bytes[0] = std::byte{0xFF};
  EXPECT_THROW(DatasetMetadata::deserialize(bytes), FormatError);
}

TEST(Metadata, RejectsWrongVersion) {
  auto bytes = sample_metadata().serialize();
  bytes[4] = std::byte{99};
  EXPECT_THROW(DatasetMetadata::deserialize(bytes), FormatError);
}

TEST(Metadata, RejectsTruncation) {
  const auto bytes = sample_metadata().serialize();
  for (const std::size_t keep : {bytes.size() - 1, bytes.size() / 2,
                                 std::size_t{10}, std::size_t{0}}) {
    std::vector<std::byte> cut(bytes.begin(),
                               bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(DatasetMetadata::deserialize(cut), FormatError)
        << "kept " << keep;
  }
}

TEST(Metadata, RejectsTrailingGarbage) {
  auto bytes = sample_metadata().serialize();
  bytes.push_back(std::byte{0});
  EXPECT_THROW(DatasetMetadata::deserialize(bytes), FormatError);
}

TEST(Metadata, RejectsInconsistentTotals) {
  DatasetMetadata m = sample_metadata();
  m.total_particles = 999;  // != 100 + 200
  EXPECT_THROW(DatasetMetadata::deserialize(m.serialize()), FormatError);
}

TEST(Metadata, ForgedCountsAreRefusedBeforeReserving) {
  // A file count of 2^32 - 1 with no records behind it.
  DatasetMetadata empty;
  empty.domain = Box3::unit();
  auto bytes = empty.serialize();  // ends in the u32 file count, here 0
  for (std::size_t i = bytes.size() - 4; i < bytes.size(); ++i)
    bytes[i] = std::byte{0xFF};
  EXPECT_THROW(DatasetMetadata::deserialize(bytes), FormatError);

  // A schema field of 2^32 - 16 components, so each file record would
  // carry that many field ranges.
  DatasetMetadata m;
  m.schema = Schema({{"position", FieldType::kF64, 3},
                     {"big", FieldType::kF64, 1}});
  m.domain = Box3::unit();
  m.has_field_ranges = true;
  m.total_particles = 1;
  m.files.push_back({0, 0, 1, Box3::unit(), {}});
  m.files[0].field_ranges.assign(m.range_count(), FieldRange{0.0, 1.0});
  bytes = m.serialize();
  // The field descriptor is the name "big", a type byte, then the u32
  // component count.
  const std::string name = "big";
  const auto at = std::search(
      bytes.begin(), bytes.end(), name.begin(), name.end(),
      [](std::byte b, char c) { return b == static_cast<std::byte>(c); });
  ASSERT_NE(at, bytes.end());
  const std::uint32_t components = 0xFFFFFFF0;
  std::memcpy(&*(at + 3 + 1), &components, sizeof(components));
  EXPECT_THROW(DatasetMetadata::deserialize(bytes), FormatError);
}

TEST(ChecksumTable, ForgedEntryCountIsRefusedBeforeReserving) {
  TempDir dir("checksum-forged");
  BinaryWriter w;
  w.write<std::uint32_t>(ChecksumTable::kMagic);
  w.write<std::uint32_t>(ChecksumTable::kVersion);
  w.write<std::uint64_t>(std::uint64_t{1} << 40);  // 2^40 entries, none here
  write_file(dir.file(ChecksumTable::kFileName), w.bytes());
  EXPECT_THROW(ChecksumTable::load(dir.path()), FormatError);
}

TEST(Metadata, LoadMissingDirectoryThrowsIoError) {
  TempDir dir("meta-test");
  EXPECT_THROW(DatasetMetadata::load(dir.path() / "nonexistent"), IoError);
}

TEST(Metadata, EmptyDatasetRoundTrips) {
  DatasetMetadata m;
  m.domain = Box3::unit();
  const auto back = DatasetMetadata::deserialize(m.serialize());
  EXPECT_EQ(back.files.size(), 0u);
  EXPECT_EQ(back.total_particles, 0u);
}

}  // namespace
}  // namespace spio
