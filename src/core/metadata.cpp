#include "core/metadata.hpp"

#include "core/query_plan/kd_tree.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace spio {

namespace {

constexpr std::uint32_t kEndianProbe = 0x01020304;

std::vector<Box3> file_boxes(const std::vector<FileRecord>& files) {
  std::vector<Box3> boxes;
  boxes.reserve(files.size());
  for (const FileRecord& f : files) boxes.push_back(f.bounds);
  return boxes;
}

}  // namespace

void FileRecord::serialize(BinaryWriter& w, bool with_bounds,
                           bool with_ranges) const {
  w.write<std::uint32_t>(partition_id);
  w.write<std::uint32_t>(aggregator_rank);
  w.write<std::uint64_t>(particle_count);
  if (with_bounds) {
    w.write<double>(bounds.lo.x);
    w.write<double>(bounds.lo.y);
    w.write<double>(bounds.lo.z);
    w.write<double>(bounds.hi.x);
    w.write<double>(bounds.hi.y);
    w.write<double>(bounds.hi.z);
  }
  if (with_ranges) {
    for (const FieldRange& r : field_ranges) {
      w.write<double>(r.min);
      w.write<double>(r.max);
    }
  }
}

FileRecord FileRecord::deserialize(BinaryReader& r, bool with_bounds,
                                   bool with_ranges,
                                   std::size_t range_count) {
  FileRecord f;
  f.partition_id = r.read<std::uint32_t>();
  f.aggregator_rank = r.read<std::uint32_t>();
  f.particle_count = r.read<std::uint64_t>();
  if (with_bounds) {
    f.bounds.lo.x = r.read<double>();
    f.bounds.lo.y = r.read<double>();
    f.bounds.lo.z = r.read<double>();
    f.bounds.hi.x = r.read<double>();
    f.bounds.hi.y = r.read<double>();
    f.bounds.hi.z = r.read<double>();
    SPIO_CHECK(!f.bounds.is_empty(), FormatError,
               "file record has an empty bounding box");
  }
  if (with_ranges) {
    // `range_count` comes from the schema just parsed: bound it by the
    // bytes left (16 per range) before resizing.
    SPIO_CHECK(range_count <= r.remaining() / (2 * sizeof(double)),
               FormatError,
               "file record claims " << range_count << " field ranges in "
                                     << r.remaining() << " bytes");
    f.field_ranges.resize(range_count);
    for (FieldRange& fr : f.field_ranges) {
      fr.min = r.read<double>();
      fr.max = r.read<double>();
      SPIO_CHECK(fr.min <= fr.max, FormatError,
                 "file record has an inverted field range");
    }
  }
  return f;
}

std::vector<std::byte> DatasetMetadata::serialize() const {
  BinaryWriter w;
  w.write<std::uint32_t>(kMagic);
  w.write<std::uint32_t>(kVersion);
  w.write<std::uint32_t>(kEndianProbe);
  schema.serialize(w);
  w.write<double>(domain.lo.x);
  w.write<double>(domain.lo.y);
  w.write<double>(domain.lo.z);
  w.write<double>(domain.hi.x);
  w.write<double>(domain.hi.y);
  w.write<double>(domain.hi.z);
  w.write<std::uint64_t>(lod.P);
  w.write<double>(lod.S);
  w.write<std::uint8_t>(static_cast<std::uint8_t>(heuristic));
  w.write<std::uint8_t>(has_bounds ? 1 : 0);
  w.write<std::uint8_t>(has_field_ranges ? 1 : 0);
  w.write<std::uint8_t>(has_zone_maps ? 1 : 0);
  w.write<std::uint64_t>(total_particles);
  w.write<std::uint32_t>(static_cast<std::uint32_t>(files.size()));
  for (const FileRecord& f : files) {
    SPIO_CHECK(!has_field_ranges || f.field_ranges.size() == range_count(),
               ConfigError,
               "file record carries " << f.field_ranges.size()
                                      << " field ranges, schema needs "
                                      << range_count());
    f.serialize(w, has_bounds, has_field_ranges);
  }
  // The k-d footer is always regenerated from the file boxes rather than
  // taken from `spatial_tree`, so the bytes are a pure function of the
  // records above (and a stale attached tree can never be persisted).
  if (has_bounds && !files.empty())
    BoxKdTree::build(file_boxes(files)).serialize(w);
  return w.take();
}

DatasetMetadata DatasetMetadata::deserialize(std::span<const std::byte> bytes) {
  BinaryReader r(bytes);
  SPIO_CHECK(r.read<std::uint32_t>() == kMagic, FormatError,
             "not a spio metadata file (bad magic)");
  const auto version = r.read<std::uint32_t>();
  SPIO_CHECK(version >= kMinVersion && version <= kVersion, FormatError,
             "unsupported metadata version " << version);
  SPIO_CHECK(r.read<std::uint32_t>() == kEndianProbe, FormatError,
             "metadata file endianness does not match this host");

  DatasetMetadata m;
  m.schema = Schema::deserialize(r);
  m.domain.lo.x = r.read<double>();
  m.domain.lo.y = r.read<double>();
  m.domain.lo.z = r.read<double>();
  m.domain.hi.x = r.read<double>();
  m.domain.hi.y = r.read<double>();
  m.domain.hi.z = r.read<double>();
  m.lod.P = r.read<std::uint64_t>();
  m.lod.S = r.read<double>();
  SPIO_CHECK(m.lod.valid(), FormatError,
             "invalid LOD parameters P=" << m.lod.P << " S=" << m.lod.S);
  const auto h = r.read<std::uint8_t>();
  SPIO_CHECK(h <= 2, FormatError, "unknown LOD heuristic tag " << int(h));
  m.heuristic = static_cast<LodHeuristic>(h);
  const auto hb = r.read<std::uint8_t>();
  SPIO_CHECK(hb <= 1, FormatError, "corrupt has_bounds flag");
  m.has_bounds = hb == 1;
  const auto hr = r.read<std::uint8_t>();
  SPIO_CHECK(hr <= 1, FormatError, "corrupt has_field_ranges flag");
  m.has_field_ranges = hr == 1;
  if (version >= 3) {
    const auto hz = r.read<std::uint8_t>();
    SPIO_CHECK(hz <= 1, FormatError, "corrupt has_zone_maps flag");
    m.has_zone_maps = hz == 1;
  }
  m.total_particles = r.read<std::uint64_t>();
  const auto nfiles = r.read<std::uint32_t>();
  // The smallest file record (no bounds, no ranges) is 16 bytes: bound the
  // count before reserving.
  SPIO_CHECK(nfiles <= r.remaining() / (2 * sizeof(std::uint32_t) +
                                        sizeof(std::uint64_t)),
             FormatError,
             "metadata claims " << nfiles << " files in " << r.remaining()
                                << " bytes");

  std::uint64_t count_sum = 0;
  m.files.reserve(nfiles);
  for (std::uint32_t i = 0; i < nfiles; ++i) {
    m.files.push_back(FileRecord::deserialize(r, m.has_bounds,
                                              m.has_field_ranges,
                                              m.range_count()));
    count_sum += m.files.back().particle_count;
  }
  if (m.has_bounds && !m.files.empty()) {
    if (version >= 3) {
      // Parse + structurally validate the footer against the file boxes.
      m.spatial_tree = std::make_shared<const BoxKdTree>(
          BoxKdTree::deserialize(r, file_boxes(m.files)));
    } else {
      // v2: no footer on disk — rebuild transparently.
      m.spatial_tree = std::make_shared<const BoxKdTree>(
          BoxKdTree::build(file_boxes(m.files)));
    }
  }
  SPIO_CHECK(r.at_end(), FormatError,
             "trailing bytes after metadata payload");
  SPIO_CHECK(count_sum == m.total_particles, FormatError,
             "file particle counts sum to " << count_sum
                                            << " but header claims "
                                            << m.total_particles);
  return m;
}

void DatasetMetadata::save(const std::filesystem::path& dir) const {
  write_file(dir / kFileName, serialize());
}

DatasetMetadata DatasetMetadata::load(const std::filesystem::path& dir) {
  return deserialize(read_file(dir / kFileName));
}

std::vector<int> DatasetMetadata::files_intersecting(const Box3& box) const {
  SPIO_CHECK(has_bounds, ConfigError,
             "dataset was written without spatial metadata; spatial "
             "queries require a full scan (use query_box_scan_all)");
  std::vector<int> out;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i].bounds.overlaps(box)) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::size_t DatasetMetadata::range_index(std::size_t field,
                                         std::uint32_t component) const {
  SPIO_EXPECTS(field < schema.field_count());
  SPIO_EXPECTS(component < schema.fields()[field].components);
  std::size_t idx = 0;
  for (std::size_t f = 0; f < field; ++f)
    idx += schema.fields()[f].components;
  return idx + component;
}

std::size_t DatasetMetadata::range_count() const {
  std::size_t n = 0;
  for (const FieldDesc& f : schema.fields()) n += f.components;
  return n;
}

}  // namespace spio
