#include "core/query_plan/zone_map.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/lod.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"
#include "workload/particle_buffer.hpp"

namespace spio {

std::uint32_t zone_file_count(const LodParams& lod, std::uint64_t n) {
  return n == 0 ? 0
               : static_cast<std::uint32_t>(lod_level_count(lod, 1, n));
}

std::uint64_t zone_begin(const LodParams& lod, std::uint32_t z,
                         std::uint64_t n) {
  return lod_cumulative(lod, 1, static_cast<int>(z), n);
}

const FileZones* ZoneMapTable::find(std::uint32_t aggregator_rank) const {
  const auto it = std::lower_bound(
      files.begin(), files.end(), aggregator_rank,
      [](const FileZones& f, std::uint32_t r) {
        return f.aggregator_rank < r;
      });
  return it != files.end() && it->aggregator_rank == aggregator_rank
             ? &*it
             : nullptr;
}

std::vector<std::byte> ZoneMapTable::serialize() const {
  BinaryWriter w;
  w.write<std::uint32_t>(kMagic);
  w.write<std::uint32_t>(kVersion);
  w.write<std::uint32_t>(static_cast<std::uint32_t>(range_count));
  w.write<std::uint64_t>(lod.P);
  w.write<double>(lod.S);
  w.write<std::uint32_t>(static_cast<std::uint32_t>(files.size()));
  for (const FileZones& f : files) {
    SPIO_EXPECTS(f.zones.size() ==
                 std::size_t{zone_file_count(lod, f.particle_count)} *
                     range_count);
    w.write<std::uint32_t>(f.aggregator_rank);
    w.write<std::uint64_t>(f.particle_count);
    w.write<std::uint32_t>(zone_file_count(lod, f.particle_count));
    for (const FieldRange& z : f.zones) {
      w.write<double>(z.min);
      w.write<double>(z.max);
    }
  }
  w.write<std::uint64_t>(crc64(w.bytes()));
  return w.take();
}

ZoneMapTable ZoneMapTable::deserialize(std::span<const std::byte> bytes) {
  SPIO_CHECK(bytes.size() > sizeof(std::uint64_t), FormatError,
             "zone sidecar truncated (" << bytes.size() << " bytes)");
  const std::span<const std::byte> body =
      bytes.first(bytes.size() - sizeof(std::uint64_t));
  std::uint64_t trailer;
  std::memcpy(&trailer, bytes.data() + body.size(), sizeof(trailer));
  SPIO_CHECK(trailer == crc64(body), FormatError,
             "zone sidecar CRC mismatch");

  BinaryReader r(body);
  ZoneMapTable t;
  SPIO_CHECK(r.read<std::uint32_t>() == kMagic, FormatError,
             "not a zone sidecar (bad magic)");
  SPIO_CHECK(r.read<std::uint32_t>() == kVersion, FormatError,
             "unsupported zone sidecar version");
  t.range_count = r.read<std::uint32_t>();
  t.lod.P = r.read<std::uint64_t>();
  t.lod.S = r.read<double>();
  SPIO_CHECK(t.lod.valid(), FormatError,
             "zone sidecar has invalid LOD parameters");
  const auto file_count = r.read<std::uint32_t>();
  t.files.reserve(file_count);
  for (std::uint32_t i = 0; i < file_count; ++i) {
    FileZones f;
    f.aggregator_rank = r.read<std::uint32_t>();
    f.particle_count = r.read<std::uint64_t>();
    SPIO_CHECK(f.particle_count > 0, FormatError,
               "zone sidecar entry " << i << " claims an empty file");
    SPIO_CHECK(t.files.empty() ||
                   t.files.back().aggregator_rank < f.aggregator_rank,
               FormatError, "zone sidecar entries out of order");
    const auto zones = r.read<std::uint32_t>();
    SPIO_CHECK(zones == zone_file_count(t.lod, f.particle_count),
               FormatError,
               "zone sidecar entry " << i
                                     << " violates the LOD zone-count law");
    f.zones.resize(std::size_t{zones} * t.range_count);
    for (FieldRange& z : f.zones) {
      z.min = r.read<double>();
      z.max = r.read<double>();
      SPIO_CHECK(!std::isnan(z.min) && !std::isnan(z.max) && z.min <= z.max,
                 FormatError,
                 "zone sidecar entry " << i << " has an invalid range");
    }
    t.files.push_back(std::move(f));
  }
  SPIO_CHECK(r.at_end(), FormatError,
             "zone sidecar has trailing bytes");
  return t;
}

void ZoneMapTable::save(const std::filesystem::path& dir) const {
  write_file(dir / kFileName, serialize());
}

ZoneMapTable ZoneMapTable::load(const std::filesystem::path& dir) {
  return deserialize(read_file(dir / kFileName));
}

bool ZoneMapTable::present(const std::filesystem::path& dir) {
  std::error_code ec;
  return std::filesystem::is_regular_file(dir / kFileName, ec);
}

namespace {

/// One field component of a record: its byte offset and whether it is
/// f64 (else f32).
struct Comp {
  std::size_t offset;
  bool f64;

  double load(const std::byte* rec) const {
    if (f64) {
      double v;
      std::memcpy(&v, rec + offset, sizeof(double));
      return v;
    }
    float fv;
    std::memcpy(&fv, rec + offset, sizeof(float));
    return static_cast<double>(fv);
  }
};

std::vector<Comp> components(const Schema& s) {
  std::vector<Comp> comps;
  for (std::size_t f = 0; f < s.field_count(); ++f) {
    const FieldDesc& fd = s.fields()[f];
    const std::size_t elem = field_type_size(fd.type);
    for (std::uint32_t c = 0; c < fd.components; ++c)
      comps.push_back({s.offset(f) + c * elem, fd.type == FieldType::kF64});
  }
  return comps;
}

}  // namespace

void add_zone_maps(std::vector<FieldRange>& zones,
                   std::span<const std::byte> records, const Schema& schema,
                   const LodParams& lod, std::uint64_t first,
                   std::uint64_t n) {
  const std::vector<Comp> comps = components(schema);
  const std::size_t rs = schema.record_size();
  SPIO_EXPECTS(records.size() % rs == 0 && first + records.size() / rs <= n);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (zones.empty())
    zones.assign(std::size_t{zone_file_count(lod, n)} * comps.size(),
                 FieldRange{kInf, -kInf});
  std::uint32_t z = 0;
  std::uint64_t next = zone_begin(lod, 1, n);
  // Record-major, like add_field_ranges: each record updates all of its
  // zone's component ranges while it sits in cache.
  for (std::uint64_t i = first; i < first + records.size() / rs; ++i) {
    while (i >= next) next = zone_begin(lod, ++z + 1, n);
    const std::byte* rec = records.data() + (i - first) * rs;
    FieldRange* zr = zones.data() + std::size_t{z} * comps.size();
    for (std::size_t c = 0; c < comps.size(); ++c) {
      const double v = comps[c].load(rec);
      if (std::isnan(v)) {
        // Filter kernels pass NaN, so the zone must match everything.
        zr[c] = {-kInf, kInf};
      } else {
        zr[c].min = std::min(zr[c].min, v);
        zr[c].max = std::max(zr[c].max, v);
      }
    }
  }
}

std::vector<FieldRange> compute_zone_maps(const ParticleBuffer& buf,
                                          const LodParams& lod) {
  std::vector<FieldRange> zones;
  add_zone_maps(zones, buf.bytes(), buf.schema(), lod, 0, buf.size());
  return zones;
}

void add_field_ranges(std::vector<FieldRange>& ranges,
                      std::span<const std::byte> records,
                      const Schema& schema) {
  const std::vector<Comp> comps = components(schema);
  const std::size_t rs = schema.record_size();
  SPIO_EXPECTS(records.size() % rs == 0);
  // Folding the seed record in again changes nothing, NaN seeds included.
  if (ranges.empty() && !records.empty())
    for (const Comp& c : comps)
      ranges.push_back({c.load(records.data()), c.load(records.data())});
  // Record-major: every record is touched once, all component ranges are
  // updated from it while it is in cache.
  for (std::size_t off = 0; off < records.size(); off += rs) {
    for (std::size_t c = 0; c < comps.size(); ++c) {
      const double v = comps[c].load(records.data() + off);
      ranges[c].min = std::min(ranges[c].min, v);
      ranges[c].max = std::max(ranges[c].max, v);
    }
  }
}

std::vector<FieldRange> zone_union(const std::vector<FieldRange>& zones,
                                   std::size_t range_count) {
  SPIO_EXPECTS(range_count > 0 && zones.size() % range_count == 0);
  std::vector<FieldRange> out(zones.begin(),
                              zones.begin() + static_cast<std::ptrdiff_t>(
                                                  range_count));
  for (std::size_t i = range_count; i < zones.size(); ++i) {
    FieldRange& u = out[i % range_count];
    u.min = std::min(u.min, zones[i].min);
    u.max = std::max(u.max, zones[i].max);
  }
  return out;
}

bool zones_consistent(const ZoneMapTable& table,
                      const DatasetMetadata& meta) {
  if (table.range_count != meta.range_count()) return false;
  if (table.lod.P != meta.lod.P || table.lod.S != meta.lod.S) return false;
  for (const FileRecord& f : meta.files) {
    if (f.particle_count == 0) continue;  // no file on disk, no zones
    const FileZones* z = table.find(f.aggregator_rank);
    if (z == nullptr || z->particle_count != f.particle_count) return false;
  }
  return true;
}

}  // namespace spio
