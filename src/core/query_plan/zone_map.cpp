#include "core/query_plan/zone_map.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/lod.hpp"
#include "simd/simd_level.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"
#include "workload/particle_buffer.hpp"

#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SPIO_ZONE_AVX2 1
#include <immintrin.h>
#endif

namespace spio {

std::uint64_t zone_end(const LodParams& lod, std::size_t z,
                       std::uint64_t begin, std::uint64_t n) {
  const std::uint64_t size = lod_level_size(lod, 1, static_cast<int>(z));
  return size >= n - begin ? n : begin + size;
}

namespace {

/// The zone count of an `n`-record file, walking at most `cap` + 1 zones:
/// a larger count reads as `cap` + 1.
std::uint64_t count_zones(const LodParams& lod, std::uint64_t n,
                          std::uint64_t cap) {
  std::uint64_t z = 0;
  for (std::uint64_t b = 0; b < n && z <= cap; ++z) b = zone_end(lod, z, b, n);
  return z;
}

}  // namespace

std::uint32_t zone_file_count(const LodParams& lod, std::uint64_t n) {
  return static_cast<std::uint32_t>(
      count_zones(lod, n, std::numeric_limits<std::uint32_t>::max()));
}

std::vector<std::uint64_t> zone_bounds(const LodParams& lod,
                                       std::uint64_t n) {
  std::vector<std::uint64_t> b{0};
  while (b.back() < n) b.push_back(zone_end(lod, b.size() - 1, b.back(), n));
  return b;
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
    const std::uint32_t zones = zone_file_count(lod, f.particle_count);
    SPIO_EXPECTS(f.zones.size() == std::size_t{zones} * range_count);
    w.write<std::uint32_t>(f.aggregator_rank);
    w.write<std::uint64_t>(f.particle_count);
    w.write<std::uint32_t>(zones);
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
  SPIO_CHECK(t.range_count > 0, FormatError,
             "zone sidecar has no field components");
  t.lod.P = r.read<std::uint64_t>();
  t.lod.S = r.read<double>();
  SPIO_CHECK(t.lod.valid(), FormatError,
             "zone sidecar has invalid LOD parameters");
  const auto file_count = r.read<std::uint32_t>();
  // The smallest entry (rank, count, zone count) is 16 bytes: bound the
  // count before reserving.
  SPIO_CHECK(file_count <= r.remaining() / (2 * sizeof(std::uint32_t) +
                                            sizeof(std::uint64_t)),
             FormatError,
             "zone sidecar claims " << file_count << " files in "
                                    << r.remaining() << " bytes");
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
    // Bytes first: they bound the law's walk below, which a forged entry
    // (S = 1, a huge file) could otherwise make as long as the file.
    SPIO_CHECK(zones <= r.remaining() / (2 * sizeof(double)) / t.range_count,
               FormatError, "zone sidecar entry " << i << " truncated");
    SPIO_CHECK(count_zones(t.lod, f.particle_count, zones) == zones,
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

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Sizes an empty zone table and checks that `records` fits the file.
void prepare_zones(std::vector<FieldRange>& zones,
                   std::span<const std::byte> records, std::size_t rs,
                   std::size_t comp_count,
                   std::span<const std::uint64_t> bounds,
                   std::uint64_t first) {
  SPIO_EXPECTS(!bounds.empty() && records.size() % rs == 0 &&
               first + records.size() / rs <= bounds.back());
  if (zones.empty())
    zones.assign((bounds.size() - 1) * comp_count, FieldRange{kInf, -kInf});
}

#ifdef SPIO_ZONE_AVX2
/// Folds one segment's reduction of a component into its zone entry.
/// Equal values keep the table's, as `std::min(table, v)` per record
/// does, so -0.0 and +0.0 land as in the record-major loop.
void fold(FieldRange& z, double mn, double mx, bool nan) {
  if (nan) {
    // Filter kernels pass NaN, so the zone must match everything.
    z = {-kInf, kInf};
    return;
  }
  z.min = std::min(z.min, mn);
  z.max = std::max(z.max, mx);
}

/// A record as the blocked kernel reads it: 4-lane loads over every run
/// of at least four contiguous f64 components, the last load of a run
/// overlapping the one before (min/max are idempotent), and the
/// components no load covers.
struct BlockedPlan {
  struct Load {
    std::size_t offset;  // byte offset of the first of four f64s
    std::size_t comp;    // their first component
  };
  std::vector<Load> loads;  // a multiple of 4; padding repeats the last
  std::vector<std::size_t> scalar;
};

BlockedPlan blocked_plan(const std::vector<Comp>& comps) {
  BlockedPlan p;
  for (std::size_t c = 0; c < comps.size();) {
    std::size_t e = c + 1;
    while (comps[c].f64 && e < comps.size() && comps[e].f64 &&
           comps[e].offset == comps[e - 1].offset + sizeof(double))
      ++e;
    if (e - c >= 4) {
      for (std::size_t k = c; k < e; k += 4) {
        const std::size_t at = std::min(k, e - 4);
        p.loads.push_back({comps[at].offset, at});
      }
    } else {
      for (std::size_t k = c; k < e; ++k) p.scalar.push_back(k);
    }
    c = e;
  }
  while (p.loads.size() % 4 != 0) p.loads.push_back(p.loads.back());
  return p;
}

template <typename T>
void reduce_scalar(const std::byte* rec, std::size_t count, std::size_t rs,
                   std::size_t offset, FieldRange& zone) {
  double mn = kInf;
  double mx = -kInf;
  bool nan = false;
  for (std::size_t i = 0; i < count; ++i) {
    T t;
    std::memcpy(&t, rec + i * rs + offset, sizeof t);
    const double v = static_cast<double>(t);
    nan |= v != v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  fold(zone, mn, mx, nan);
}

/// Four 4-lane loads per record, their min, max and NaN mask held in
/// registers over the segment's `count` records.
__attribute__((target("avx2"))) void reduce_loads(
    const std::byte* rec, std::size_t count, std::size_t rs,
    const BlockedPlan::Load* loads, FieldRange* zone) {
  std::size_t off[4];
  __m256d mn[4], mx[4], nan[4];
  for (int j = 0; j < 4; ++j) {
    off[j] = loads[j].offset;
    mn[j] = _mm256_set1_pd(kInf);
    mx[j] = _mm256_set1_pd(-kInf);
    nan[j] = _mm256_setzero_pd();
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::byte* r = rec + i * rs;
    for (int j = 0; j < 4; ++j) {
      const __m256d v =
          _mm256_loadu_pd(reinterpret_cast<const double*>(r + off[j]));
      // (v, acc): ties and a NaN v keep acc, as std::min(acc, v) does.
      mn[j] = _mm256_min_pd(v, mn[j]);
      mx[j] = _mm256_max_pd(v, mx[j]);
      nan[j] = _mm256_or_pd(nan[j], _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
    }
  }
  for (int j = 0; j < 4; ++j) {
    alignas(32) double lo[4], hi[4];
    _mm256_store_pd(lo, mn[j]);
    _mm256_store_pd(hi, mx[j]);
    const int nan_lanes = _mm256_movemask_pd(nan[j]);
    for (int l = 0; l < 4; ++l)
      fold(zone[loads[j].comp + static_cast<std::size_t>(l)], lo[l], hi[l],
           ((nan_lanes >> l) & 1) != 0);
  }
}

/// The blocked kernel: one segment (the part of the chunk inside one
/// zone) at a time, folded into the table once per component.
void add_zone_maps_blocked(std::vector<FieldRange>& zones,
                           std::span<const std::byte> records,
                           const std::vector<Comp>& comps, std::size_t rs,
                           std::span<const std::uint64_t> bounds,
                           std::uint64_t first) {
  const BlockedPlan plan = blocked_plan(comps);
  const std::uint64_t end = first + records.size() / rs;
  std::size_t z = static_cast<std::size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), first) -
      bounds.begin() - 1);
  for (std::uint64_t i = first; i < end;) {
    if (i == bounds[z + 1]) ++z;
    const std::uint64_t seg_end = std::min(bounds[z + 1], end);
    const std::size_t count = static_cast<std::size_t>(seg_end - i);
    const std::byte* rec = records.data() + (i - first) * rs;
    FieldRange* zr = zones.data() + z * comps.size();
    for (std::size_t k = 0; k < plan.loads.size(); k += 4)
      reduce_loads(rec, count, rs, &plan.loads[k], zr);
    for (const std::size_t c : plan.scalar) {
      if (comps[c].f64)
        reduce_scalar<double>(rec, count, rs, comps[c].offset, zr[c]);
      else
        reduce_scalar<float>(rec, count, rs, comps[c].offset, zr[c]);
    }
    i = seg_end;
  }
}
#endif  // SPIO_ZONE_AVX2

}  // namespace

void add_zone_maps(std::vector<FieldRange>& zones,
                   std::span<const std::byte> records, const Schema& schema,
                   std::span<const std::uint64_t> bounds,
                   std::uint64_t first) {
#ifdef SPIO_ZONE_AVX2
  if (simd::active_level() >= simd::Level::kAVX2) {
    const std::vector<Comp> comps = components(schema);
    const std::size_t rs = schema.record_size();
    prepare_zones(zones, records, rs, comps.size(), bounds, first);
    add_zone_maps_blocked(zones, records, comps, rs, bounds, first);
    return;
  }
#endif
  add_zone_maps_reference(zones, records, schema, bounds, first);
}

void add_zone_maps_reference(std::vector<FieldRange>& zones,
                             std::span<const std::byte> records,
                             const Schema& schema,
                             std::span<const std::uint64_t> bounds,
                             std::uint64_t first) {
  const std::vector<Comp> comps = components(schema);
  const std::size_t rs = schema.record_size();
  prepare_zones(zones, records, rs, comps.size(), bounds, first);
  std::size_t z = 0;
  // Record-major, like add_field_ranges: each record updates all of its
  // zone's component ranges while it sits in cache.
  for (std::uint64_t i = first; i < first + records.size() / rs; ++i) {
    while (i >= bounds[z + 1]) ++z;
    const std::byte* rec = records.data() + (i - first) * rs;
    FieldRange* zr = zones.data() + z * comps.size();
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
  add_zone_maps(zones, buf.bytes(), buf.schema(), zone_bounds(lod, buf.size()),
                0);
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
