#include "core/lod.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "util/error.hpp"

namespace spio {

namespace {
constexpr std::uint64_t kU64Max = ~0ULL;

/// n · P · S^l with saturation to u64 max.
std::uint64_t nominal(const LodParams& p, int n_readers, int level) {
  SPIO_EXPECTS(p.valid());
  SPIO_EXPECTS(n_readers >= 1);
  SPIO_EXPECTS(level >= 0);
  const double v = static_cast<double>(n_readers) *
                   static_cast<double>(p.P) *
                   std::pow(p.S, static_cast<double>(level));
  if (v >= static_cast<double>(kU64Max)) return kU64Max;
  return static_cast<std::uint64_t>(v + 0.5);
}
}  // namespace

std::uint64_t lod_level_size(const LodParams& p, int n_readers, int level) {
  return nominal(p, n_readers, level);
}

std::uint64_t lod_cumulative(const LodParams& p, int n_readers, int levels,
                             std::uint64_t total) {
  SPIO_EXPECTS(levels >= 0);
  std::uint64_t cum = 0;
  for (int l = 0; l < levels; ++l) {
    const std::uint64_t sz = nominal(p, n_readers, l);
    if (sz >= total - cum) return total;  // saturated
    cum += sz;
  }
  return cum;
}

std::uint64_t lod_level_size_capped(const LodParams& p, int n_readers,
                                    int level, std::uint64_t total) {
  const std::uint64_t before = lod_cumulative(p, n_readers, level, total);
  const std::uint64_t through = lod_cumulative(p, n_readers, level + 1, total);
  return through - before;
}

int lod_level_count(const LodParams& p, int n_readers, std::uint64_t total) {
  if (total == 0) return 0;
  int levels = 0;
  while (lod_cumulative(p, n_readers, levels, total) < total) ++levels;
  return levels;
}

namespace {

using Order = std::vector<const std::byte*>;

/// `recs` in bit-reversed index order (0..2^bits-1 reversed, filtered to
/// < n): every prefix visits the sequence at even spacing.
Order bit_reversed(const Order& recs) {
  const std::size_t n = recs.size();
  Order out;
  out.reserve(n);
  std::size_t bits = 0;
  while ((1ULL << bits) < n) ++bits;
  for (std::size_t i = 0; i < (1ULL << bits); ++i) {
    std::size_t rev = 0;
    for (std::size_t b = 0; b < bits; ++b)
      if (i & (1ULL << b)) rev |= 1ULL << (bits - 1 - b);
    if (rev < n) out.push_back(recs[rev]);
  }
  return out;
}

/// 30-bit Morton code (10 bits per axis) of a normalized position.
std::uint32_t morton_code(const Vec3d& rel) {
  auto quantize = [](double v) {
    return static_cast<std::uint32_t>(
        std::clamp(v, 0.0, 1.0 - 1e-12) * 1024.0);
  };
  auto spread = [](std::uint32_t x) {
    // Interleave 10 bits with two zero bits each.
    std::uint64_t v = x & 0x3FF;
    v = (v | (v << 16)) & 0x030000FF0000FFULL;
    v = (v | (v << 8)) & 0x0300F00F00F00FULL;
    v = (v | (v << 4)) & 0x030C30C30C30C3ULL;
    v = (v | (v << 2)) & 0x09249249249249ULL;
    return v;
  };
  return static_cast<std::uint32_t>(spread(quantize(rel.x)) |
                                    (spread(quantize(rel.y)) << 1) |
                                    (spread(quantize(rel.z)) << 2));
}

/// Fisher–Yates: after the pass, every permutation is equally likely, so
/// every prefix is a uniform random subset — exactly the property the LOD
/// prefix reads rely on.
void shuffle_random(Order& recs, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (std::size_t i = recs.size(); i > 1; --i)
    std::swap(recs[i - 1], recs[static_cast<std::size_t>(rng.uniform_index(
                               static_cast<std::uint64_t>(i)))]);
}

/// Sort `recs` along the Morton curve of their positions; ties (same
/// cell) are broken pseudo-randomly so co-located particles do not keep
/// their input order.
void sort_morton(Order& recs, std::uint64_t seed) {
  const auto position = [](const std::byte* rec) {
    Vec3d p;
    std::memcpy(&p, rec, sizeof(Vec3d));
    return p;
  };
  Box3 bounds = Box3::empty();
  for (const std::byte* rec : recs) bounds.extend(position(rec));
  const Vec3d size = Vec3d::max(bounds.size(), Vec3d(1e-300));
  struct Key {
    std::uint32_t morton;
    std::uint32_t tiebreak;
    const std::byte* rec;
  };
  std::vector<Key> keys;
  keys.reserve(recs.size());
  Xoshiro256 rng(seed);
  for (const std::byte* rec : recs)
    keys.push_back({morton_code((position(rec) - bounds.lo) / size),
                    static_cast<std::uint32_t>(rng.next()), rec});
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return a.morton != b.morton ? a.morton < b.morton
                                : a.tiebreak < b.tiebreak;
  });
  for (std::size_t i = 0; i < keys.size(); ++i) recs[i] = keys[i].rec;
}

}  // namespace

std::vector<const std::byte*> lod_order(
    std::span<const std::span<const std::byte>> segments,
    std::size_t record_size, std::uint64_t seed, LodHeuristic heuristic) {
  SPIO_EXPECTS(record_size > 0);
  std::size_t bytes = 0;
  for (const auto& seg : segments) bytes += seg.size();
  Order recs;
  recs.reserve(bytes / record_size);
  for (const auto& seg : segments) {
    SPIO_EXPECTS(seg.size() % record_size == 0);
    for (std::size_t off = 0; off < seg.size(); off += record_size)
      recs.push_back(seg.data() + off);
  }
  switch (heuristic) {
    case LodHeuristic::kRandom:
      shuffle_random(recs, seed);
      return recs;
    case LodHeuristic::kStride:
      // Deterministic interleave over the input order.
      return bit_reversed(recs);
    case LodHeuristic::kStratified:
      // Space-sorted, then bit-reversed: every prefix visits the Morton
      // curve at even spacing, i.e. is spatially stratified.
      sort_morton(recs, seed);
      return bit_reversed(recs);
  }
  throw ConfigError("unknown LOD heuristic");
}

void lod_reorder(ParticleBuffer& buf, std::uint64_t seed,
                 LodHeuristic heuristic) {
  const std::size_t rs = buf.record_size();
  const std::span<const std::byte> all = buf.bytes();
  std::vector<std::byte> out(all.size());
  std::byte* dst = out.data();
  for (const std::byte* rec : lod_order({&all, 1}, rs, seed, heuristic)) {
    std::memcpy(dst, rec, rs);
    dst += rs;
  }
  buf.adopt_bytes(std::move(out));
}

}  // namespace spio
