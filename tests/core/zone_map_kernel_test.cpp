#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/lod.hpp"
#include "core/query_plan/zone_map.hpp"
#include "simd/simd_level.hpp"
#include "util/rng.hpp"
#include "workload/schema.hpp"

namespace spio {
namespace {

/// Differential suite of the blocked zone-map kernel (`add_zone_maps`)
/// against the record-major oracle (`add_zone_maps_reference`): every
/// zone entry must match bit for bit, so -0.0 against +0.0 counts. Under
/// `SPIO_SIMD=off` both sides are the oracle.

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct Component {
  std::size_t offset;
  bool f64;
};

std::vector<Component> components_of(const Schema& s) {
  std::vector<Component> out;
  for (std::size_t f = 0; f < s.field_count(); ++f) {
    const FieldDesc& fd = s.fields()[f];
    for (std::uint32_t c = 0; c < fd.components; ++c)
      out.push_back({s.offset(f) + c * field_type_size(fd.type),
                     fd.type == FieldType::kF64});
  }
  return out;
}

void put(std::byte* rec, const Component& c, double v) {
  if (c.f64) {
    std::memcpy(rec + c.offset, &v, sizeof v);
  } else {
    const float f = static_cast<float>(v);
    std::memcpy(rec + c.offset, &f, sizeof f);
  }
}

/// An f32/f64 interleaving: f64 runs of 3 (too short for a vector), of
/// 5 at a 4-byte-aligned offset, and of 4 + 2 across two fields, with f32
/// components between them.
Schema mixed_schema() {
  return Schema({
      {"position", FieldType::kF64, 3},
      {"a", FieldType::kF32, 1},
      {"b", FieldType::kF64, 5},
      {"c", FieldType::kF32, 2},
      {"d", FieldType::kF64, 4},
      {"e", FieldType::kF64, 2},
      {"f", FieldType::kF32, 3},
      {"g", FieldType::kF64, 3},
  });
}

/// Records whose components take, zone by zone, one of four regimes:
/// only zeros of both signs and positives (the minimum is a signed-zero
/// tie), zeros and negatives (the maximum is), values with +-inf, and
/// plain values. Every component sees every regime, and each component
/// also holds one NaN in one zone.
std::vector<std::byte> make_records(const Schema& schema,
                                    const std::vector<std::uint64_t>& bounds,
                                    std::uint64_t seed) {
  const std::vector<Component> comps = components_of(schema);
  const std::size_t rs = schema.record_size();
  const std::uint64_t n = bounds.back();
  const std::size_t zones = bounds.size() - 1;
  std::vector<std::byte> out(n * rs);
  Xoshiro256 rng(seed);
  const auto pick = [&](std::initializer_list<double> from) {
    return from.begin()[rng.next() % from.size()];
  };
  for (std::size_t z = 0; z < zones; ++z) {
    for (std::uint64_t i = bounds[z]; i < bounds[z + 1]; ++i) {
      for (std::size_t c = 0; c < comps.size(); ++c) {
        double v = 0;
        switch ((z + c) % 4) {
          case 0: v = pick({0.0, -0.0, 1.0, 3.5}); break;
          case 1: v = pick({0.0, -0.0, -1.0, -3.5}); break;
          case 2: v = pick({kInf, -kInf, 0.0, -0.0, 2.0}); break;
          default: v = rng.uniform(-1e3, 1e3); break;
        }
        put(out.data() + i * rs, comps[c], v);
      }
    }
  }
  for (std::size_t c = 0; c < comps.size(); ++c) {
    const std::size_t z = zones > 1 ? 1 + c % (zones - 1) : 0;
    const std::uint64_t at =
        bounds[z] + rng.next() % (bounds[z + 1] - bounds[z]);
    put(out.data() + at * rs, comps[c], kNaN);
  }
  return out;
}

/// The kernel fed in chunks ending at `cuts` (ascending, inside the file).
std::vector<FieldRange> kernel_over(const std::vector<std::byte>& records,
                                    const Schema& schema,
                                    const std::vector<std::uint64_t>& bounds,
                                    const std::vector<std::uint64_t>& cuts) {
  const std::size_t rs = schema.record_size();
  std::vector<FieldRange> zones;
  std::uint64_t first = 0;
  for (std::size_t k = 0; k <= cuts.size(); ++k) {
    const std::uint64_t end = k < cuts.size() ? cuts[k] : bounds.back();
    add_zone_maps(zones,
                  std::span<const std::byte>(records).subspan(
                      first * rs, (end - first) * rs),
                  schema, bounds, first);
    first = end;
  }
  return zones;
}

bool same_bits(const std::vector<FieldRange>& a,
               const std::vector<FieldRange>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(FieldRange)) == 0;
}

/// The first entry that differs; `<<` prints -0.0 as "-0".
std::string first_difference(const std::vector<FieldRange>& got,
                             const std::vector<FieldRange>& want,
                             std::size_t comps) {
  std::ostringstream os;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(FieldRange)) == 0) continue;
    os << "zone " << i / comps << " component " << i % comps << ": got ["
       << got[i].min << ", " << got[i].max << "] want [" << want[i].min
       << ", " << want[i].max << "]";
    return os.str();
  }
  os << "sizes " << got.size() << " vs " << want.size();
  return os.str();
}

void check_schema(const Schema& schema, const char* label) {
  const std::size_t comps = components_of(schema).size();
  // Zones of 4, 8, 16, ... records: chunks meet many zone boundaries.
  // Then zones up to 4096 records: long segments, and a whole-file
  // chunk.
  const std::pair<LodParams, std::uint64_t> files[] = {
      {{4, 2.0}, 1000}, {{32, 2.0}, 10000}};
  for (const auto& [lod, n] : files) {
    const std::vector<std::uint64_t> bounds = zone_bounds(lod, n);
    ASSERT_GE(bounds.size(), 6u);

    std::vector<std::vector<std::uint64_t>> cut_sets = {{}};
    // A chunk starting just before, at and just after each zone boundary.
    for (std::size_t z = 1; z + 1 < bounds.size(); ++z)
      for (const std::uint64_t at : {bounds[z] - 1, bounds[z], bounds[z] + 1})
        cut_sets.push_back({at});
    // Chunks smaller than most zones, and chunks spanning several.
    for (const std::uint64_t step : {1u, 3u, 5u, 7u, 64u, 3001u}) {
      std::vector<std::uint64_t> cuts;
      for (std::uint64_t c = step; c < n; c += step) cuts.push_back(c);
      cut_sets.push_back(cuts);
    }

    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const std::vector<std::byte> records =
          make_records(schema, bounds, seed);
      std::vector<FieldRange> want;
      add_zone_maps_reference(want, records, schema, bounds, 0);
      for (const auto& cuts : cut_sets) {
        const std::vector<FieldRange> got =
            kernel_over(records, schema, bounds, cuts);
        ASSERT_TRUE(same_bits(got, want))
            << label << " n " << n << " seed " << seed << ", " << cuts.size()
            << " cuts starting at " << (cuts.empty() ? 0 : cuts[0]) << ": "
            << first_difference(got, want, comps);
      }
    }
  }
}

TEST(ZoneMapKernel, UintahMatchesReferenceAtEveryChunkAlignment) {
  check_schema(Schema::uintah(), "uintah");
}

TEST(ZoneMapKernel, PositionOnlyMatchesReferenceAtEveryChunkAlignment) {
  check_schema(Schema::position_only(), "position_only");
}

TEST(ZoneMapKernel, MixedF32F64MatchesReferenceAtEveryChunkAlignment) {
  check_schema(mixed_schema(), "mixed");
}

/// The data really holds the cases the suite is about: signed-zero ties
/// that the oracle resolves to the first occurrence, and poisoned zones.
TEST(ZoneMapKernel, DataHoldsSignedZeroTiesAndPoisonedZones) {
  const Schema schema = Schema::uintah();
  const std::vector<std::uint64_t> bounds = zone_bounds({4, 2.0}, 1000);
  const std::vector<std::byte> records = make_records(schema, bounds, 1);
  std::vector<FieldRange> zones;
  add_zone_maps_reference(zones, records, schema, bounds, 0);
  int neg_zero_min = 0, pos_zero_min = 0, poisoned = 0;
  for (const FieldRange& r : zones) {
    if (r.min == 0.0) (std::signbit(r.min) ? neg_zero_min : pos_zero_min)++;
    if (r.min == -kInf && r.max == kInf) ++poisoned;
  }
  EXPECT_GT(neg_zero_min, 0);
  EXPECT_GT(pos_zero_min, 0);
  EXPECT_GE(poisoned, 16);  // one per component
  if (simd::active_level() < simd::Level::kAVX2)
    std::cout << "[ note ] SIMD below AVX2: add_zone_maps is the oracle\n";
}

}  // namespace
}  // namespace spio
