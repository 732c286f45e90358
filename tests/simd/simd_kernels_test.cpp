/// \file simd_kernels_test.cpp
/// The SIMD kernel engine's contract, pinned:
///   1. `simd::filter_box` / `filter_box_ranges` are byte-identical to
///      the scalar `*_reference` oracles at every compiled ISA level —
///      including particles exactly on box faces, NaN and ±inf
///      coordinates, and NaN attribute values,
///   2. the `read_detail::*_dispatch` wrappers match the oracles whether
///      they take the SIMD path or the scalar fallback (so the whole
///      suite is meaningful under `SPIO_SIMD=off`, where every SIMD try
///      must return false),
///   3. `ReadEngine::fetch` builds the SoA position mirror on a leader
///      miss, serves the same mirror on warm hits, and skips it when
///      dispatch is scalar,
///   4. the mirror itself holds each position rounded to f32, with NaN
///      lane padding, and the kernels' f64 recheck of records near a
///      face keeps output exact (the near-face differential).
///
/// The ctest registration runs this binary twice: once under the host's
/// best ISA and once with `SPIO_SIMD=off` (label `simd`, see
/// tests/CMakeLists.txt), so both sides of every dispatch are exercised
/// by the same assertions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/read_engine.hpp"
#include "simd/kernels.hpp"
#include "simd/position_mirror.hpp"
#include "simd/simd_level.hpp"
#include "util/rng.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

constexpr double kQNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_bytes(std::span<const std::byte> a, std::span<const std::byte> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// The ISA levels dispatch can actually reach in this process — capped
/// by the CPU, the build, and `SPIO_SIMD`. Empty means every SIMD try
/// must report false (scalar-fallback mode).
std::vector<simd::Level> reachable_levels() {
  std::vector<simd::Level> levels;
  const auto top = static_cast<int>(simd::active_level());
  if (top >= static_cast<int>(simd::Level::kSSE2))
    levels.push_back(simd::Level::kSSE2);
  if (top >= static_cast<int>(simd::Level::kAVX2))
    levels.push_back(simd::Level::kAVX2);
  return levels;
}

Schema random_schema(Xoshiro256& rng) {
  std::vector<FieldDesc> fields{{"position", FieldType::kF64, 3}};
  const std::size_t extra = 1 + rng.uniform_index(3);
  for (std::size_t i = 0; i < extra; ++i)
    fields.push_back({std::string("f").append(std::to_string(i)),
                      rng.uniform_index(2) == 0 ? FieldType::kF64
                                                : FieldType::kF32,
                      static_cast<std::uint32_t>(1 + rng.uniform_index(3))});
  return Schema(fields);
}

Box3 random_box(Xoshiro256& rng) {
  Box3 box;
  for (int a = 0; a < 3; ++a) {
    const double lo = rng.uniform(-0.1, 1.1);
    const double hi = rng.uniform(-0.1, 1.1);
    box.lo[a] = std::min(lo, hi);
    box.hi[a] = std::max(lo, hi);
  }
  return box;
}

std::shared_ptr<const PositionMirror> mirror_of(const ParticleBuffer& buf) {
  return PositionMirror::build(buf.bytes(), buf.schema().record_size(),
                               buf.schema().offset(0));
}

/// Particles probing every boundary the box predicate can disagree on:
/// faces (>= lo in, >= hi out), corners, -0.0 vs 0.0, NaN in each
/// coordinate, ±inf. `box` must have lo > -1 and hi < 2 so the inside/
/// outside fillers land where intended.
ParticleBuffer boundary_particles(const Schema& schema, const Box3& box,
                                  Xoshiro256& rng) {
  ParticleBuffer buf =
      workload::uniform(schema, Box3::unit(), 64, rng.next(), 0);
  std::vector<Vec3d> probes;
  const Vec3d mid = (box.lo + box.hi) * 0.5;
  for (int a = 0; a < 3; ++a) {
    Vec3d on_lo = mid, on_hi = mid, below = mid, nan_a = mid, pinf = mid,
          ninf = mid;
    on_lo[a] = box.lo[a];                      // face: included
    on_hi[a] = box.hi[a];                      // face: excluded
    below[a] = std::nextafter(box.lo[a], -2.0);  // just outside
    nan_a[a] = kQNaN;                          // excluded
    pinf[a] = kInf;                            // excluded
    ninf[a] = -kInf;                           // excluded
    probes.insert(probes.end(), {on_lo, on_hi, below, nan_a, pinf, ninf});
  }
  probes.push_back(box.lo);                 // corner: included
  probes.push_back(box.hi);                 // corner: excluded
  probes.push_back({-0.0, mid.y, mid.z});   // -0.0 >= 0.0 when lo.x == 0
  probes.push_back({kQNaN, kQNaN, kQNaN});  // all-NaN
  for (std::size_t i = 0; i < probes.size() && i < buf.size(); ++i)
    buf.set_position(i, probes[i]);
  return buf;
}

// ---- 1. SIMD kernels vs reference oracles ------------------------------

TEST(SimdKernels, FilterBoxMatchesReferenceOnBoundariesNaNAndInf) {
  Xoshiro256 rng(601);
  // lo.x == 0 so the -0.0 probe sits exactly on a face.
  const Box3 box({0.0, 0.25, 0.25}, {0.75, 0.75, 0.75});
  for (int round = 0; round < 10; ++round) {
    const Schema schema = random_schema(rng);
    const ParticleBuffer buf = boundary_particles(schema, box, rng);
    const auto mirror = mirror_of(buf);

    ParticleBuffer ref(schema);
    const auto nref =
        read_detail::filter_box_reference(buf.bytes(), schema, box, ref);

    for (const simd::Level level : reachable_levels()) {
      simd::ScopedLevelCap cap(level);
      ParticleBuffer out(schema);
      std::uint64_t kept = 0;
      ASSERT_TRUE(simd::filter_box(*mirror, buf.bytes(), schema.record_size(),
                                   schema.offset(0), box, out, &kept))
          << simd::level_name(level);
      EXPECT_EQ(kept, nref) << simd::level_name(level);
      EXPECT_TRUE(same_bytes(ref.bytes(), out.bytes()))
          << simd::level_name(level) << " round " << round;
    }
    if (reachable_levels().empty()) {
      ParticleBuffer out(schema);
      EXPECT_FALSE(simd::filter_box(*mirror, buf.bytes(), schema.record_size(),
                                    schema.offset(0), box, out, nullptr));
      EXPECT_EQ(out.size(), 0u);
    }
  }
}

TEST(SimdKernels, FilterBoxMatchesReferenceOnRandomInputs) {
  Xoshiro256 rng(602);
  for (int round = 0; round < 15; ++round) {
    const Schema schema = random_schema(rng);
    auto buf = workload::uniform(schema, Box3::unit(),
                                 500 + rng.uniform_index(1500), rng.next(), 0);
    for (int k = 0; k < 5; ++k)
      buf.set_position(rng.uniform_index(buf.size()), {kQNaN, 0.5, 0.5});
    const Box3 box = random_box(rng);
    const auto mirror = mirror_of(buf);

    ParticleBuffer ref(schema);
    const auto nref =
        read_detail::filter_box_reference(buf.bytes(), schema, box, ref);
    for (const simd::Level level : reachable_levels()) {
      simd::ScopedLevelCap cap(level);
      ParticleBuffer out(schema);
      std::uint64_t kept = 0;
      ASSERT_TRUE(simd::filter_box(*mirror, buf.bytes(), schema.record_size(),
                                   schema.offset(0), box, out, &kept));
      EXPECT_EQ(kept, nref);
      EXPECT_TRUE(same_bytes(ref.bytes(), out.bytes()))
          << simd::level_name(level) << " round " << round;
    }
  }
}

TEST(SimdKernels, FilterBoxRangesMatchesReferenceIncludingNaNAndEdges) {
  Xoshiro256 rng(603);
  for (int round = 0; round < 15; ++round) {
    const Schema schema = random_schema(rng);
    auto buf = workload::uniform(schema, Box3::unit(), 1000, rng.next(), 0);

    std::vector<RangeFilter> filters;
    const std::size_t nf = 1 + rng.uniform_index(2);
    for (std::size_t k = 0; k < nf; ++k) {
      const std::size_t field = 1 + rng.uniform_index(schema.field_count() - 1);
      const FieldDesc& fd = schema.fields()[field];
      const std::uint32_t comp =
          static_cast<std::uint32_t>(rng.uniform_index(fd.components));
      const double a = rng.uniform(0, 1), b = rng.uniform(0, 1);
      filters.push_back({field, comp, std::min(a, b), std::max(a, b)});
    }
    // Edge values the predicate must agree on: exactly lo and hi (both
    // pass `!(v < lo || v > hi)`), NaN (passes), +inf (fails).
    const RangeFilter& rf = filters[0];
    const bool f64 = schema.fields()[rf.field].type == FieldType::kF64;
    const double edges[] = {rf.lo, rf.hi, kQNaN, kInf};
    for (int k = 0; k < 12; ++k) {
      const std::size_t i = rng.uniform_index(buf.size());
      const double v = edges[k % 4];
      if (f64)
        buf.set_f64(i, rf.field, rf.component, v);
      else
        buf.set_f32(i, rf.field, rf.component, static_cast<float>(v));
    }
    const Box3 box = random_box(rng);
    const auto mirror = mirror_of(buf);

    ParticleBuffer ref(schema);
    const auto nref = read_detail::filter_box_ranges_reference(
        buf.bytes(), schema, box, filters, ref);
    for (const simd::Level level : reachable_levels()) {
      simd::ScopedLevelCap cap(level);
      std::vector<simd::RangePred> preds;
      for (const RangeFilter& f : filters) {
        const FieldDesc& fd = schema.fields()[f.field];
        preds.push_back({schema.offset(f.field) +
                             f.component * field_type_size(fd.type),
                         fd.type == FieldType::kF64, f.lo, f.hi});
      }
      ParticleBuffer out(schema);
      std::uint64_t kept = 0;
      ASSERT_TRUE(simd::filter_box_ranges(*mirror, buf.bytes(),
                                          schema.record_size(),
                                          schema.offset(0), box, preds, out,
                                          &kept));
      EXPECT_EQ(kept, nref);
      EXPECT_TRUE(same_bytes(ref.bytes(), out.bytes()))
          << simd::level_name(level) << " round " << round;
    }
  }
}

/// Uintah-like records with one f64 and one two-component f32 attribute,
/// both uniform in [0, 1): the sweep's range filters cover both element
/// types and pass about 81% of the records between them.
Schema sweep_schema() {
  return Schema({{"position", FieldType::kF64, 3},
                 {"a", FieldType::kF64, 1},
                 {"b", FieldType::kF32, 2}});
}

std::vector<RangeFilter> sweep_filters() {
  return {{1, 0, 0.05, 0.95}, {2, 1, 0.1, 1.0}};
}

ParticleBuffer sweep_buffer(std::size_t n, Xoshiro256& rng) {
  auto buf = workload::uniform(sweep_schema(), Box3::unit(), n, rng.next(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    buf.set_f64(i, 1, 0, rng.uniform(0, 1));
    buf.set_f32(i, 2, 1, static_cast<float>(rng.uniform(0, 1)));
  }
  return buf;
}

std::vector<simd::RangePred> preds_of(const Schema& schema,
                                      std::span<const RangeFilter> filters) {
  std::vector<simd::RangePred> preds;
  for (const RangeFilter& f : filters) {
    const FieldDesc& fd = schema.fields()[f.field];
    preds.push_back({schema.offset(f.field) +
                         f.component * field_type_size(fd.type),
                     fd.type == FieldType::kF64, f.lo, f.hi});
  }
  return preds;
}

/// Both SIMD kernels at each of `levels` against their oracles on `buf`;
/// with no level reachable, both must decline and leave `out` empty.
void expect_kernels_match(const ParticleBuffer& buf, const Box3& box,
                          std::span<const RangeFilter> filters,
                          const std::vector<simd::Level>& levels,
                          const std::string& where) {
  const Schema& schema = buf.schema();
  const auto mirror = mirror_of(buf);
  const std::vector<simd::RangePred> preds = preds_of(schema, filters);
  ParticleBuffer ref_box(schema), ref_rq(schema);
  const auto nbox =
      read_detail::filter_box_reference(buf.bytes(), schema, box, ref_box);
  const auto nrq = read_detail::filter_box_ranges_reference(
      buf.bytes(), schema, box, filters, ref_rq);
  for (const simd::Level level : levels) {
    simd::ScopedLevelCap cap(level);
    ParticleBuffer out_box(schema), out_rq(schema);
    std::uint64_t kbox = 0, krq = 0;
    ASSERT_TRUE(simd::filter_box(*mirror, buf.bytes(), schema.record_size(),
                                 schema.offset(0), box, out_box, &kbox))
        << where;
    ASSERT_TRUE(simd::filter_box_ranges(*mirror, buf.bytes(),
                                        schema.record_size(), schema.offset(0),
                                        box, preds, out_rq, &krq))
        << where;
    EXPECT_EQ(kbox, nbox) << simd::level_name(level) << " " << where;
    EXPECT_EQ(krq, nrq) << simd::level_name(level) << " " << where;
    EXPECT_TRUE(same_bytes(ref_box.bytes(), out_box.bytes()))
        << "filter_box " << simd::level_name(level) << " " << where;
    EXPECT_TRUE(same_bytes(ref_rq.bytes(), out_rq.bytes()))
        << "filter_box_ranges " << simd::level_name(level) << " " << where;
  }
  if (levels.empty()) {
    ParticleBuffer out(schema);
    EXPECT_FALSE(simd::filter_box(*mirror, buf.bytes(), schema.record_size(),
                                  schema.offset(0), box, out, nullptr));
    EXPECT_FALSE(simd::filter_box_ranges(*mirror, buf.bytes(),
                                         schema.record_size(), schema.offset(0),
                                         box, preds, out, nullptr));
    EXPECT_EQ(out.size(), 0u);
  }
}

/// The selectivities a query meets — none, LOD-sparse, dense and all —
/// over every record count from empty through two full vectors plus a
/// ragged lane at the widest level (W = 8), and over a few thousand
/// records with every `n mod 8` tail.
TEST(SimdKernels, SweepMatchesReferenceAcrossSelectivityAndLength) {
  Xoshiro256 rng(610);
  const std::vector<RangeFilter> filters = sweep_filters();
  struct Selectivity {
    const char* name;
    Box3 box;
  };
  const Selectivity boxes[] = {
      {"0%", Box3({2, 2, 2}, {3, 3, 3})},
      {"2.7%", Box3({0, 0, 0}, {0.3, 0.3, 0.3})},
      {"12.5%", Box3({0.25, 0.25, 0.25}, {0.75, 0.75, 0.75})},
      {"50%", Box3({0, 0, 0}, {0.5, 1, 1})},
      {"95%", Box3({0, 0, 0}, {0.95, 1, 1})},
      {"100%", Box3({-1, -1, -1}, {2, 2, 2})},
  };
  std::vector<std::size_t> counts;
  for (std::size_t n = 0; n <= 2 * 8 + 1; ++n) counts.push_back(n);
  for (std::size_t n = 3000; n < 3008; ++n) counts.push_back(n);
  for (const std::size_t n : counts) {
    const ParticleBuffer buf = sweep_buffer(n, rng);
    for (const Selectivity& sel : boxes)
      expect_kernels_match(buf, sel.box, filters, reachable_levels(),
                           "n=" + std::to_string(n) + " box " + sel.name);
  }
}

/// Positions laid out so that vector v of a W-lane kernel sees the
/// in-box mask v mod 2^W: every row of the select table is taken twice,
/// between rows of every other popcount, and a ragged tail follows.
TEST(SimdKernels, EveryMaskRowSelectsExactlyItsLanes) {
  Xoshiro256 rng(611);
  const Box3 box({0, 0, 0}, {0.5, 0.5, 0.5});
  for (const simd::Level level : reachable_levels()) {
    const std::size_t w = level == simd::Level::kAVX2 ? 8 : 4;
    const std::size_t rows = std::size_t{1} << w;
    const std::size_t n = 2 * rows * w + w - 1;
    ParticleBuffer buf = sweep_buffer(n, rng);
    for (std::size_t r = 0; r < n; ++r) {
      const bool in = ((r / w) % rows >> (r % w)) & 1;
      const double c = rng.uniform(0, 0.5);
      buf.set_position(r, in ? Vec3d{c, 0.25, 0.25} : Vec3d{c, 0.25, 0.75});
    }
    expect_kernels_match(buf, box, sweep_filters(), {level},
                         std::string("mask rows at ") +
                             simd::level_name(level));
  }
}

// ---- near-face differential: the f32 prefilter and its f64 recheck ----

/// `v` stepped `k` f64 ulps (downward for k < 0).
double f64_step(double v, int k) {
  for (; k > 0; --k) v = std::nextafter(v, kInf);
  for (; k < 0; ++k) v = std::nextafter(v, -kInf);
  return v;
}

/// The float nearest `v`, stepped `k` f32 ulps, as a double.
double f32_step(double v, int k) {
  constexpr float kInfF = std::numeric_limits<float>::infinity();
  float f = static_cast<float>(v);
  for (; k > 0; --k) f = std::nextafter(f, kInfF);
  for (; k < 0; ++k) f = std::nextafter(f, -kInfF);
  return f;
}

/// Coordinates within ±4 f64 ulps and ±4 f32 ulps of `face`, and the
/// f64 values on and beside each midpoint between adjacent floats
/// there (the points where rounding to f32 changes its answer).
void add_face_probes(double face, std::vector<double>& out) {
  for (int k = -4; k <= 4; ++k) {
    out.push_back(f64_step(face, k));
    const double f = f32_step(face, k);
    const double g = f32_step(f, 1);
    out.push_back(f);
    if (std::isfinite(f) && std::isfinite(g)) {
      const double mid = f + (g - f) / 2;  // exact: 29 spare f64 bits
      out.insert(out.end(), {f64_step(mid, -1), mid, f64_step(mid, 1)});
    }
  }
}

constexpr double kFltMax = std::numeric_limits<float>::max();
constexpr double kFltTiny = std::numeric_limits<float>::denorm_min();
/// Halfway between `FLT_MAX` and 2^128: it and everything above it
/// rounds to +inf.
constexpr double kFltOverflow = 0x1.ffffffp127;
static_assert(kFltOverflow - kFltMax == 0x1p103);

/// Values no face needs to be near to break a prefilter: ±0,
/// subnormals of both widths (and half the smallest float, which ties
/// to zero), the f32 overflow boundary, beyond `FLT_MAX`, ±inf, NaN.
std::vector<double> special_values() {
  std::vector<double> v = {
      0.0,
      std::numeric_limits<double>::denorm_min(),
      kFltTiny / 2,
      kFltTiny,
      std::numeric_limits<float>::min(),
      kFltMax,
      f64_step(kFltMax, 1),
      f64_step(kFltOverflow, -1),
      kFltOverflow,
      1e39,
      std::numeric_limits<double>::max(),
      kInf,
  };
  const std::size_t positive = v.size();
  for (std::size_t i = 0; i < positive; ++i) v.push_back(-v[i]);
  v.push_back(kQNaN);
  return v;
}

/// Byte identity of both kernels at every reachable level against the
/// oracles, on records sitting at and beside the faces of boxes whose
/// bounds are f64-only values, f32-exact values, zero and subnormals,
/// values beyond `FLT_MAX`, infinite or NaN. Every record probes one
/// axis with the other two inside, then random mixes probe all three
/// at once, so several lanes of one vector need the recheck together.
TEST(SimdKernels, NearFaceRecordsMatchReferenceAtEveryLevel) {
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  struct Case {
    std::string name;
    Box3 box;
    Vec3d inside;  // a point strictly inside (where the box has one)
  };
  std::vector<Case> cases = {
      {"f64-only faces", Box3({0.1, 0.2, 0.3}, {0.7, 0.8, 0.9}),
       {0.4, 0.5, 0.6}},
      {"f32-exact faces", Box3({0.25, 0.125, 0.5}, {0.75, 0.625, 1.0}),
       {0.5, 0.5, 0.75}},
      {"zero and subnormal faces",
       Box3({-0.0, 0.0, -kTiny}, {kFltTiny, kTiny,
                                  std::numeric_limits<float>::min()}),
       {0.0, 0.0, 0.0}},
      {"faces beyond FLT_MAX",
       Box3({-1e39, kFltMax, -std::numeric_limits<double>::max()},
            {kFltOverflow, 1e39, -kFltMax}),
       {0.0, 3.5e38, -1e39}},
      {"half-infinite", Box3({-kInf, -kInf, 0.5}, {kInf, 0.5, kInf}),
       {0.0, 0.0, 1.0}},
      {"all-infinite", Box3({-kInf, -kInf, -kInf}, {kInf, kInf, kInf}),
       {0.0, 0.0, 0.0}},
      {"NaN bound", Box3({kQNaN, 0, 0}, {1, 1, 1}), {0.5, 0.5, 0.5}},
  };
  Xoshiro256 rng(614);
  for (int r = 0; r < 8; ++r) {
    Box3 box = random_box(rng);
    cases.push_back({"random " + std::to_string(r), box, box.center()});
  }

  // The overflow probes sit either side of the rounding boundary.
  EXPECT_EQ(static_cast<float>(f64_step(kFltOverflow, -1)),
            std::numeric_limits<float>::max());
  EXPECT_TRUE(std::isinf(static_cast<float>(kFltOverflow)));

  const std::vector<double> specials = special_values();
  for (const Case& c : cases) {
    std::vector<double> probes[3];
    for (int a = 0; a < 3; ++a) {
      add_face_probes(c.box.lo[a], probes[a]);
      add_face_probes(c.box.hi[a], probes[a]);
      probes[a].insert(probes[a].end(), specials.begin(), specials.end());
    }
    std::vector<Vec3d> positions;
    for (int a = 0; a < 3; ++a)
      for (const double v : probes[a]) {
        Vec3d p = c.inside;
        p[a] = v;
        positions.push_back(p);
      }
    for (int k = 0; k < 512; ++k)
      positions.push_back(
          {probes[0][rng.uniform_index(probes[0].size())],
           probes[1][rng.uniform_index(probes[1].size())],
           probes[2][rng.uniform_index(probes[2].size())]});
    ParticleBuffer buf = sweep_buffer(positions.size(), rng);
    for (std::size_t i = 0; i < positions.size(); ++i)
      buf.set_position(i, positions[i]);
    expect_kernels_match(buf, c.box, sweep_filters(), reachable_levels(),
                         c.name);
  }
}

TEST(ParticleBufferGather, AppendGatherCopiesIndexedRecordsInOrder) {
  Xoshiro256 rng(612);
  const Schema schema = random_schema(rng);
  const ParticleBuffer src =
      workload::uniform(schema, Box3::unit(), 16, rng.next(), 0);
  const auto expect_gather = [&](ParticleBuffer out,
                                 const std::vector<std::uint32_t>& idx) {
    ParticleBuffer want(schema);
    want.append_bytes(out.bytes());
    for (const std::uint32_t i : idx) want.append_from(src, i);
    out.append_gather(src.bytes().data(), idx.data(), idx.size());
    EXPECT_TRUE(same_bytes(want.bytes(), out.bytes()))
        << idx.size() << " indices onto " << want.size() - idx.size()
        << " records";
  };
  ParticleBuffer empty(schema);
  expect_gather(empty, {});
  expect_gather(empty, {5});
  // Adjacent indices merge into runs; the runs start and end anywhere,
  // including the first and last record.
  expect_gather(empty, {0, 1, 2, 4, 9, 10, 15});
  ParticleBuffer started(schema);
  started.append_from(src, 3);
  started.append_from(src, 3);
  expect_gather(started, {});
  expect_gather(started, {7, 8, 12, 13, 14});
}

// ---- 2. dispatch wrappers ----------------------------------------------

TEST(SimdDispatch, DispatchMatchesReferenceWithAndWithoutMirror) {
  Xoshiro256 rng(605);
  const Schema schema = random_schema(rng);
  auto buf = workload::uniform(schema, Box3::unit(), 3000, rng.next(), 0);
  for (int k = 0; k < 5; ++k)
    buf.set_position(rng.uniform_index(buf.size()), {kQNaN, 0.5, 0.5});
  const Box3 box({0.1, 0.1, 0.1}, {0.6, 0.9, 0.9});
  const auto mirror = mirror_of(buf);

  ParticleBuffer ref(schema);
  const auto nref =
      read_detail::filter_box_reference(buf.bytes(), schema, box, ref);

  for (const PositionMirror* m : {mirror.get(),
                                  static_cast<const PositionMirror*>(nullptr)}) {
    ParticleBuffer out(schema);
    const auto n =
        read_detail::filter_box_dispatch(buf.bytes(), schema, box, m, out);
    EXPECT_EQ(n, nref);
    EXPECT_TRUE(same_bytes(ref.bytes(), out.bytes()))
        << (m ? "mirror" : "fallback");
  }
}

/// A mirror that does not describe the bytes is declined, never read:
/// another record count, or another record layout. The near-face
/// recheck reads positions from the AoS bytes at the mirror's record
/// size and position offset, so a mirror built at another offset (or
/// over records of another size with the same count) must not pass.
TEST(SimdDispatch, StaleMirrorIsRejectedNotTrusted) {
  Xoshiro256 rng(606);
  const Schema schema = random_schema(rng);
  const std::size_t rec = schema.record_size();
  const auto big = workload::uniform(schema, Box3::unit(), 512, rng.next(), 0);
  const auto small = workload::uniform(schema, Box3::unit(), 256, rng.next(), 0);
  const auto other = workload::uniform(Schema::position_only(), Box3::unit(),
                                       256, rng.next(), 0);
  const std::vector<simd::RangePred> no_preds;
  struct Stale {
    const char* what;
    std::shared_ptr<const PositionMirror> mirror;
  };
  for (const Stale& st : {
           Stale{"512 records, bytes have 256", mirror_of(big)},
           // `random_schema` appends at least one 4-byte field, so the
           // position also fits at offset 4. These two mirrors hold 256
           // records: only their layout is wrong.
           Stale{"built at position offset 4",
                 PositionMirror::build(small.bytes(), rec, 4)},
           Stale{"built over 24-byte records", mirror_of(other)},
       }) {
    ParticleBuffer out(schema);
    EXPECT_FALSE(simd::filter_box(*st.mirror, small.bytes(), rec,
                                  schema.offset(0), Box3::unit(), out,
                                  nullptr))
        << st.what;
    EXPECT_FALSE(simd::filter_box_ranges(*st.mirror, small.bytes(), rec,
                                         schema.offset(0), Box3::unit(),
                                         no_preds, out, nullptr))
        << st.what;
    EXPECT_EQ(out.size(), 0u) << st.what;
  }
}

// ---- 3. level selection ------------------------------------------------

TEST(SimdLevel, ScopedCapNeverRaisesAboveActive) {
  const simd::Level active = simd::active_level();
  {
    simd::ScopedLevelCap cap(simd::Level::kScalar);
    EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
    {
      // A nested wider cap cannot exceed the environment's level.
      simd::ScopedLevelCap inner(simd::Level::kAVX2);
      EXPECT_LE(static_cast<int>(simd::active_level()),
                static_cast<int>(active));
    }
    EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  }
  EXPECT_EQ(simd::active_level(), active);
  EXPECT_LE(static_cast<int>(active),
            static_cast<int>(simd::detected_level()));
}

TEST(SimdLevel, ScalarCapForcesKernelFallback) {
  Xoshiro256 rng(607);
  const Schema schema = random_schema(rng);
  const auto buf = workload::uniform(schema, Box3::unit(), 128, rng.next(), 0);
  const auto mirror = mirror_of(buf);
  simd::ScopedLevelCap cap(simd::Level::kScalar);
  ParticleBuffer out(schema);
  EXPECT_FALSE(simd::filter_box(*mirror, buf.bytes(), schema.record_size(),
                                schema.offset(0), Box3::unit(), out, nullptr));
}

TEST(SimdLevel, LevelNamesAreStable) {
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kSSE2), "sse2");
  EXPECT_STREQ(simd::level_name(simd::Level::kAVX2), "avx2");
}

// ---- 4. the mirror itself ----------------------------------------------

TEST(PositionMirrorTest, MirrorsPositionsAndPadsWithNaN) {
  Xoshiro256 rng(608);
  const Schema schema = random_schema(rng);
  for (const std::size_t n : {0ul, 1ul, 7ul, 8ul, 13ul, 256ul}) {
    const auto buf = workload::uniform(schema, Box3::unit(), n, rng.next(), 0);
    const auto m = PositionMirror::build(buf.bytes(), schema.record_size(),
                                         schema.offset(0));
    ASSERT_EQ(m->size(), n);
    EXPECT_EQ(m->record_size(), schema.record_size());
    EXPECT_EQ(m->position_offset(), schema.offset(0));
    EXPECT_EQ(m->byte_size(), PositionMirror::bytes_for_count(n));
    // Each lane is its f64 coordinate rounded to the nearest float.
    for (std::size_t i = 0; i < n; ++i) {
      const Vec3d p = buf.position(i);
      EXPECT_EQ(m->x()[i], static_cast<float>(p.x));
      EXPECT_EQ(m->y()[i], static_cast<float>(p.y));
      EXPECT_EQ(m->z()[i], static_cast<float>(p.z));
    }
    // Padding lanes are NaN so they can never satisfy a box compare.
    const std::size_t padded = m->byte_size() / (3 * sizeof(float));
    EXPECT_GE(padded, std::max<std::size_t>(n, 1));
    for (std::size_t i = n; i < padded; ++i) {
      EXPECT_TRUE(std::isnan(m->x()[i]));
      EXPECT_TRUE(std::isnan(m->y()[i]));
      EXPECT_TRUE(std::isnan(m->z()[i]));
    }
  }
}

// ---- 5. engine integration ---------------------------------------------

TEST(SimdEngine, FetchBuildsCachesAndServesTheMirror) {
  TempDir dir("spio-simd-fetch");
  const std::size_t rec = 32;  // f64x3 position at offset 0 + 8 pad bytes
  const std::size_t n = 100;
  const auto path = dir.path() / "records.bin";
  {
    std::vector<double> payload(n * 4);
    Xoshiro256 rng(609);
    for (auto& v : payload) v = rng.uniform(0, 1);
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size() * sizeof(double)));
  }

  ReadEngine& eng = ReadEngine::instance();
  const std::uint64_t prev_budget = eng.cache_budget();
  eng.set_cache_budget(8u << 20);
  eng.clear_cache();

  const FileSig sig = eng.probe(path);
  const ReadEngine::MirrorSpec spec{rec, 0};
  auto cold = eng.fetch(path, n * rec, sig, &spec);
  EXPECT_EQ(cold.outcome, CacheOutcome::kMiss);
  auto warm = eng.fetch(path, n * rec, sig, &spec);
  EXPECT_EQ(warm.outcome, CacheOutcome::kHit);

  if (simd::active_level() != simd::Level::kScalar) {
    ASSERT_NE(cold.mirror, nullptr);
    EXPECT_EQ(cold.mirror->size(), n);
    // The warm hit serves the very same mirror, no rebuild.
    EXPECT_EQ(warm.mirror.get(), cold.mirror.get());
    // And it mirrors the fetched bytes, each lane the float nearest
    // its f64 coordinate.
    for (std::size_t i = 0; i < n; ++i) {
      double p[3];
      std::memcpy(p, cold.bytes().data() + i * rec, sizeof p);
      EXPECT_EQ(cold.mirror->x()[i], static_cast<float>(p[0]));
      EXPECT_EQ(cold.mirror->y()[i], static_cast<float>(p[1]));
      EXPECT_EQ(cold.mirror->z()[i], static_cast<float>(p[2]));
    }
  } else {
    // Scalar dispatch (SPIO_SIMD=off or no SIMD build): no mirror is
    // built — it would be dead weight in the cache.
    EXPECT_EQ(cold.mirror, nullptr);
    EXPECT_EQ(warm.mirror, nullptr);
  }

  // Without a spec the fetch still works and simply carries no mirror
  // for entries inserted without one.
  eng.clear_cache();
  auto plain = eng.fetch(path, n * rec, sig);
  EXPECT_EQ(plain.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(plain.mirror, nullptr);

  eng.set_cache_budget(prev_budget);
}

}  // namespace
}  // namespace spio
