#pragma once

/// \file kernels_x86_body.hpp
/// Internal: the shared kernel bodies, templated over a per-ISA Traits
/// type. Each ISA TU (kernels_sse2.cpp, kernels_avx2.cpp) defines a
/// Traits with `kLanes`, a vector register type `Reg`, and the small
/// set of ops the bodies need, then instantiates these templates. The
/// header itself contains no intrinsics, so it compiles at any ISA.
///
/// A Traits must provide:
///   static constexpr std::size_t kLanes;       // f32 lanes per Reg
///   using Reg = ...;
///   static Reg load(const float*);             // unaligned
///   static Reg set1(float);
///   static Reg cmp_ge(Reg, Reg);               // ordered: NaN -> false
///   static Reg cmp_gt(Reg, Reg);               // ordered: NaN -> false
///   static Reg cmp_le(Reg, Reg);               // ordered: NaN -> false
///   static Reg cmp_lt(Reg, Reg);               // ordered: NaN -> false
///   static Reg and_(Reg, Reg);
///   static unsigned movemask(Reg);             // sign bit per lane
///
/// The mirror holds each coordinate rounded to f32, so one compare per
/// face cannot decide every record. Each vector therefore computes two
/// masks against the box bounds rounded to f32 the same way, r(·):
///   maybe: x ≥ r(lo) && x ≤ r(hi)
///   sure:  x > r(lo) && x < r(hi)
/// Round-to-nearest is monotone (a ≤ b ⇒ r(a) ≤ r(b), overflow to ±inf
/// included), so lo ≤ p ⇒ r(lo) ≤ r(p) and r(p) > r(lo) ⇒ p > lo, and
/// likewise at hi; NaN fails every ordered compare. Hence
/// maybe ⊇ exact ⊇ sure: a record outside `maybe` is outside the box,
/// one in `sure` is inside. The lanes in maybe \ sure are the records
/// whose rounded coordinate equals a rounded face; a rarely taken branch
/// decides each with the exact f64 `Box3::contains` on its AoS record —
/// the scalar kernels' own predicate.
///
/// Both bodies then compact the box mask into a list of `u32` record
/// indices with one branchless select pass: each movemask indexes a
/// 2^W-row table of its set lanes, the pass stores all W candidates and
/// advances by the row's count. LOD order is a random shuffle, so kept
/// records rarely sit next to each other; a per-lane branch or a run
/// per record would cost more than the scan. The indices are ascending,
/// and `ParticleBuffer::append_gather` copies them from the very same
/// AoS bytes in that order, so the output is byte-identical to the
/// fused scalar kernels.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

#include "simd/kernels.hpp"
#include "simd/position_mirror.hpp"
#include "util/box.hpp"
#include "workload/particle_buffer.hpp"

namespace spio::simd::detail {

/// One row of the select table: the set lanes of a W-bit movemask in
/// ascending order (unused slots 0), and how many there are.
template <std::size_t W>
struct SelectRow {
  std::array<std::uint32_t, W> lane{};
  std::uint32_t count = 0;
};

template <std::size_t W>
constexpr std::array<SelectRow<W>, (std::size_t{1} << W)> make_select_table() {
  std::array<SelectRow<W>, (std::size_t{1} << W)> table{};
  for (std::size_t m = 0; m < table.size(); ++m)
    for (std::uint32_t b = 0; b < W; ++b)
      if (m & (std::size_t{1} << b)) table[m].lane[table[m].count++] = b;
  return table;
}

template <std::size_t W>
inline constexpr auto kSelectTable = make_select_table<W>();

/// Scalar range check against the AoS record — exactly the fused
/// kernel's hoisted-filter loop (NaN passes: `!(v < lo || v > hi)`).
inline bool record_passes_ranges(const std::byte* r, const RangePred* preds,
                                 std::size_t npreds) {
  for (std::size_t k = 0; k < npreds; ++k) {
    const RangePred& h = preds[k];
    double v;
    if (h.is_f64) {
      std::memcpy(&v, r + h.offset, sizeof(double));
    } else {
      float f;
      std::memcpy(&f, r + h.offset, sizeof(float));
      v = static_cast<double>(f);
    }
    if (v < h.lo || v > h.hi) return false;
  }
  return true;
}

/// Box-mask state shared by the two filter kernels: six broadcast
/// planes (each face rounded to f32), the mirror's lanes, and the AoS
/// layout the near-face recheck reads.
template <class T>
struct BoxMask {
  using Reg = typename T::Reg;

  BoxMask(const PositionMirror& mirror, const std::byte* base,
          const Box3& box)
      : xs(mirror.x()), ys(mirror.y()), zs(mirror.z()), base(base),
        record_size(mirror.record_size()),
        position_offset(mirror.position_offset()), box(box) {
    for (int a = 0; a < 3; ++a) {
      lo[a] = T::set1(static_cast<float>(box.lo[a]));
      hi[a] = T::set1(static_cast<float>(box.hi[a]));
    }
  }

  /// The in-box lanes of the vector starting at record `i`.
  unsigned bits(std::size_t i) const {
    const Reg x = T::load(xs + i);
    const Reg y = T::load(ys + i);
    const Reg z = T::load(zs + i);
    const Reg maybe = T::and_(
        T::and_(T::and_(T::cmp_ge(x, lo[0]), T::cmp_le(x, hi[0])),
                T::and_(T::cmp_ge(y, lo[1]), T::cmp_le(y, hi[1]))),
        T::and_(T::cmp_ge(z, lo[2]), T::cmp_le(z, hi[2])));
    const Reg sure = T::and_(
        T::and_(T::and_(T::cmp_gt(x, lo[0]), T::cmp_lt(x, hi[0])),
                T::and_(T::cmp_gt(y, lo[1]), T::cmp_lt(y, hi[1]))),
        T::and_(T::cmp_gt(z, lo[2]), T::cmp_lt(z, hi[2])));
    const unsigned keep = T::movemask(sure);
    const unsigned edge = T::movemask(maybe) & ~keep;
    if (edge == 0) [[likely]]
      return keep;
    return keep | recheck(edge, i);
  }

  /// The exact f64 test for the near-face lanes `edge` of vector `i`.
  /// NaN padding fails `maybe`, so every lane here is a real record.
  unsigned recheck(unsigned edge, std::size_t i) const {
    unsigned keep = 0;
    for (; edge != 0; edge &= edge - 1) {
      const int b = std::countr_zero(edge);
      double p[3];
      std::memcpy(p,
                  base + (i + static_cast<std::size_t>(b)) * record_size +
                      position_offset,
                  sizeof p);
      keep |= static_cast<unsigned>(box.contains({p[0], p[1], p[2]})) << b;
    }
    return keep;
  }

  const float* xs;
  const float* ys;
  const float* zs;
  const std::byte* base;
  std::size_t record_size;
  std::size_t position_offset;
  Box3 box;
  Reg lo[3], hi[3];
};

/// Ascending indices of the records a kernel keeps: `idx[0, count)`.
struct Selection {
  std::unique_ptr<std::uint32_t[]> idx;
  std::size_t count = 0;
};

/// The select pass: the indices of the mirrored records inside `box`.
/// Every vector stores all W lanes and advances by the mask's popcount,
/// so the next store overwrites the unused slots; `count` never passes
/// the vector's start, so each store stays inside the list, which is as
/// long as the vector loop. The NaN padding of the mirror's tail fails
/// every ordered compare, so the loop covers the ragged tail and padding
/// lanes are never counted.
template <class T>
Selection select_in_box(const PositionMirror& mirror, const std::byte* base,
                        const Box3& box) {
  constexpr std::size_t W = T::kLanes;
  const BoxMask<T> mask(mirror, base, box);
  const std::size_t padded = (mirror.size() + W - 1) / W * W;
  Selection sel{std::make_unique_for_overwrite<std::uint32_t[]>(padded)};
  std::uint32_t* idx = sel.idx.get();
  for (std::size_t i = 0; i < padded; i += W) {
    const SelectRow<W>& row = kSelectTable<W>[mask.bits(i)];
    const auto first = static_cast<std::uint32_t>(i);
    for (std::size_t j = 0; j < W; ++j)
      idx[sel.count + j] = first + row.lane[j];
    sel.count += row.count;
  }
  return sel;
}

template <class T>
std::uint64_t filter_box_body(const PositionMirror& mirror,
                              const std::byte* base, const Box3& box,
                              ParticleBuffer& out) {
  const Selection sel = select_in_box<T>(mirror, base, box);
  out.append_gather(base, sel.idx.get(), sel.count);
  return sel.count;
}

template <class T>
std::uint64_t filter_box_ranges_body(const PositionMirror& mirror,
                                     const std::byte* base, const Box3& box,
                                     const RangePred* preds,
                                     std::size_t npreds, ParticleBuffer& out) {
  const Selection sel = select_in_box<T>(mirror, base, box);
  // Only the records the box keeps pay the scalar range loads from the
  // AoS record; the survivors are compacted in place, still ascending.
  std::uint32_t* idx = sel.idx.get();
  const std::size_t record_size = mirror.record_size();
  std::size_t kept = 0;
  for (std::size_t t = 0; t < sel.count; ++t) {
    const std::uint32_t r = idx[t];
    idx[kept] = r;
    kept += record_passes_ranges(base + std::size_t{r} * record_size, preds,
                                 npreds);
  }
  out.append_gather(base, idx, kept);
  return kept;
}

}  // namespace spio::simd::detail
