#pragma once

/// \file kernels_x86_body.hpp
/// Internal: the shared kernel bodies, templated over a per-ISA Traits
/// type. Each ISA TU (kernels_sse2.cpp, kernels_avx2.cpp) defines a
/// Traits with `kLanes`, a vector register type `Reg`, and the small
/// set of ops the bodies need, then instantiates these templates. The
/// header itself contains no intrinsics, so it compiles at any ISA.
///
/// A Traits must provide:
///   static constexpr std::size_t kLanes;       // f64 lanes per Reg
///   using Reg = ...;
///   static Reg load(const double*);            // unaligned
///   static Reg set1(double);
///   static Reg cmp_ge(Reg, Reg);               // ordered: NaN -> false
///   static Reg cmp_lt(Reg, Reg);               // ordered: NaN -> false
///   static Reg and_(Reg, Reg);
///   static unsigned movemask(Reg);             // sign bit per lane
///
/// Byte-identity with the fused scalar kernels rests on every compare
/// being ordered (NaN fails, matching scalar `>=`/`<`). Matching records
/// are then copied from the very same AoS bytes with the same
/// run-closure `append_records` calls.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "simd/kernels.hpp"
#include "simd/position_mirror.hpp"
#include "util/box.hpp"
#include "workload/particle_buffer.hpp"

namespace spio::simd::detail {

/// Folds a stream of per-record keep/drop decisions (indices strictly
/// increasing) into runs *without touching the AoS bytes*, then copies
/// them in one `flush`. The fused scalar kernels must copy each run the
/// moment it closes (their scan is the expensive part); here the scan
/// over the mirror is cheap, so deferring the copies buys an exact
/// `reserve` — the regrowth copies of a large output cost more than the
/// run bookkeeping. Runs flush in record order, so the output bytes are
/// unchanged.
class RunCollector {
 public:
  void keep(std::size_t i) {
    if (run_ == kNone) run_ = i;
  }
  void drop(std::size_t i) {
    if (run_ != kNone) close(i);
  }
  std::uint64_t finish(std::size_t n) {
    if (run_ != kNone) close(n);
    return kept_;
  }

  /// One exact reserve, then one memcpy per run.
  void flush(const std::byte* base, std::size_t record_size,
             ParticleBuffer& out) const {
    out.reserve(out.size() + static_cast<std::size_t>(kept_));
    for (const Run& r : runs_)
      out.append_records(base + r.start * record_size, r.len);
  }

 private:
  struct Run {
    std::size_t start;
    std::size_t len;
  };

  void close(std::size_t end) {
    runs_.push_back({run_, end - run_});
    kept_ += end - run_;
    run_ = kNone;
  }

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<Run> runs_;
  std::size_t run_ = kNone;
  std::uint64_t kept_ = 0;
};

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
/// planes, one fused in-box mask per vector of mirrored positions.
template <class T>
struct BoxMask {
  explicit BoxMask(const Box3& box)
      : lox(T::set1(box.lo.x)), hix(T::set1(box.hi.x)),
        loy(T::set1(box.lo.y)), hiy(T::set1(box.hi.y)),
        loz(T::set1(box.lo.z)), hiz(T::set1(box.hi.z)) {}

  unsigned bits(const double* xs, const double* ys, const double* zs,
                std::size_t i) const {
    const typename T::Reg x = T::load(xs + i);
    const typename T::Reg y = T::load(ys + i);
    const typename T::Reg z = T::load(zs + i);
    const typename T::Reg in = T::and_(
        T::and_(T::and_(T::cmp_ge(x, lox), T::cmp_lt(x, hix)),
                T::and_(T::cmp_ge(y, loy), T::cmp_lt(y, hiy))),
        T::and_(T::cmp_ge(z, loz), T::cmp_lt(z, hiz)));
    return T::movemask(in);
  }

  typename T::Reg lox, hix, loy, hiy, loz, hiz;
};

template <class T>
std::uint64_t filter_box_body(const PositionMirror& mirror,
                              const std::byte* base, std::size_t record_size,
                              const Box3& box, ParticleBuffer& out) {
  constexpr std::size_t W = T::kLanes;
  constexpr unsigned kFull = (1u << W) - 1;
  const std::size_t n = mirror.size();
  const double* xs = mirror.x();
  const double* ys = mirror.y();
  const double* zs = mirror.z();
  const BoxMask<T> mask(box);
  RunCollector runs;

  // The mirror's tail is NaN-padded to a lane multiple and NaN fails
  // every ordered compare, so the vector loop covers the ragged tail:
  // padding lanes read as drops, which also closes a run ending at n.
  const std::size_t padded = (n + W - 1) / W * W;
  for (std::size_t i = 0; i < padded; i += W) {
    const unsigned bits = mask.bits(xs, ys, zs, i);
    if (bits == kFull) {
      runs.keep(i);
    } else if (bits == 0) {
      runs.drop(i);
    } else {
      for (std::size_t b = 0; b < W; ++b) {
        if (bits & (1u << b)) {
          runs.keep(i + b);
        } else {
          runs.drop(i + b);
        }
      }
    }
  }
  const std::uint64_t kept = runs.finish(n);
  runs.flush(base, record_size, out);
  return kept;
}

template <class T>
std::uint64_t filter_box_ranges_body(const PositionMirror& mirror,
                                     const std::byte* base,
                                     std::size_t record_size, const Box3& box,
                                     const RangePred* preds,
                                     std::size_t npreds, ParticleBuffer& out) {
  constexpr std::size_t W = T::kLanes;
  const std::size_t n = mirror.size();
  const double* xs = mirror.x();
  const double* ys = mirror.y();
  const double* zs = mirror.z();
  const BoxMask<T> mask(box);
  RunCollector runs;

  // Box predicate at full vector width over the mirror; only the lanes
  // it passes pay the scalar range loads from the AoS record. Padding
  // lanes are NaN, fail the box mask, and so never touch the buffer.
  const std::size_t padded = (n + W - 1) / W * W;
  for (std::size_t i = 0; i < padded; i += W) {
    const unsigned bits = mask.bits(xs, ys, zs, i);
    if (bits == 0) {
      runs.drop(i);
      continue;
    }
    for (std::size_t b = 0; b < W; ++b) {
      const std::size_t idx = i + b;
      if ((bits & (1u << b)) &&
          record_passes_ranges(base + idx * record_size, preds, npreds)) {
        runs.keep(idx);
      } else {
        runs.drop(idx);
      }
    }
  }
  const std::uint64_t kept = runs.finish(n);
  runs.flush(base, record_size, out);
  return kept;
}

}  // namespace spio::simd::detail
