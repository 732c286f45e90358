/// SSE2 kernel TU — compiled at the build's baseline ISA (x86-64
/// implies SSE2). The twin TU, kernels_avx2.cpp, holds the identical
/// bodies instantiated at `-mavx2`; simd_level.cpp picks between them
/// at runtime.

#include "simd/kernels_isa.hpp"

#if defined(__x86_64__) || defined(_M_X64) || defined(__SSE2__)
#define SPIO_SIMD_SSE2 1
#else
#define SPIO_SIMD_SSE2 0
#endif

#if SPIO_SIMD_SSE2

#include <emmintrin.h>

#include "simd/kernels_x86_body.hpp"

namespace spio::simd {

bool sse2_compiled() { return true; }

namespace detail {
namespace {

struct TraitsSSE2 {
  static constexpr std::size_t kLanes = 4;
  using Reg = __m128;
  static Reg load(const float* p) { return _mm_loadu_ps(p); }
  static Reg set1(float v) { return _mm_set1_ps(v); }
  // CMPPS's ordered predicates: NaN compares false, as scalar `>=`/`<`.
  static Reg cmp_ge(Reg a, Reg b) { return _mm_cmpge_ps(a, b); }
  static Reg cmp_gt(Reg a, Reg b) { return _mm_cmpgt_ps(a, b); }
  static Reg cmp_le(Reg a, Reg b) { return _mm_cmple_ps(a, b); }
  static Reg cmp_lt(Reg a, Reg b) { return _mm_cmplt_ps(a, b); }
  static Reg and_(Reg a, Reg b) { return _mm_and_ps(a, b); }
  static unsigned movemask(Reg m) {
    return static_cast<unsigned>(_mm_movemask_ps(m));
  }
};

}  // namespace

std::uint64_t filter_box_sse2(const PositionMirror& mirror,
                              const std::byte* base, const Box3& box,
                              ParticleBuffer& out) {
  return filter_box_body<TraitsSSE2>(mirror, base, box, out);
}

std::uint64_t filter_box_ranges_sse2(const PositionMirror& mirror,
                                     const std::byte* base, const Box3& box,
                                     const RangePred* preds, std::size_t npreds,
                                     ParticleBuffer& out) {
  return filter_box_ranges_body<TraitsSSE2>(mirror, base, box, preds,
                                            npreds, out);
}

}  // namespace detail
}  // namespace spio::simd

#else  // !SPIO_SIMD_SSE2 — non-x86 target: dispatch never selects SSE2.

#include <cstdlib>

namespace spio::simd {

bool sse2_compiled() { return false; }

namespace detail {

std::uint64_t filter_box_sse2(const PositionMirror&, const std::byte*,
                              const Box3&, ParticleBuffer&) {
  std::abort();
}

std::uint64_t filter_box_ranges_sse2(const PositionMirror&, const std::byte*,
                                     const Box3&, const RangePred*,
                                     std::size_t, ParticleBuffer&) {
  std::abort();
}

}  // namespace detail
}  // namespace spio::simd

#endif  // SPIO_SIMD_SSE2
