/// AVX2 kernel TU — CMake compiles exactly this file with `-mavx2`
/// (see src/simd/CMakeLists.txt) when the toolchain supports the flag;
/// the rest of the library stays at the baseline ISA and reaches this
/// code only through runtime dispatch, so a non-AVX2 host never
/// executes an AVX2 instruction.

#include "simd/kernels_isa.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "simd/kernels_x86_body.hpp"

namespace spio::simd {

bool avx2_compiled() { return true; }

namespace detail {
namespace {

struct TraitsAVX2 {
  static constexpr std::size_t kLanes = 8;
  using Reg = __m256;
  static Reg load(const float* p) { return _mm256_loadu_ps(p); }
  static Reg set1(float v) { return _mm256_set1_ps(v); }
  // Ordered-quiet predicates: NaN compares false, as scalar `>=`/`<`.
  static Reg cmp_ge(Reg a, Reg b) { return _mm256_cmp_ps(a, b, _CMP_GE_OQ); }
  static Reg cmp_gt(Reg a, Reg b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
  static Reg cmp_le(Reg a, Reg b) { return _mm256_cmp_ps(a, b, _CMP_LE_OQ); }
  static Reg cmp_lt(Reg a, Reg b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
  static Reg and_(Reg a, Reg b) { return _mm256_and_ps(a, b); }
  static unsigned movemask(Reg m) {
    return static_cast<unsigned>(_mm256_movemask_ps(m));
  }
};

}  // namespace

std::uint64_t filter_box_avx2(const PositionMirror& mirror,
                              const std::byte* base, const Box3& box,
                              ParticleBuffer& out) {
  return filter_box_body<TraitsAVX2>(mirror, base, box, out);
}

std::uint64_t filter_box_ranges_avx2(const PositionMirror& mirror,
                                     const std::byte* base, const Box3& box,
                                     const RangePred* preds, std::size_t npreds,
                                     ParticleBuffer& out) {
  return filter_box_ranges_body<TraitsAVX2>(mirror, base, box, preds,
                                            npreds, out);
}

}  // namespace detail
}  // namespace spio::simd

#else  // !__AVX2__ — toolchain could not build this TU at AVX2;
       // detected_level() caps at SSE2 and these stubs stay unreachable.

#include <cstdlib>

namespace spio::simd {

bool avx2_compiled() { return false; }

namespace detail {

std::uint64_t filter_box_avx2(const PositionMirror&, const std::byte*,
                              const Box3&, ParticleBuffer&) {
  std::abort();
}

std::uint64_t filter_box_ranges_avx2(const PositionMirror&, const std::byte*,
                                     const Box3&, const RangePred*,
                                     std::size_t, ParticleBuffer&) {
  std::abort();
}

}  // namespace detail
}  // namespace spio::simd

#endif  // __AVX2__
