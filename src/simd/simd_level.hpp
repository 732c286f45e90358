#pragma once

/// \file simd_level.hpp
/// Runtime ISA dispatch for the SIMD kernel engine (docs/PERF.md "SIMD
/// kernels"). The kernel TU is compiled twice — once at the baseline
/// ISA (SSE2, implied by x86-64) and once at `-mavx2` — and the level
/// chosen at runtime picks between them:
///
///   * `kAVX2`   — 4-lane f64 vectors (requires CPU support *and* a
///                 toolchain that could compile the AVX2 TU),
///   * `kSSE2`   — 2-lane f64 vectors, the x86-64 baseline,
///   * `kScalar` — no SIMD path; callers fall back to the fused scalar
///                 kernels (read_detail::filter_box etc.), which remain
///                 the byte-identity oracles.
///
/// What dispatches on the level:
///
///   * the read kernels (simd/kernels.hpp: `filter_box`,
///     `filter_box_ranges`) pick the AVX2 or SSE2 TU, or return false
///     below SSE2;
///   * CRC-64 (util/checksum.hpp) takes its PCLMULQDQ fold at SSE2 and
///     above when the CPU has PCLMULQDQ, and slicing-by-16 otherwise.
///
/// `SPIO_SIMD` caps the level from the environment: `off`/`scalar`/`0`
/// force the scalar fallback everywhere (the differential suites run
/// once per path), `sse2` caps at SSE2, `avx2`/unset means "whatever
/// the CPU has". Tests can additionally cap the level in-process with
/// `ScopedLevelCap`; the effective level is always
/// min(CPU, SPIO_SIMD, cap).

#include <cstdint>

namespace spio::simd {

enum class Level : std::uint8_t {
  kScalar = 0,
  kSSE2 = 1,
  kAVX2 = 2,
};

/// Highest level this CPU + build supports (cached after first call).
Level detected_level();

/// min(detected, SPIO_SIMD, test cap) — what the kernels dispatch on.
Level active_level();

/// "scalar" / "sse2" / "avx2" — recorded in perfbench's run header.
const char* level_name(Level level);

/// RAII cap for tests: while alive, `active_level()` never exceeds
/// `cap` (it still never exceeds the CPU's or `SPIO_SIMD`'s level, so a
/// suite forced scalar by the environment stays scalar). Not
/// thread-safe — install from the main thread while no queries run.
class ScopedLevelCap {
 public:
  explicit ScopedLevelCap(Level cap);
  ~ScopedLevelCap();
  ScopedLevelCap(const ScopedLevelCap&) = delete;
  ScopedLevelCap& operator=(const ScopedLevelCap&) = delete;

 private:
  int prev_;
};

}  // namespace spio::simd
