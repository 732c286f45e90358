#pragma once

/// \file kernels.hpp
/// Explicitly vectorized read-path kernels over the SoA position mirror
/// (docs/PERF.md "SIMD kernels"). Each kernel evaluates its predicate as
/// SIMD masks over the mirror's contiguous x/y/z arrays, compacts the
/// masks branchlessly into an ascending list of `u32` record indices,
/// then copies exactly those records from the *AoS* byte buffer into an
/// exactly reserved `out` (`ParticleBuffer::append_gather`) — the same
/// records in the same order as the fused scalar kernels, so output is
/// byte-identical to the `*_reference` oracles by construction (the
/// differential suite in tests/simd/simd_kernels_test.cpp pins all
/// three paths together).
///
/// Every entry point is a *try*: it returns false — leaving `out`
/// untouched — when no SIMD path is available (`active_level()` is
/// `kScalar`: non-x86 build, `SPIO_SIMD=off`, or a test cap), when the
/// mirror does not describe `bytes` (count, record-size or
/// position-offset mismatch), or when it holds more records than a `u32`
/// index can name. Callers fall back to the fused scalar kernels;
/// `read_detail::*_dispatch` in core/read_engine.hpp does exactly that
/// and counts `kernel.simd_{hits,fallbacks}`.
///
/// Comparison semantics are pinned to the scalar kernels exactly: the
/// f32 mirror lanes only pre-decide the box test (ordered compares, so
/// NaN matches no box), and records within one f32 ulp of a face get
/// the scalar f64 test on the AoS position; range predicates pass NaN
/// attribute values (scalar `!(v < lo || v > hi)`).

#include <cstddef>
#include <cstdint>
#include <span>

#include "simd/position_mirror.hpp"
#include "simd/simd_level.hpp"
#include "util/box.hpp"
#include "workload/particle_buffer.hpp"

namespace spio::simd {

/// One hoisted range predicate: keep records whose element at byte
/// `offset` (f64, or f32 widened) lies in [lo, hi]; NaN passes. The
/// SIMD-side twin of the read engine's hoisted `RangeFilter`.
struct RangePred {
  std::size_t offset = 0;
  bool is_f64 = true;
  double lo = 0;
  double hi = 0;
};

/// SIMD `filter_box`: append every record of `bytes` (records of
/// `record_size` bytes, the f64x3 position at `position_offset`) whose
/// position lies in `box` (half-open) to `out`; `*kept` gets the count.
/// Returns false (no-op) when dispatch lands on the scalar level,
/// `mirror.size() != bytes.size() / record_size`, the mirror was built
/// at another record size or position offset, `out` holds records of
/// another size, or `mirror.size()` exceeds `UINT32_MAX`.
bool filter_box(const PositionMirror& mirror, std::span<const std::byte> bytes,
                std::size_t record_size, std::size_t position_offset,
                const Box3& box, ParticleBuffer& out, std::uint64_t* kept);

/// SIMD `filter_box_ranges`: the box predicate runs at full vector width
/// over the mirror; surviving lanes evaluate the (rarely more than one
/// or two) range predicates against the AoS record. Same try contract as
/// `filter_box`.
bool filter_box_ranges(const PositionMirror& mirror,
                       std::span<const std::byte> bytes,
                       std::size_t record_size, std::size_t position_offset,
                       const Box3& box, std::span<const RangePred> preds,
                       ParticleBuffer& out, std::uint64_t* kept);

}  // namespace spio::simd
