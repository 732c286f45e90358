#pragma once

/// \file kernels_isa.hpp
/// Internal: per-ISA kernel entry points, one set per compiled TU
/// (kernels_sse2.cpp at the baseline ISA, kernels_avx2.cpp at
/// `-mavx2`). The dispatcher in kernels.cpp routes to these based on
/// `active_level()`; it never calls into a TU whose `*_compiled()`
/// flag is false, so the abort-stub bodies the guards leave behind on
/// toolchains that can't build an ISA are unreachable.

#include <cstddef>
#include <cstdint>

#include "simd/kernels.hpp"
#include "simd/position_mirror.hpp"
#include "util/box.hpp"
#include "workload/particle_buffer.hpp"

namespace spio::simd {

// True when the TU was actually built at its target ISA.
bool sse2_compiled();
bool avx2_compiled();

namespace detail {

std::uint64_t filter_box_sse2(const PositionMirror& mirror,
                              const std::byte* base, const Box3& box,
                              ParticleBuffer& out);
std::uint64_t filter_box_avx2(const PositionMirror& mirror,
                              const std::byte* base, const Box3& box,
                              ParticleBuffer& out);

std::uint64_t filter_box_ranges_sse2(const PositionMirror& mirror,
                                     const std::byte* base, const Box3& box,
                                     const RangePred* preds, std::size_t npreds,
                                     ParticleBuffer& out);
std::uint64_t filter_box_ranges_avx2(const PositionMirror& mirror,
                                     const std::byte* base, const Box3& box,
                                     const RangePred* preds, std::size_t npreds,
                                     ParticleBuffer& out);

}  // namespace detail
}  // namespace spio::simd
