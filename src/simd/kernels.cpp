#include "simd/kernels.hpp"

#include <limits>

#include "simd/kernels_isa.hpp"
#include "simd/simd_level.hpp"

namespace spio::simd {

namespace {

/// The mirror must describe exactly the records in `bytes` — their
/// count, and the record size and position offset the near-face recheck
/// reads the AoS positions at — and `out` must hold records of the same
/// size; anything else means the caller paired a stale mirror with
/// fresh bytes and the safe answer is the scalar fallback (a mirror's
/// record size is never 0). So does a mirror too long for the kernels'
/// `u32` record indices.
bool mirror_matches(const PositionMirror& mirror,
                    std::span<const std::byte> bytes, std::size_t record_size,
                    std::size_t position_offset, const ParticleBuffer& out) {
  return record_size == mirror.record_size() &&
         record_size == out.record_size() &&
         position_offset == mirror.position_offset() &&
         bytes.size() % record_size == 0 &&
         mirror.size() == bytes.size() / record_size &&
         mirror.size() <= std::numeric_limits<std::uint32_t>::max();
}

}  // namespace

bool filter_box(const PositionMirror& mirror, std::span<const std::byte> bytes,
                std::size_t record_size, std::size_t position_offset,
                const Box3& box, ParticleBuffer& out, std::uint64_t* kept) {
  const Level level = active_level();
  if (level == Level::kScalar ||
      !mirror_matches(mirror, bytes, record_size, position_offset, out))
    return false;
  const std::uint64_t k =
      level == Level::kAVX2
          ? detail::filter_box_avx2(mirror, bytes.data(), box, out)
          : detail::filter_box_sse2(mirror, bytes.data(), box, out);
  if (kept) *kept = k;
  return true;
}

bool filter_box_ranges(const PositionMirror& mirror,
                       std::span<const std::byte> bytes,
                       std::size_t record_size, std::size_t position_offset,
                       const Box3& box, std::span<const RangePred> preds,
                       ParticleBuffer& out, std::uint64_t* kept) {
  const Level level = active_level();
  if (level == Level::kScalar ||
      !mirror_matches(mirror, bytes, record_size, position_offset, out))
    return false;
  const std::uint64_t k =
      level == Level::kAVX2
          ? detail::filter_box_ranges_avx2(mirror, bytes.data(), box,
                                           preds.data(), preds.size(), out)
          : detail::filter_box_ranges_sse2(mirror, bytes.data(), box,
                                           preds.data(), preds.size(), out);
  if (kept) *kept = k;
  return true;
}

}  // namespace spio::simd
