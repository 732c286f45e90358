#pragma once

/// \file position_mirror.hpp
/// The SoA position mirror: three contiguous f32 arrays (x, y, z)
/// shadowing the f64 position columns of one AoS record buffer. The
/// 124 B AoS record layout (paper §5.1) defeats vectorization of the box
/// and range predicates — each position load is a strided gather — so
/// the read path mirrors positions once per cached file prefix and lets
/// the SIMD kernels (simd/kernels.hpp) evaluate predicates over the
/// mirror at full vector width, copying the matching records from the
/// untouched AoS bytes.
///
/// Each lane is `static_cast<float>` of its f64 coordinate (round to
/// nearest: monotone, overflowing to ±inf, NaN kept NaN), so the mirror
/// is an *index*, not a copy: it decides every record except those
/// whose rounded coordinate equals a rounded box face, which the kernels
/// settle with the exact f64 test on the AoS record (see
/// kernels_x86_body.hpp). That
/// recheck is why the mirror records the `record_size` and
/// `position_offset` it was built with; the kernels decline a call that
/// names another layout. Output stays byte-identical to the scalar
/// kernels, and the mirror costs 12 B per record.
///
/// Ownership: `PrefixCache` entries hold the mirror next to the prefix
/// block. Its bytes are charged to the `SPIO_READ_CACHE` budget, it is
/// evicted with the prefix, and a staleness invalidation (in-place
/// rewrite) drops it too — a mirror can never outlive or disagree with
/// the bytes it mirrors.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

namespace spio {

class PositionMirror {
 public:
  /// Mirror the positions of `bytes` (whole AoS records of
  /// `record_size` bytes with the f64x3 position at `position_offset`).
  /// `bytes.size()` must be a multiple of `record_size`. The tail is
  /// padded to a lane-count multiple with quiet NaN, which no box
  /// predicate matches — padded lanes never select a record.
  static std::shared_ptr<const PositionMirror> build(
      std::span<const std::byte> bytes, std::size_t record_size,
      std::size_t position_offset);

  /// Mirrored record count (excluding padding).
  std::size_t size() const { return count_; }
  /// The AoS layout the mirror was built from.
  std::size_t record_size() const { return record_size_; }
  std::size_t position_offset() const { return position_offset_; }
  /// Allocated bytes — what the cache charges against its budget.
  std::uint64_t byte_size() const {
    return static_cast<std::uint64_t>(3 * padded_ * sizeof(float));
  }
  /// What `build` over `count` records will allocate (and the cache
  /// charge) — budget arithmetic for tests and admission math.
  static std::uint64_t bytes_for_count(std::size_t count);

  const float* x() const { return lanes_.get(); }
  const float* y() const { return lanes_.get() + padded_; }
  const float* z() const { return lanes_.get() + 2 * padded_; }

 private:
  PositionMirror(std::size_t count, std::size_t padded,
                 std::size_t record_size, std::size_t position_offset)
      : lanes_(new float[3 * padded]), count_(count), padded_(padded),
        record_size_(record_size), position_offset_(position_offset) {}

  std::unique_ptr<float[]> lanes_;  // [x | y | z], each `padded_` long
  std::size_t count_;
  std::size_t padded_;
  std::size_t record_size_;
  std::size_t position_offset_;
};

}  // namespace spio
