#pragma once

/// \file position_mirror.hpp
/// The SoA position mirror: three contiguous f64 arrays (x, y, z)
/// shadowing the position columns of one AoS record buffer. The 124 B
/// AoS record layout (paper §5.1) defeats vectorization of the box and
/// range predicates — each position load is a strided gather — so the
/// read path mirrors positions once per cached file prefix and lets the
/// SIMD kernels (simd/kernels.hpp) evaluate predicates over the mirror
/// at full vector width, copying the matching records from the
/// untouched AoS bytes so output stays byte-identical to the scalar
/// kernels.
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
  /// Allocated bytes — what the cache charges against its budget.
  std::uint64_t byte_size() const {
    return static_cast<std::uint64_t>(3 * padded_ * sizeof(double));
  }
  /// What `build` over `count` records will allocate (and the cache
  /// charge) — budget arithmetic for tests and admission math.
  static std::uint64_t bytes_for_count(std::size_t count);

  const double* x() const { return lanes_.get(); }
  const double* y() const { return lanes_.get() + padded_; }
  const double* z() const { return lanes_.get() + 2 * padded_; }

 private:
  PositionMirror(std::size_t count, std::size_t padded)
      : lanes_(new double[3 * padded]), count_(count), padded_(padded) {}

  std::unique_ptr<double[]> lanes_;  // [x | y | z], each `padded_` long
  std::size_t count_;
  std::size_t padded_;
};

}  // namespace spio
