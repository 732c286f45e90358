#include "simd/position_mirror.hpp"

#include <cstring>
#include <limits>

#include "util/error.hpp"

namespace spio {

namespace {

/// Widest kernel lane count we pad for (AVX2 f32x8).
constexpr std::size_t kPadLanes = 8;

std::size_t padded_count(std::size_t count) {
  const std::size_t padded = (count + kPadLanes - 1) / kPadLanes * kPadLanes;
  return padded == 0 ? kPadLanes : padded;
}

}  // namespace

std::uint64_t PositionMirror::bytes_for_count(std::size_t count) {
  return static_cast<std::uint64_t>(3 * padded_count(count) * sizeof(float));
}

std::shared_ptr<const PositionMirror> PositionMirror::build(
    std::span<const std::byte> bytes, std::size_t record_size,
    std::size_t position_offset) {
  SPIO_EXPECTS(record_size > 0 && bytes.size() % record_size == 0);
  SPIO_EXPECTS(position_offset + 3 * sizeof(double) <= record_size);
  const std::size_t n = bytes.size() / record_size;
  auto mirror = std::shared_ptr<PositionMirror>(new PositionMirror(
      n, padded_count(n), record_size, position_offset));

  float* xs = mirror->lanes_.get();
  float* ys = xs + mirror->padded_;
  float* zs = ys + mirror->padded_;
  const std::byte* p = bytes.data() + position_offset;
  for (std::size_t i = 0; i < n; ++i, p += record_size) {
    double v[3];
    std::memcpy(v, p, sizeof v);
    xs[i] = static_cast<float>(v[0]);
    ys[i] = static_cast<float>(v[1]);
    zs[i] = static_cast<float>(v[2]);
  }
  const float pad = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t i = n; i < mirror->padded_; ++i) {
    xs[i] = pad;
    ys[i] = pad;
    zs[i] = pad;
  }
  return mirror;
}

}  // namespace spio
