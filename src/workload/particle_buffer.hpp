#pragma once

/// \file particle_buffer.hpp
/// AoS particle container: a schema plus a flat byte buffer of records.
/// This is the unit of exchange throughout the library — patches hand one
/// to the writer, readers return one.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/box.hpp"
#include "util/error.hpp"
#include "util/vec3.hpp"
#include "workload/schema.hpp"

namespace spio {

class ParticleBuffer {
 public:
  explicit ParticleBuffer(Schema schema);

  const Schema& schema() const { return schema_; }
  std::size_t size() const { return data_.size() / record_size_; }
  bool empty() const { return data_.empty(); }
  std::size_t record_size() const { return record_size_; }
  std::size_t byte_size() const { return data_.size(); }

  void reserve(std::size_t particles) {
    data_.reserve(particles * record_size_);
  }
  /// Return over-reserved capacity to the allocator (used after a
  /// selective query reserved for the worst case).
  void shrink_to_fit() { data_.shrink_to_fit(); }
  void clear() { data_.clear(); }

  /// Append a zero-initialized record and return a writable view of it.
  std::span<std::byte> append_uninitialized();

  /// Append a full record copied from raw bytes (size must equal
  /// record_size()).
  void append_record(std::span<const std::byte> record);

  /// Append record `i` of `other` (schemas must match).
  void append_from(const ParticleBuffer& other, std::size_t i);

  /// Append all records held in `bytes` (a multiple of record_size()).
  void append_bytes(std::span<const std::byte> bytes);

  /// Append `count` whole records starting at `p` — the fused read
  /// kernels' inner-loop appender. Unchecked (those kernels address by
  /// record index, so the payload is whole records by construction) and
  /// header-inline: a short matching run must cost one `memcpy`, not an
  /// out-of-line call plus a divisibility check.
  void append_records(const std::byte* p, std::size_t count) {
    data_.insert(data_.end(), p, p + count * record_size_);
  }

  /// Append records `base[idx[0]], ..., base[idx[k-1]]` (record indices
  /// into `base`, a buffer of this schema's records) — the SIMD
  /// kernels' gather. Grows the buffer at most once (to exactly the
  /// final size when it had no capacity yet, at least doubling it
  /// otherwise), then copies each run of consecutive indices with one
  /// `insert`.
  void append_gather(const std::byte* base, const std::uint32_t* idx,
                     std::size_t k);

  /// Read-only view of record `i`.
  std::span<const std::byte> record(std::size_t i) const;
  /// Writable view of record `i`.
  std::span<std::byte> record(std::size_t i);

  /// The whole AoS payload, for sends and file writes.
  std::span<const std::byte> bytes() const { return data_; }
  /// Move the payload out (leaves the buffer empty).
  std::vector<std::byte> take_bytes();
  /// Replace the payload (size must be a multiple of record_size()).
  void adopt_bytes(std::vector<std::byte> bytes);

  // ---- typed field access ----

  Vec3d position(std::size_t i) const;
  void set_position(std::size_t i, const Vec3d& p);

  /// Value of component `comp` of f64 field `field` in record `i`.
  double get_f64(std::size_t i, std::size_t field, std::size_t comp = 0) const;
  void set_f64(std::size_t i, std::size_t field, std::size_t comp, double v);
  float get_f32(std::size_t i, std::size_t field, std::size_t comp = 0) const;
  void set_f32(std::size_t i, std::size_t field, std::size_t comp, float v);

  /// Drop all records past the first `count` (no-op if already smaller).
  void truncate(std::size_t count);

  /// Tight bounding box of all particle positions; `Box3::empty()` if the
  /// buffer is empty.
  Box3 bounds() const;

 private:
  const std::byte* field_ptr(std::size_t i, std::size_t field,
                             std::size_t comp, std::size_t elem_size) const;
  std::byte* field_ptr(std::size_t i, std::size_t field, std::size_t comp,
                       std::size_t elem_size);

  Schema schema_;
  std::size_t record_size_;
  std::vector<std::byte> data_;
};

}  // namespace spio
