#include "workload/particle_buffer.hpp"

#include <algorithm>
#include <utility>

namespace spio {

ParticleBuffer::ParticleBuffer(Schema schema)
    : schema_(std::move(schema)), record_size_(schema_.record_size()) {}

std::span<std::byte> ParticleBuffer::append_uninitialized() {
  data_.resize(data_.size() + record_size_, std::byte{0});
  return {data_.data() + data_.size() - record_size_, record_size_};
}

void ParticleBuffer::append_record(std::span<const std::byte> record) {
  SPIO_EXPECTS(record.size() == record_size_);
  data_.insert(data_.end(), record.begin(), record.end());
}

void ParticleBuffer::append_from(const ParticleBuffer& other, std::size_t i) {
  SPIO_EXPECTS(other.schema_ == schema_);
  append_record(other.record(i));
}

void ParticleBuffer::append_bytes(std::span<const std::byte> bytes) {
  SPIO_CHECK(bytes.size() % record_size_ == 0, FormatError,
             "particle payload of " << bytes.size()
                                    << " bytes is not a multiple of the "
                                    << record_size_ << "-byte record");
  data_.insert(data_.end(), bytes.begin(), bytes.end());
}

void ParticleBuffer::append_gather(const std::byte* base,
                                   const std::uint32_t* idx, std::size_t k) {
  const std::size_t need = data_.size() + k * record_size_;
  if (need > data_.capacity())
    data_.reserve(std::max(need, 2 * data_.capacity()));
  for (std::size_t t = 0; t < k;) {
    const std::size_t first = idx[t];
    std::size_t len = 1;
    while (t + len < k && idx[t + len] == first + len) ++len;
    const std::byte* p = base + first * record_size_;
    data_.insert(data_.end(), p, p + len * record_size_);
    t += len;
  }
}

std::span<const std::byte> ParticleBuffer::record(std::size_t i) const {
  SPIO_EXPECTS(i < size());
  return {data_.data() + i * record_size_, record_size_};
}

std::span<std::byte> ParticleBuffer::record(std::size_t i) {
  SPIO_EXPECTS(i < size());
  return {data_.data() + i * record_size_, record_size_};
}

std::vector<std::byte> ParticleBuffer::take_bytes() {
  std::vector<std::byte> out = std::move(data_);
  data_.clear();
  return out;
}

void ParticleBuffer::adopt_bytes(std::vector<std::byte> bytes) {
  SPIO_CHECK(bytes.size() % record_size_ == 0, FormatError,
             "adopted payload of " << bytes.size()
                                   << " bytes is not a multiple of the "
                                   << record_size_ << "-byte record");
  data_ = std::move(bytes);
}

const std::byte* ParticleBuffer::field_ptr(std::size_t i, std::size_t field,
                                           std::size_t comp,
                                           std::size_t elem_size) const {
  SPIO_EXPECTS(i < size());
  SPIO_EXPECTS(field < schema_.field_count());
  SPIO_EXPECTS(comp < schema_.fields()[field].components);
  SPIO_EXPECTS(field_type_size(schema_.fields()[field].type) == elem_size);
  return data_.data() + i * record_size_ + schema_.offset(field) +
         comp * elem_size;
}

std::byte* ParticleBuffer::field_ptr(std::size_t i, std::size_t field,
                                     std::size_t comp, std::size_t elem_size) {
  return const_cast<std::byte*>(
      static_cast<const ParticleBuffer*>(this)->field_ptr(i, field, comp,
                                                          elem_size));
}

Vec3d ParticleBuffer::position(std::size_t i) const {
  Vec3d p;
  std::memcpy(&p, field_ptr(i, 0, 0, sizeof(double)), sizeof(Vec3d));
  return p;
}

void ParticleBuffer::set_position(std::size_t i, const Vec3d& p) {
  std::memcpy(field_ptr(i, 0, 0, sizeof(double)), &p, sizeof(Vec3d));
}

double ParticleBuffer::get_f64(std::size_t i, std::size_t field,
                               std::size_t comp) const {
  double v;
  std::memcpy(&v, field_ptr(i, field, comp, sizeof(double)), sizeof(double));
  return v;
}

void ParticleBuffer::set_f64(std::size_t i, std::size_t field,
                             std::size_t comp, double v) {
  std::memcpy(field_ptr(i, field, comp, sizeof(double)), &v, sizeof(double));
}

float ParticleBuffer::get_f32(std::size_t i, std::size_t field,
                              std::size_t comp) const {
  float v;
  std::memcpy(&v, field_ptr(i, field, comp, sizeof(float)), sizeof(float));
  return v;
}

void ParticleBuffer::set_f32(std::size_t i, std::size_t field,
                             std::size_t comp, float v) {
  std::memcpy(field_ptr(i, field, comp, sizeof(float)), &v, sizeof(float));
}

void ParticleBuffer::truncate(std::size_t count) {
  if (count < size()) data_.resize(count * record_size_);
}

Box3 ParticleBuffer::bounds() const {
  Box3 box = Box3::empty();
  for (std::size_t i = 0; i < size(); ++i) box.extend(position(i));
  return box;
}

}  // namespace spio
