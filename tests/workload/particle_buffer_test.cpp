#include "workload/particle_buffer.hpp"

#include <gtest/gtest.h>

namespace spio {
namespace {

TEST(ParticleBuffer, StartsEmpty) {
  ParticleBuffer buf(Schema::uintah());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.record_size(), 124u);
}

TEST(ParticleBuffer, AppendAndReadPositions) {
  ParticleBuffer buf(Schema::uintah());
  buf.append_uninitialized();
  buf.set_position(0, {1, 2, 3});
  buf.append_uninitialized();
  buf.set_position(1, {4, 5, 6});
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.position(0), Vec3d(1, 2, 3));
  EXPECT_EQ(buf.position(1), Vec3d(4, 5, 6));
}

TEST(ParticleBuffer, TypedFieldAccess) {
  ParticleBuffer buf(Schema::uintah());
  buf.append_uninitialized();
  const auto density = buf.schema().index_of("density");
  const auto stress = buf.schema().index_of("stress");
  const auto type = buf.schema().index_of("type");
  buf.set_f64(0, density, 0, 997.0);
  buf.set_f64(0, stress, 4, -12.5);
  buf.set_f32(0, type, 0, 2.0f);
  EXPECT_EQ(buf.get_f64(0, density), 997.0);
  EXPECT_EQ(buf.get_f64(0, stress, 4), -12.5);
  EXPECT_EQ(buf.get_f32(0, type), 2.0f);
  // Untouched components remain zero-initialized.
  EXPECT_EQ(buf.get_f64(0, stress, 0), 0.0);
}

TEST(ParticleBuffer, AppendRecordCopiesBytes) {
  ParticleBuffer a(Schema::position_only());
  a.append_uninitialized();
  a.set_position(0, {7, 8, 9});
  ParticleBuffer b(Schema::position_only());
  b.append_record(a.record(0));
  EXPECT_EQ(b.position(0), Vec3d(7, 8, 9));
}

TEST(ParticleBuffer, AppendFromOtherBuffer) {
  ParticleBuffer a(Schema::uintah());
  for (int i = 0; i < 3; ++i) {
    a.append_uninitialized();
    a.set_position(static_cast<std::size_t>(i), Vec3d(i, i, i));
  }
  ParticleBuffer b(Schema::uintah());
  b.append_from(a, 2);
  b.append_from(a, 0);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.position(0), Vec3d(2, 2, 2));
  EXPECT_EQ(b.position(1), Vec3d(0, 0, 0));
}

TEST(ParticleBuffer, AppendBytesRequiresWholeRecords) {
  ParticleBuffer buf(Schema::position_only());
  std::vector<std::byte> bad(25);  // one record is 24 bytes
  EXPECT_THROW(buf.append_bytes(bad), FormatError);
  std::vector<std::byte> good(48);
  buf.append_bytes(good);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(ParticleBuffer, TakeAndAdoptBytesRoundTrip) {
  ParticleBuffer a(Schema::position_only());
  a.append_uninitialized();
  a.set_position(0, {1, 2, 3});
  auto bytes = a.take_bytes();
  EXPECT_TRUE(a.empty());
  ParticleBuffer b(Schema::position_only());
  b.adopt_bytes(std::move(bytes));
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.position(0), Vec3d(1, 2, 3));
}

TEST(ParticleBuffer, AdoptRejectsPartialRecords) {
  ParticleBuffer b(Schema::position_only());
  EXPECT_THROW(b.adopt_bytes(std::vector<std::byte>(10)), FormatError);
}

TEST(ParticleBuffer, BoundsOfEmptyIsEmpty) {
  EXPECT_TRUE(ParticleBuffer(Schema::uintah()).bounds().is_empty());
}

TEST(ParticleBuffer, BoundsCoverAllPositions) {
  ParticleBuffer buf(Schema::position_only());
  const Vec3d pts[] = {{0, 5, 2}, {3, 1, 9}, {-1, 2, 2}};
  for (std::size_t i = 0; i < 3; ++i) {
    buf.append_uninitialized();
    buf.set_position(i, pts[i]);
  }
  const Box3 b = buf.bounds();
  EXPECT_EQ(b.lo, Vec3d(-1, 1, 2));
  EXPECT_EQ(b.hi, Vec3d(3, 5, 9));
}

TEST(ParticleBuffer, ByteSizeTracksRecords) {
  ParticleBuffer buf(Schema::uintah());
  buf.append_uninitialized();
  buf.append_uninitialized();
  EXPECT_EQ(buf.byte_size(), 2 * 124u);
  EXPECT_EQ(buf.bytes().size(), 2 * 124u);
}

}  // namespace
}  // namespace spio
