#include "util/checksum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "simd/simd_level.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/temp_dir.hpp"

namespace spio {
namespace {

std::vector<std::byte> bytes_of(std::string_view s) {
  std::vector<std::byte> b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

TEST(Crc64, MatchesCrc64XzCheckValue) {
  // The standard CRC-64/XZ check value.
  EXPECT_EQ(crc64(bytes_of("123456789")), 0x995DC9BBDF1939FAULL);
}

TEST(Crc64, EmptyInputIsZero) {
  EXPECT_EQ(crc64({}), 0u);
}

TEST(Crc64, DetectsSingleBitFlip) {
  auto a = bytes_of("the quick brown fox jumps over the lazy dog");
  auto b = a;
  b[17] ^= std::byte{0x01};
  EXPECT_NE(crc64(a), crc64(b));
}

TEST(Crc64, DetectsSwappedBlocks) {
  // Same bytes, different order — a plain sum would miss this.
  auto ab = bytes_of("blockAblockB");
  auto ba = bytes_of("blockBblockA");
  EXPECT_NE(crc64(ab), crc64(ba));
}

TEST(Crc64, IsAPureFunction) {
  const auto data = bytes_of("spio checksum determinism");
  EXPECT_EQ(crc64(data), crc64(data));
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> b(n);
  Xoshiro256 rng(seed);
  for (auto& x : b) x = static_cast<std::byte>(rng.next());
  return b;
}

TEST(Crc64, BytewiseReferenceMatchesKnownVectors) {
  // The reference must independently satisfy the CRC-64/XZ parameters —
  // it is the oracle the sliced tables are checked against.
  EXPECT_EQ(crc64_bytewise(bytes_of("123456789")), 0x995DC9BBDF1939FAULL);
  EXPECT_EQ(crc64_bytewise({}), 0u);
}

TEST(Crc64, SlicedMatchesBytewiseOnRandomBuffers) {
  // Sweep sizes across the kernel's regimes: empty, sub-word tail only,
  // exactly one 8-byte word, one 16-byte block, and lengths exercising
  // every head/body/tail combination around the block boundaries.
  for (const std::size_t n :
       {0u, 1u, 2u, 7u, 8u, 9u, 15u, 16u, 17u, 23u, 24u, 31u, 32u, 33u,
        63u, 64u, 100u, 255u, 256u, 1000u, 4096u, 65537u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto data = random_bytes(n, seed);
      EXPECT_EQ(crc64(data), crc64_bytewise(data))
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(Crc64, SlicedMatchesBytewiseAtEveryAlignment) {
  // The word loop has an alignment head; every offset into a buffer must
  // still agree with the byte-at-a-time reference.
  const auto data = random_bytes(256, 42);
  for (std::size_t off = 0; off < 24; ++off) {
    const std::span<const std::byte> tail{data.data() + off,
                                          data.size() - off};
    EXPECT_EQ(crc64(tail), crc64_bytewise(tail)) << "offset=" << off;
  }
}

/// Runs `check` on the dispatched tier (carry-less where the CPU has
/// PCLMULQDQ), then with SIMD capped off, which is the portable
/// slicing-by-16 tier.
template <class Check>
void on_both_tiers(Check check) {
  {
    SCOPED_TRACE("dispatched tier");
    check();
  }
  simd::ScopedLevelCap portable(simd::Level::kScalar);
  SCOPED_TRACE("portable tier");
  check();
}

TEST(Crc64, TiersMatchBytewiseAtEveryLengthAndOffset) {
  // Every length through 1024 covers the carry-less tier's 128-byte
  // entry threshold, its 64-byte blocks and every tail it hands on.
  const auto data = random_bytes(1024 + 16, 5);
  std::vector<std::uint64_t> want;
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t n = 0; n <= 1024; ++n) {
      want.push_back(crc64_bytewise({data.data() + off, n}));
    }
  }
  on_both_tiers([&] {
    std::size_t i = 0;
    for (std::size_t off = 0; off < 16; ++off) {
      for (std::size_t n = 0; n <= 1024; ++n, ++i) {
        ASSERT_EQ(crc64({data.data() + off, n}), want[i])
            << "offset=" << off << " n=" << n;
      }
    }
  });
}

TEST(Crc64, TiersMatchBytewiseOnEightMebibytes) {
  const auto data = random_bytes(8u << 20, 17);
  const std::uint64_t want = crc64_bytewise(data);
  on_both_tiers([&] { EXPECT_EQ(crc64(data), want); });
}

TEST(Crc64, TiersStreamAcrossFoldBlockEdges) {
  // Chunk sizes straddle the 16-byte slice, the 64-byte fold block and
  // the 128-byte threshold, so the running register crosses from one
  // tier to the other mid-stream.
  const auto data = random_bytes((2u << 20) + 777, 23);
  const std::uint64_t want = crc64_bytewise(data);
  on_both_tiers([&] {
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{15}, std::size_t{16}, std::size_t{63},
          std::size_t{64}, std::size_t{127}, std::size_t{128},
          std::size_t{1000}, std::size_t{(1u << 20) - 1}}) {
      Crc64 crc;
      for (std::size_t off = 0; off < data.size(); off += chunk) {
        crc.update({data.data() + off, std::min(chunk, data.size() - off)});
      }
      EXPECT_EQ(crc.value(), want) << "chunk=" << chunk;
    }
  });
}

TEST(Crc64, StreamingMatchesOneShotAtEverySplitPoint) {
  // Feeding [0, k) then [k, n) must equal one pass for every k — the
  // contract that lets the writer checksum chunk-by-chunk during the
  // file write.
  const auto data = random_bytes(97, 7);
  const std::uint64_t whole = crc64(data);
  for (std::size_t k = 0; k <= data.size(); ++k) {
    Crc64 crc;
    crc.update({data.data(), k});
    crc.update({data.data() + k, data.size() - k});
    EXPECT_EQ(crc.value(), whole) << "split at " << k;
  }
}

TEST(Crc64, StreamingValueIsIdempotentAndResettable) {
  const auto data = random_bytes(1000, 9);
  Crc64 crc;
  crc.update(data);
  const std::uint64_t v = crc.value();
  EXPECT_EQ(crc.value(), v);  // value() must not consume state
  crc.reset();
  EXPECT_EQ(crc.value(), crc64({}));
  crc.update(data);
  EXPECT_EQ(crc.value(), v);
}

TEST(Crc64, StreamingInManySmallChunksMatchesOneShot) {
  const auto data = random_bytes(10000, 13);
  Crc64 crc;
  std::size_t off = 0;
  // Irregular chunk sizes, including zero-length updates.
  const std::size_t chunks[] = {1, 0, 3, 8, 16, 17, 100, 1, 0, 4096};
  std::size_t c = 0;
  while (off < data.size()) {
    const std::size_t n = std::min(chunks[c % std::size(chunks)],
                                   data.size() - off);
    crc.update({data.data() + off, n});
    off += n;
    ++c;
  }
  EXPECT_EQ(crc.value(), crc64(data));
}

TEST(Crc64, WriteFileStreamsTheSameChecksumItWrites) {
  TempDir dir("crc64-write");
  const auto path = dir.path() / "data.bin";
  // Larger than the 1 MiB I/O chunk so the loop runs more than once,
  // with a ragged tail.
  const auto data = random_bytes((1u << 20) * 2 + 12345, 21);

  const std::uint64_t written = crc64_write_file(path, data);
  EXPECT_EQ(written, crc64(data));
  EXPECT_EQ(crc64_file(path), written);

  std::ifstream f(path, std::ios::binary);
  std::vector<std::byte> back(data.size());
  f.read(reinterpret_cast<char*>(back.data()),
         static_cast<std::streamsize>(back.size()));
  ASSERT_TRUE(f.good());
  EXPECT_EQ(back, data);
  EXPECT_EQ(std::filesystem::file_size(path), data.size());
}

TEST(Crc64, WriteFileReplacesExistingContents) {
  TempDir dir("crc64-replace");
  const auto path = dir.path() / "data.bin";
  const auto longer = random_bytes(4096, 1);
  const auto shorter = random_bytes(100, 2);
  crc64_write_file(path, longer);
  const std::uint64_t crc = crc64_write_file(path, shorter);
  EXPECT_EQ(std::filesystem::file_size(path), shorter.size());
  EXPECT_EQ(crc64_file(path), crc);
}

TEST(Crc64, FileChecksumOfMissingFileThrows) {
  TempDir dir("crc64-missing");
  EXPECT_THROW(crc64_file(dir.path() / "nope.bin"), IoError);
}

TEST(Crc64, EmptyFileChecksumIsEmptyBufferChecksum) {
  TempDir dir("crc64-empty");
  const auto path = dir.path() / "empty.bin";
  EXPECT_EQ(crc64_write_file(path, {}), crc64({}));
  EXPECT_EQ(crc64_file(path), crc64({}));
}

}  // namespace
}  // namespace spio
