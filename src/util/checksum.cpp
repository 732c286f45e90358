#include "util/checksum.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "util/error.hpp"

namespace spio {

namespace {

// Reflected form of the ECMA-182 polynomial 0x42F0E1EBA9EA3693.
constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ULL;

// kTables[0] is the classic byte-at-a-time table; kTables[s][b] extends a
// CRC byte that is followed by s zero bytes. With 16 tables the body loop
// consumes two 64-bit words per iteration (slicing-by-16): sixteen
// independent lookups whose XOR tree the CPU can overlap, instead of the
// serial one-lookup-per-byte dependency chain.
constexpr std::array<std::array<std::uint64_t, 256>, 16> make_tables() {
  std::array<std::array<std::uint64_t, 256>, 16> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t s = 1; s < 16; ++s) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr std::array<std::array<std::uint64_t, 256>, 16> kTables =
    make_tables();

std::uint64_t update_raw(std::uint64_t crc, const std::byte* p,
                         std::size_t n) {
  // Head: align to the word loop (any split is fine; the tables compose).
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7) != 0) {
    crc = kTables[0][(crc ^ static_cast<std::uint64_t>(*p)) & 0xFF] ^
          (crc >> 8);
    ++p;
    --n;
  }
  // Body: two 64-bit words per iteration. The CRC state folds into the
  // first word only; the second word's lookups are independent of it,
  // which is where the instruction-level parallelism comes from. The
  // on-disk format (and these loads) is little-endian, pinned by the
  // serializer.
  while (n >= 16) {
#if defined(__GNUC__) || defined(__clang__)
    // Non-temporal-hint prefetch a few lines ahead keeps the stream fed
    // when the buffer is DRAM-resident; harmless when it is cache-hot.
    __builtin_prefetch(p + 512, 0, 0);
#endif
    std::uint64_t w1, w2;
    std::memcpy(&w1, p, 8);
    std::memcpy(&w2, p + 8, 8);
    w1 ^= crc;
    crc = kTables[15][w1 & 0xFF] ^ kTables[14][(w1 >> 8) & 0xFF] ^
          kTables[13][(w1 >> 16) & 0xFF] ^ kTables[12][(w1 >> 24) & 0xFF] ^
          kTables[11][(w1 >> 32) & 0xFF] ^ kTables[10][(w1 >> 40) & 0xFF] ^
          kTables[9][(w1 >> 48) & 0xFF] ^ kTables[8][w1 >> 56] ^
          kTables[7][w2 & 0xFF] ^ kTables[6][(w2 >> 8) & 0xFF] ^
          kTables[5][(w2 >> 16) & 0xFF] ^ kTables[4][(w2 >> 24) & 0xFF] ^
          kTables[3][(w2 >> 32) & 0xFF] ^ kTables[2][(w2 >> 40) & 0xFF] ^
          kTables[1][(w2 >> 48) & 0xFF] ^ kTables[0][w2 >> 56];
    p += 16;
    n -= 16;
  }
  if (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    crc ^= word;
    crc = kTables[7][crc & 0xFF] ^ kTables[6][(crc >> 8) & 0xFF] ^
          kTables[5][(crc >> 16) & 0xFF] ^ kTables[4][(crc >> 24) & 0xFF] ^
          kTables[3][(crc >> 32) & 0xFF] ^ kTables[2][(crc >> 40) & 0xFF] ^
          kTables[1][(crc >> 48) & 0xFF] ^ kTables[0][crc >> 56];
    p += 8;
    n -= 8;
  }
  // Tail.
  while (n > 0) {
    crc = kTables[0][(crc ^ static_cast<std::uint64_t>(*p)) & 0xFF] ^
          (crc >> 8);
    ++p;
    --n;
  }
  return crc;
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};

}  // namespace

void Crc64::update(std::span<const std::byte> data) {
  crc_ = update_raw(crc_, data.data(), data.size());
}

std::uint64_t crc64(std::span<const std::byte> data) {
  return ~update_raw(~0ULL, data.data(), data.size());
}

std::uint64_t crc64_bytewise(std::span<const std::byte> data) {
  std::uint64_t crc = ~0ULL;
  for (const std::byte b : data) {
    crc = kTables[0][(crc ^ static_cast<std::uint64_t>(b)) & 0xFF] ^
          (crc >> 8);
  }
  return ~crc;
}

std::uint64_t crc64_write_file(const std::filesystem::path& path,
                               std::span<const std::byte> bytes) {
  std::unique_ptr<std::FILE, FileCloser> f(
      std::fopen(path.string().c_str(), "wb"));
  SPIO_CHECK(f != nullptr, IoError,
             "cannot open '" << path.string() << "' for writing");
  Crc64 crc;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::size_t n = std::min(kIoChunk, bytes.size() - off);
    const std::span<const std::byte> chunk = bytes.subspan(off, n);
    // Checksum the chunk while it is hot in cache from the write.
    const std::size_t written =
        std::fwrite(chunk.data(), 1, chunk.size(), f.get());
    SPIO_CHECK(written == chunk.size(), IoError,
               "short write to '" << path.string() << "': " << off + written
                                  << " of " << bytes.size() << " bytes");
    crc.update(chunk);
    off += n;
  }
  return crc.value();
}

std::uint64_t crc64_file(const std::filesystem::path& path) {
  std::unique_ptr<std::FILE, FileCloser> f(
      std::fopen(path.string().c_str(), "rb"));
  SPIO_CHECK(f != nullptr, IoError,
             "cannot open '" << path.string() << "' for reading");
  Crc64 crc;
  std::vector<std::byte> buf(kIoChunk);
  for (;;) {
    const std::size_t n = std::fread(buf.data(), 1, buf.size(), f.get());
    if (n > 0) crc.update({buf.data(), n});
    if (n < buf.size()) {
      SPIO_CHECK(std::ferror(f.get()) == 0, IoError,
                 "read error in '" << path.string() << "'");
      break;
    }
  }
  return crc.value();
}

}  // namespace spio
