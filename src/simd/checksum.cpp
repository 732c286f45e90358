#include "util/checksum.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "simd/simd_level.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SPIO_CRC64_CLMUL 1
#include <immintrin.h>
#endif

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

// The classic one-table loop: one byte and one dependent lookup per step.
std::uint64_t update_bytewise(std::uint64_t crc, const std::byte* p,
                              std::size_t n) {
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ static_cast<std::uint64_t>(*p)) & 0xFF] ^
          (crc >> 8);
  }
  return crc;
}

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
    // Only while the target lies inside the buffer: forming a pointer
    // past its end is undefined even though the prefetch cannot fault.
    if (n > 512) __builtin_prefetch(p + 512, 0, 0);
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
  return update_bytewise(crc, p, n);  // tail
}

#ifdef SPIO_CRC64_CLMUL

// x^n mod P in the reflected form of kPoly (bit 63 is x^0, bit 0 is x^63).
constexpr std::uint64_t xpow(unsigned n) {
  std::uint64_t r = 1ULL << 63;
  for (unsigned i = 0; i < n; ++i) r = (r & 1) ? (r >> 1) ^ kPoly : r >> 1;
  return r;
}

// Fold constants, low lane first. A 16-byte block whose first 8 bytes
// are H and last 8 are L stands for H*x^64 + L; moving it F bits down
// the message multiplies it by x^F, i.e. H by x^(F+64) and L by x^F.
// A carry-less product of two reflected 64-bit operands lands one bit
// low in the reflected 128-bit lane, which is an extra factor of x, so
// the constants are x^(F+63) and x^(F-1) mod P.
constexpr std::uint64_t kFold512[2] = {xpow(575), xpow(511)};
constexpr std::uint64_t kFold128[2] = {xpow(191), xpow(127)};

#define SPIO_CLMUL_TARGET __attribute__((target("pclmul")))

SPIO_CLMUL_TARGET inline __m128i load128(const std::byte* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// acc * x^F mod P (congruent, still 128 bits) XOR the block F bits on.
SPIO_CLMUL_TARGET inline __m128i fold(__m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

// Carry-less tier (Intel, "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ Instruction"): four 128-bit accumulators each fold
// 512 bits ahead, so four independent multiply chains stay in flight.
// `n` is a multiple of 64, at least 128.
SPIO_CLMUL_TARGET std::uint64_t update_clmul(std::uint64_t crc,
                                             const std::byte* p,
                                             std::size_t n) {
  const __m128i k512 = load128(reinterpret_cast<const std::byte*>(kFold512));
  const __m128i k128 = load128(reinterpret_cast<const std::byte*>(kFold128));
  // The running register enters as an XOR into the first 8 bytes.
  __m128i x0 = _mm_xor_si128(load128(p),
                             _mm_cvtsi64_si128(static_cast<long long>(crc)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  for (std::size_t off = 64; off < n; off += 64) {
    x0 = fold(x0, k512, load128(p + off));
    x1 = fold(x1, k512, load128(p + off + 16));
    x2 = fold(x2, k512, load128(p + off + 32));
    x3 = fold(x3, k512, load128(p + off + 48));
  }
  x1 = fold(x0, k128, x1);
  x2 = fold(x1, k128, x2);
  x3 = fold(x2, k128, x3);
  // x3 is congruent to the whole (register-adjusted) input mod P, so its
  // CRC from a zero register is the input's CRC: the table reduces it.
  alignas(16) std::byte folded[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(folded), x3);
  return update_bytewise(0, folded, sizeof(folded));
}

// The carry-less tier runs unless SIMD is capped to scalar (`SPIO_SIMD`,
// `simd::ScopedLevelCap`) or the CPU lacks PCLMULQDQ.
bool clmul_active() {
  static const bool cpu = __builtin_cpu_supports("pclmul");
  return cpu && simd::active_level() >= simd::Level::kSSE2;
}

#undef SPIO_CLMUL_TARGET
#endif  // SPIO_CRC64_CLMUL

// Inputs of 128 bytes and more go through the carry-less tier in whole
// 64-byte blocks; the rest, and every input on the portable tier, goes
// through slicing-by-16.
std::uint64_t crc_update(std::uint64_t crc, const std::byte* p,
                         std::size_t n) {
#ifdef SPIO_CRC64_CLMUL
  if (n >= 128 && clmul_active()) {
    const std::size_t body = n & ~std::size_t{63};
    crc = update_clmul(crc, p, body);
    p += body;
    n -= body;
  }
#endif
  return update_raw(crc, p, n);
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};

}  // namespace

void Crc64::update(std::span<const std::byte> data) {
  crc_ = crc_update(crc_, data.data(), data.size());
}

std::uint64_t crc64(std::span<const std::byte> data) {
  return ~crc_update(~0ULL, data.data(), data.size());
}

std::uint64_t crc64_bytewise(std::span<const std::byte> data) {
  return ~update_bytewise(~0ULL, data.data(), data.size());
}

std::uint64_t crc64_write_file(const std::filesystem::path& path,
                               std::span<const std::byte> bytes) {
  FileWriter f(path);
  Crc64 crc;
  for (std::size_t off = 0; off < bytes.size(); off += kIoChunk) {
    const std::span<const std::byte> chunk =
        bytes.subspan(off, std::min(kIoChunk, bytes.size() - off));
    // Checksum the chunk while it is hot in cache from the write.
    f.write(chunk);
    crc.update(chunk);
  }
  f.close();
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
