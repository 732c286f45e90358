#pragma once

/// \file checksum.hpp
/// CRC-64/XZ (reflected ECMA-182 polynomial) over byte spans. Used by the
/// writer's rewrite-and-revalidate recovery path and by the optional
/// `checksums.spio` sidecar that lets readers detect silent data-file
/// corruption (bit rot, torn writes that escaped the writer).
///
/// Two kernel tiers compute the same CRC. On x86-64 CPUs with PCLMULQDQ,
/// inputs of 128 bytes and more fold 64 bytes per step with carry-less
/// multiplies (four 128-bit accumulators), then reduce through the
/// tables. Everywhere else, and whenever `simd::active_level()` is
/// scalar (`SPIO_SIMD=off`, `simd::ScopedLevelCap`), the portable tier
/// is slicing-by-16 (sixteen independent table lookups per pair of
/// 64-bit words, XORed as a tree the CPU can overlap). `crc64_bytewise`
/// keeps the classic one-table form as the differential-testing oracle.
/// The streaming entry points (`Crc64`, `crc64_write_file`, `crc64_file`)
/// let the hot write path fold checksumming into the file pass instead
/// of re-scanning whole files.
///
/// Built into `spio_simd` (src/simd/checksum.cpp), because the tier
/// choice dispatches on `simd::active_level()`.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>

namespace spio {

/// Chunk size of the streamed write, checksum and read-back passes:
/// large enough to amortize stdio calls, small enough to stay in L2.
inline constexpr std::size_t kIoChunk = 1 << 20;

/// Incremental CRC-64/XZ. Feeding a buffer in any chunking yields the
/// same value as one `crc64` call over the concatenation.
class Crc64 {
 public:
  /// Fold `data` into the running checksum.
  void update(std::span<const std::byte> data);

  /// CRC-64/XZ of every byte fed so far (does not reset the state).
  std::uint64_t value() const { return ~crc_; }

  /// Restart as if freshly constructed.
  void reset() { crc_ = ~0ULL; }

 private:
  std::uint64_t crc_ = ~0ULL;
};

/// CRC-64/XZ of `data`. Matches the widely-used xz/liblzma parameters
/// (poly 0x42F0E1EBA9EA3693 reflected, init/xorout ~0), so values can be
/// cross-checked with external tooling.
std::uint64_t crc64(std::span<const std::byte> data);

/// Byte-at-a-time reference implementation of the same CRC. Slower than
/// `crc64`; exists so tests can cross-check both kernel tiers against it.
std::uint64_t crc64_bytewise(std::span<const std::byte> data);

/// Write `bytes` to `path` (replacing any existing file) while computing
/// their CRC-64 in the same pass over the buffer. Returns the checksum.
/// Throws `IoError` on open, write or close failure.
std::uint64_t crc64_write_file(const std::filesystem::path& path,
                               std::span<const std::byte> bytes);

/// CRC-64 of a file's contents, streamed in fixed-size chunks without
/// materializing the file in memory. Throws `IoError` if the file cannot
/// be opened or read.
std::uint64_t crc64_file(const std::filesystem::path& path);

}  // namespace spio
