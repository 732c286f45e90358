#pragma once

/// \file serialize.hpp
/// Bounds-checked binary (de)serialization used by the metadata and data
/// file formats and by the message-passing layer's byte payloads.
///
/// The on-disk format is little-endian; this implementation targets
/// little-endian hosts (checked at startup in the file readers) which
/// covers every platform the paper's systems run on (BG/Q runs PowerPC in
/// little-endian-compatible I/O via explicit swaps in the original code;
/// our reproduction simply pins little-endian).

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace spio {

/// Appends plain values to a growing byte buffer.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  /// Append the raw object representation of a trivially-copyable value.
  template <typename T>
  void write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    // resize + memcpy, not a pointer-range insert: GCC 12 at -O3 cannot
    // see through the inlined insert and warns -Wstringop-overflow.
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    std::memcpy(buf_.data() + at, &value, sizeof(T));
  }

  /// Append a contiguous range of trivially-copyable values (no length
  /// prefix; pair with `write_span` on the reader side or use
  /// `write_vector`).
  template <typename T>
  void write_span(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::byte*>(values.data());
    buf_.insert(buf_.end(), p, p + values.size_bytes());
  }

  /// Append a `u64` length prefix followed by the elements.
  template <typename T>
  void write_vector(const std::vector<T>& values) {
    write<std::uint64_t>(values.size());
    write_span<T>(values);
  }

  /// Append a `u64` length prefix followed by the characters.
  void write_string(const std::string& s) {
    write<std::uint64_t>(s.size());
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buf_.insert(buf_.end(), p, p + s.size());
  }

  const std::vector<std::byte>& bytes() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::byte> buf_;
};

/// Reads plain values from a byte span with bounds checking; a truncated
/// buffer raises `FormatError` rather than reading out of bounds.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// Read `count` elements into a vector (no length prefix).
  template <typename T>
  std::vector<T> read_span(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    // Divide, not multiply: `count * sizeof(T)` wraps for a forged count.
    SPIO_CHECK(count <= remaining() / sizeof(T), FormatError,
               "truncated payload: need " << count << " elements of "
                                          << sizeof(T) << " bytes, have "
                                          << remaining() << " bytes");
    std::vector<T> out(count);
    // An empty span has null data(): skip the zero-size memcpy.
    if (count > 0)
      std::memcpy(out.data(), bytes_.data() + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return out;
  }

  /// Read a `u64` length prefix followed by the elements.
  template <typename T>
  std::vector<T> read_vector() {
    const auto n = read<std::uint64_t>();
    SPIO_CHECK(n <= remaining() / sizeof(T), FormatError,
               "length prefix " << n << " exceeds remaining payload");
    return read_span<T>(static_cast<std::size_t>(n));
  }

  std::string read_string() {
    const auto n = read<std::uint64_t>();
    SPIO_CHECK(n <= remaining(), FormatError,
               "string length " << n << " exceeds remaining payload");
    std::string s(n, '\0');
    std::memcpy(s.data(), bytes_.data() + pos_, n);
    pos_ += n;
    return s;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool at_end() const { return pos_ == bytes_.size(); }

 private:
  void require(std::size_t n) const {
    SPIO_CHECK(n <= remaining(), FormatError,
               "truncated payload: need " << n << " bytes, have "
                                          << remaining());
  }

  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

/// A file open for writing whose every failure surfaces as `IoError`
/// ("short write to '<path>'"): a `write` the device refuses throws at
/// once, and `close` writes out what stdio still buffers and checks that
/// too. Destroying a writer that was not closed closes it unchecked, for
/// paths that are already throwing.
class FileWriter {
 public:
  /// Opens `path`, replacing it, or appending to it with `append`.
  explicit FileWriter(const std::filesystem::path& path, bool append = false);
  ~FileWriter();
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  void write(std::span<const std::byte> bytes);
  void close();

 private:
  std::filesystem::path path_;
  std::FILE* file_;  // null once closed
};

/// Write `bytes` to `path`, replacing any existing file. Throws `IoError`.
void write_file(const std::filesystem::path& path,
                std::span<const std::byte> bytes);

/// Append `bytes` to `path`, creating it if needed. Throws `IoError`.
void append_file(const std::filesystem::path& path,
                 std::span<const std::byte> bytes);

/// Read the whole file. Throws `IoError` if it cannot be opened.
std::vector<std::byte> read_file(const std::filesystem::path& path);

/// Read `[offset, offset + length)` from the file. Throws `IoError` on open
/// failure and `FormatError` if the file is shorter than requested.
std::vector<std::byte> read_file_range(const std::filesystem::path& path,
                                       std::uint64_t offset,
                                       std::uint64_t length);

/// Read `[offset, offset + out.size())` into caller-provided storage —
/// the allocation-free twin of `read_file_range` for callers that manage
/// their own (possibly uninitialized) buffers. Same error behaviour.
void read_file_range_into(const std::filesystem::path& path,
                          std::uint64_t offset, std::span<std::byte> out);

/// Size of the file in bytes. Throws `IoError` if it does not exist.
std::uint64_t file_size_bytes(const std::filesystem::path& path);

}  // namespace spio
