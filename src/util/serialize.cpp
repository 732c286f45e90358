#include "util/serialize.hpp"

#include <cstdio>
#include <memory>
#include <utility>

namespace spio {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr open_checked(const std::filesystem::path& path, const char* mode) {
  FilePtr f(std::fopen(path.c_str(), mode));
  SPIO_CHECK(f != nullptr, IoError,
             "cannot open '" << path.string() << "' (mode " << mode << ")");
  return f;
}

}  // namespace

FileWriter::FileWriter(const std::filesystem::path& path, bool append)
    : path_(path), file_(std::fopen(path.c_str(), append ? "ab" : "wb")) {
  SPIO_CHECK(file_ != nullptr, IoError,
             "cannot open '" << path_.string() << "' for writing");
}

FileWriter::~FileWriter() {
  if (file_) std::fclose(file_);
}

void FileWriter::write(std::span<const std::byte> bytes) {
  SPIO_EXPECTS(file_ != nullptr);
  if (bytes.empty()) return;
  const std::size_t n = std::fwrite(bytes.data(), 1, bytes.size(), file_);
  SPIO_CHECK(n == bytes.size(), IoError,
             "short write to '" << path_.string() << "': " << n << " of "
                                << bytes.size() << " bytes");
}

void FileWriter::close() {
  SPIO_EXPECTS(file_ != nullptr);
  std::FILE* f = std::exchange(file_, nullptr);
  SPIO_CHECK(std::fclose(f) == 0, IoError,
             "short write to '" << path_.string()
                                << "': buffered bytes failed at close");
}

void write_file(const std::filesystem::path& path,
                std::span<const std::byte> bytes) {
  FileWriter f(path);
  f.write(bytes);
  f.close();
}

void append_file(const std::filesystem::path& path,
                 std::span<const std::byte> bytes) {
  FileWriter f(path, /*append=*/true);
  f.write(bytes);
  f.close();
}

std::vector<std::byte> read_file(const std::filesystem::path& path) {
  return read_file_range(path, 0, file_size_bytes(path));
}

std::vector<std::byte> read_file_range(const std::filesystem::path& path,
                                       std::uint64_t offset,
                                       std::uint64_t length) {
  std::vector<std::byte> out(static_cast<std::size_t>(length));
  read_file_range_into(path, offset, out);
  return out;
}

void read_file_range_into(const std::filesystem::path& path,
                          std::uint64_t offset, std::span<std::byte> out) {
  FilePtr f = open_checked(path, "rb");
  SPIO_CHECK(std::fseek(f.get(), static_cast<long>(offset), SEEK_SET) == 0,
             IoError, "seek to " << offset << " failed in '" << path.string()
                                 << "'");
  if (out.empty()) return;
  const std::size_t n = std::fread(out.data(), 1, out.size(), f.get());
  SPIO_CHECK(n == out.size(), FormatError,
             "'" << path.string() << "' truncated: wanted " << out.size()
                 << " bytes at offset " << offset << ", got " << n);
}

std::uint64_t file_size_bytes(const std::filesystem::path& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  SPIO_CHECK(!ec, IoError,
             "cannot stat '" << path.string() << "': " << ec.message());
  return size;
}

}  // namespace spio
