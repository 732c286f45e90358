#include "baselines/shared_file.hpp"

#include <cstdio>
#include <numeric>

#include "obs/trace.hpp"
#include "util/serialize.hpp"

namespace spio::baselines {

namespace {
constexpr std::uint32_t kHeaderMagic = 0x44485353;  // "SSHD"
constexpr const char* kDataName = "shared.bin";
constexpr const char* kHeaderName = "shared_header.bin";

/// Positional write into an existing file without touching other ranks'
/// regions (each rank opens its own handle, as MPI-IO would).
void write_at(const std::filesystem::path& path, std::uint64_t offset,
              std::span<const std::byte> bytes) {
  if (bytes.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  SPIO_CHECK(f != nullptr, IoError,
             "cannot open shared file '" << path.string() << "'");
  bool ok = std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0;
  ok = ok && std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  SPIO_CHECK(ok, IoError, "positional write failed at offset " << offset);
}
}  // namespace

void shared_write(simmpi::Comm& comm, const ParticleBuffer& local,
                  const std::filesystem::path& dir) {
  obs::ScopedSpan span("baseline.shared.write", "baseline");
  // Offset = bytes of the lower ranks, as MPI_Exscan would give; one
  // allgather yields that and the file's total.
  const auto sizes = comm.allgather<std::uint64_t>(local.byte_size());
  const auto mine = sizes.begin() + comm.rank();
  const std::uint64_t offset =
      std::accumulate(sizes.begin(), mine, std::uint64_t{0});
  const std::uint64_t total_bytes =
      std::accumulate(mine, sizes.end(), offset);

  if (comm.rank() == 0) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    SPIO_CHECK(!ec, IoError,
               "cannot create '" << dir.string() << "': " << ec.message());
    // Preallocate the shared file so positional writes land in place.
    write_file(dir / kDataName, std::vector<std::byte>(total_bytes));
  }
  comm.barrier();

  write_at(dir / kDataName, offset, local.bytes());

  const auto counts = comm.gather<std::uint64_t>(local.size(), 0);
  if (comm.rank() == 0) {
    BinaryWriter w;
    w.write<std::uint32_t>(kHeaderMagic);
    local.schema().serialize(w);
    w.write_vector(counts);
    write_file(dir / kHeaderName, w.bytes());
  }
  comm.barrier();
}

SharedDataset SharedDataset::open(const std::filesystem::path& dir) {
  const auto bytes = read_file(dir / kHeaderName);
  BinaryReader r(bytes);
  SPIO_CHECK(r.read<std::uint32_t>() == kHeaderMagic, FormatError,
             "not a shared-file header");
  Schema schema = Schema::deserialize(r);
  auto counts = r.read_vector<std::uint64_t>();
  SPIO_CHECK(r.at_end(), FormatError, "trailing bytes in shared-file header");
  SharedDataset ds(dir, std::move(schema), std::move(counts));
  const std::uint64_t expect =
      ds.total_particles() * ds.schema_.record_size();
  SPIO_CHECK(file_size_bytes(dir / kDataName) == expect, FormatError,
             "shared data file truncated");
  return ds;
}

std::uint64_t SharedDataset::total_particles() const {
  return std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
}

ParticleBuffer SharedDataset::read_rank_slice(int rank,
                                              ReadStats* stats) const {
  SPIO_EXPECTS(rank >= 0 && rank < writer_count());
  std::uint64_t before = 0;
  for (int r = 0; r < rank; ++r) before += counts_[static_cast<std::size_t>(r)];
  const std::uint64_t rec = schema_.record_size();
  ParticleBuffer buf(schema_);
  buf.adopt_bytes(read_file_range(
      dir_ / kDataName, before * rec,
      counts_[static_cast<std::size_t>(rank)] * rec));
  if (stats) {
    stats->files_opened += 1;
    stats->bytes_read += buf.byte_size();
    stats->particles_scanned += buf.size();
  }
  return buf;
}

}  // namespace spio::baselines
