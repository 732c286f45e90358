#include "baselines/fpp.hpp"

#include <numeric>

#include "obs/trace.hpp"
#include "util/serialize.hpp"

namespace spio::baselines {

namespace {
constexpr std::uint32_t kManifestMagic = 0x50504653;  // "SFPP"
constexpr const char* kManifestName = "fpp_manifest.bin";

std::string rank_file_name(int rank) {
  return "rank_" + std::to_string(rank) + ".bin";
}
}  // namespace

void fpp_write(simmpi::Comm& comm, const ParticleBuffer& local,
               const std::filesystem::path& dir) {
  obs::ScopedSpan span("baseline.fpp.write", "baseline");
  if (comm.rank() == 0) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    SPIO_CHECK(!ec, IoError,
               "cannot create '" << dir.string() << "': " << ec.message());
  }
  comm.barrier();

  write_file(dir / rank_file_name(comm.rank()), local.bytes());

  const auto counts = comm.gather<std::uint64_t>(local.size(), 0);
  if (comm.rank() == 0) {
    BinaryWriter w;
    w.write<std::uint32_t>(kManifestMagic);
    local.schema().serialize(w);
    w.write_vector(counts);
    write_file(dir / kManifestName, w.bytes());
  }
  comm.barrier();
}

FppDataset FppDataset::open(const std::filesystem::path& dir) {
  const auto bytes = read_file(dir / kManifestName);
  BinaryReader r(bytes);
  SPIO_CHECK(r.read<std::uint32_t>() == kManifestMagic, FormatError,
             "not an FPP manifest");
  Schema schema = Schema::deserialize(r);
  auto counts = r.read_vector<std::uint64_t>();
  SPIO_CHECK(r.at_end(), FormatError, "trailing bytes in FPP manifest");
  return FppDataset(dir, std::move(schema), std::move(counts));
}

std::uint64_t FppDataset::total_particles() const {
  return std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
}

ParticleBuffer FppDataset::read_rank_file(int rank, ReadStats* stats) const {
  SPIO_EXPECTS(rank >= 0 && rank < file_count());
  const auto path = dir_ / rank_file_name(rank);
  const std::uint64_t expect =
      counts_[static_cast<std::size_t>(rank)] * schema_.record_size();
  SPIO_CHECK(file_size_bytes(path) == expect, FormatError,
             "FPP rank file " << rank << " truncated");
  ParticleBuffer buf(schema_);
  buf.adopt_bytes(read_file(path));
  if (stats) {
    stats->files_opened += 1;
    stats->bytes_read += expect;
    stats->particles_scanned += buf.size();
  }
  return buf;
}

}  // namespace spio::baselines
