#include "baselines/rank_order.hpp"

#include <numeric>

#include "obs/trace.hpp"
#include "util/serialize.hpp"

namespace spio::baselines {

namespace {
constexpr std::uint32_t kManifestMagic = 0x4F4B5253;  // "SRKO"
constexpr const char* kManifestName = "rank_order_manifest.bin";
constexpr int kTagData = 202;

std::string group_file_name(int group) {
  return "Group_" + std::to_string(group) + ".bin";
}
}  // namespace

void rank_order_write(simmpi::Comm& comm, const ParticleBuffer& local,
                      const std::filesystem::path& dir, int group_size) {
  obs::ScopedSpan span("baseline.rank_order.write", "baseline");
  SPIO_CHECK(group_size >= 1, ConfigError, "group size must be >= 1");
  if (comm.rank() == 0) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    SPIO_CHECK(!ec, IoError,
               "cannot create '" << dir.string() << "': " << ec.message());
  }
  comm.barrier();

  const int group = comm.rank() / group_size;
  const int leader = group * group_size;
  const int groups = (comm.size() + group_size - 1) / group_size;

  // Every member sends, even an empty payload, so the leader needs no
  // count message: it appends one payload per member in member order.
  comm.send_bytes(leader, kTagData,
                  std::vector<std::byte>(local.bytes().begin(),
                                         local.bytes().end()));

  std::uint64_t group_count = 0;
  if (comm.rank() == leader) {
    const int members = std::min(group_size, comm.size() - leader);
    ParticleBuffer agg(local.schema());
    for (int m = 0; m < members; ++m)
      agg.append_bytes(comm.recv_message(leader + m, kTagData).payload);
    group_count = agg.size();
    write_file(dir / group_file_name(group), agg.bytes());
  }

  const auto gathered = comm.gather<std::uint64_t>(
      comm.rank() == leader ? group_count : 0, 0);
  if (comm.rank() == 0) {
    std::vector<std::uint64_t> per_group(static_cast<std::size_t>(groups));
    for (int g = 0; g < groups; ++g)
      per_group[static_cast<std::size_t>(g)] =
          gathered[static_cast<std::size_t>(g * group_size)];
    BinaryWriter w;
    w.write<std::uint32_t>(kManifestMagic);
    local.schema().serialize(w);
    w.write_vector(per_group);
    write_file(dir / kManifestName, w.bytes());
  }
  comm.barrier();
}

RankOrderDataset RankOrderDataset::open(const std::filesystem::path& dir) {
  const auto bytes = read_file(dir / kManifestName);
  BinaryReader r(bytes);
  SPIO_CHECK(r.read<std::uint32_t>() == kManifestMagic, FormatError,
             "not a rank-order manifest");
  Schema schema = Schema::deserialize(r);
  auto counts = r.read_vector<std::uint64_t>();
  SPIO_CHECK(r.at_end(), FormatError, "trailing bytes in manifest");
  return RankOrderDataset(dir, std::move(schema), std::move(counts));
}

std::uint64_t RankOrderDataset::total_particles() const {
  return std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
}

ParticleBuffer RankOrderDataset::read_group_file(int group,
                                                 ReadStats* stats) const {
  SPIO_EXPECTS(group >= 0 && group < file_count());
  const auto path = dir_ / group_file_name(group);
  const std::uint64_t expect =
      counts_[static_cast<std::size_t>(group)] * schema_.record_size();
  SPIO_CHECK(file_size_bytes(path) == expect, FormatError,
             "group file " << group << " truncated");
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
