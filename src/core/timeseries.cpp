#include "core/timeseries.hpp"

#include <algorithm>

#include "util/serialize.hpp"

namespace spio {

namespace {
constexpr std::uint32_t kIndexMagic = 0x53455254;  // "TRES"
constexpr std::uint32_t kIndexVersion = 1;

std::vector<int> parse_index(std::span<const std::byte> bytes) {
  BinaryReader r(bytes);
  SPIO_CHECK(r.read<std::uint32_t>() == kIndexMagic, FormatError,
             "not a spio time-series index");
  const auto version = r.read<std::uint32_t>();
  SPIO_CHECK(version == kIndexVersion, FormatError,
             "unsupported series index version " << version);
  auto steps = r.read_vector<std::int32_t>();
  SPIO_CHECK(r.at_end(), FormatError, "trailing bytes in series index");
  std::vector<int> out(steps.begin(), steps.end());
  SPIO_CHECK(std::is_sorted(out.begin(), out.end()) &&
                 std::adjacent_find(out.begin(), out.end()) == out.end(),
             FormatError, "series index steps not sorted/unique");
  return out;
}

void save_index(const std::filesystem::path& base,
                const std::vector<int>& steps) {
  BinaryWriter w;
  w.write<std::uint32_t>(kIndexMagic);
  w.write<std::uint32_t>(kIndexVersion);
  std::vector<std::int32_t> s32(steps.begin(), steps.end());
  w.write_vector(s32);
  write_file(base / TimeSeries::kIndexName, w.bytes());
}

}  // namespace

std::filesystem::path TimeSeries::step_dir(const std::filesystem::path& base,
                                           int step) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "step_%06d", step);
  return base / buf;
}

WriteStats TimeSeries::write_step(simmpi::Comm& comm,
                                  const PatchDecomposition& decomp,
                                  const ParticleBuffer& local,
                                  const std::filesystem::path& base,
                                  int step, WriterConfig config) {
  SPIO_CHECK(step >= 0, ConfigError, "step numbers must be non-negative");
  if (comm.rank() == 0) {
    std::error_code ec;
    std::filesystem::create_directories(base, ec);
    SPIO_CHECK(!ec, IoError,
               "cannot create '" << base.string() << "': " << ec.message());
  }
  comm.barrier();

  config.dir = step_dir(base, step);
  const WriteStats stats = write_dataset(comm, decomp, local, config);

  // Rank 0 updates the index after the step's data is durable. The update
  // is a read-modify-write of a rank-0-owned file, so no locking needed.
  if (comm.rank() == 0) {
    std::vector<int> steps;
    if (std::filesystem::exists(base / kIndexName)) {
      steps = parse_index(read_file(base / kIndexName));
    }
    if (!std::binary_search(steps.begin(), steps.end(), step)) {
      steps.insert(std::upper_bound(steps.begin(), steps.end(), step), step);
      save_index(base, steps);
    }
  }
  comm.barrier();
  return stats;
}

TimeSeries TimeSeries::open(const std::filesystem::path& base) {
  return TimeSeries(parse_index(read_file(base / kIndexName)));
}

}  // namespace spio
