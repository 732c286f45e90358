#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "core/query_plan/zone_map.hpp"
#include "core/writer.hpp"
#include "faultsim/fault_plan.hpp"
#include "simmpi/runtime.hpp"
#include "util/checksum.hpp"
#include "util/serialize.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

/// Byte freeze of the write path: a digest of every data file,
/// `meta.spio`, `zones.spio` and `checksums.spio` a write produces, across
/// LOD heuristics, rank counts, exchange paths and metadata options,
/// against digests recorded before the aggregator's one-pass write
/// (gather from the payloads, per-chunk zone maps and CRC). The fault-free
/// path and the validated write under a null fault injector must produce
/// the same bytes. If a digest changes, the file format changed: fix the
/// regression, or bump the format version and record new digests.

struct Layout {
  int ranks;
  Vec3i grid;
  PartitionFactor factor;
  /// Move every fifth particle one patch over along x, so aggregators
  /// receive from ranks outside their partition and the general exchange
  /// splices the self payload between other senders.
  bool drift;
};

const Layout kLayouts[] = {
    {1, {1, 1, 1}, {1, 1, 1}, false},
    {4, {4, 1, 1}, {2, 1, 1}, false},
    {8, {2, 2, 2}, {1, 2, 2}, true},
};

const char* heuristic_label(LodHeuristic h) {
  switch (h) {
    case LodHeuristic::kRandom:
      return "random";
    case LodHeuristic::kStride:
      return "stride";
    case LodHeuristic::kStratified:
      return "stratified";
  }
  return "?";
}

ParticleBuffer rank_particles(const PatchDecomposition& decomp,
                              const Layout& layout, int rank,
                              std::uint64_t per_rank) {
  ParticleBuffer buf = workload::uniform(
      Schema::uintah(), decomp.patch(rank), per_rank,
      stream_seed(77, static_cast<std::uint64_t>(rank)),
      static_cast<std::uint64_t>(rank) * per_rank);
  if (layout.drift) {
    const double width = decomp.patch(rank).size().x;
    const double lo = decomp.domain().lo.x;
    const double span = decomp.domain().size().x;
    for (std::size_t i = 0; i < buf.size(); i += 5) {
      Vec3d p = buf.position(i);
      p.x = lo + std::fmod(p.x - lo + width, span);
      buf.set_position(i, p);
    }
  }
  return buf;
}

/// Writes one dataset; `edit` may change each rank's particles first.
void write_case(const std::filesystem::path& dir, const Layout& layout,
                WriterConfig cfg, bool faults, std::uint64_t per_rank,
                const std::function<void(ParticleBuffer&)>& edit = {}) {
  const PatchDecomposition decomp(Box3({0, 0, 0}, {4, 4, 4}), layout.grid);
  faultsim::FaultInjector inj(faultsim::FaultPlan{}, layout.ranks);
  cfg.dir = dir;
  cfg.factor = layout.factor;
  if (faults) cfg.faults = &inj;
  simmpi::run(layout.ranks,
              simmpi::RunOptions{faults ? &inj : nullptr},
              [&](simmpi::Comm& comm) {
                ParticleBuffer local =
                    rank_particles(decomp, layout, comm.rank(), per_rank);
                if (edit) edit(local);
                write_dataset(comm, decomp, local, cfg);
              });
}

/// FNV-1a 64 of `bytes`. Not CRC-64: a file that ends in the CRC-64 of
/// its own body, as the sidecars do, has the same CRC-64 whatever the
/// body holds.
std::uint64_t digest(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::byte b : bytes)
    h = (h ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ULL;
  return h;
}

/// Digest of each pinned file, by name.
std::map<std::string, std::uint64_t> file_digests(
    const std::filesystem::path& dir) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("File_", 0) == 0 || name == "meta.spio" ||
        name == ZoneMapTable::kFileName || name == "checksums.spio")
      out[name] = digest(read_file(e.path()));
  }
  return out;
}

/// One digest over the names and per-file digests, in name order.
std::uint64_t combined(const std::map<std::string, std::uint64_t>& files) {
  BinaryWriter w;
  for (const auto& [name, d] : files) {
    w.write_string(name);
    w.write<std::uint64_t>(d);
  }
  return digest(w.bytes());
}

std::string describe(const std::map<std::string, std::uint64_t>& files) {
  std::ostringstream os;
  for (const auto& [name, d] : files)
    os << "  " << name << " " << std::hex << d << "\n";
  return os.str();
}

/// Writes the case with faults off and under a null injector; both must
/// match `want` (and so each other).
void expect_digest(const std::string& name, std::uint64_t want,
                   const std::function<void(const std::filesystem::path&,
                                            bool)>& write) {
  for (const bool faults : {false, true}) {
    TempDir dir("spio-golden-digest");
    write(dir.path(), faults);
    const auto files = file_digests(dir.path());
    const std::uint64_t got = combined(files);
    EXPECT_EQ(got, want) << name << (faults ? " (null injector)" : "")
                         << ": golden {\"" << name << "\", 0x" << std::hex
                         << got << "},\n"
                         << describe(files);
  }
}

const std::map<std::string, std::uint64_t> kSmallGolden = {
    {"random r1 ranges", 0xc327e3f8c3cfa7ba},
    {"random r1 zones ranges", 0xb1b453d922f71e79},
    {"random r1 zones", 0x2ea9afccf6f3e98e},
    {"random r1", 0x23081fd53349c08c},
    {"random r4 ranges", 0x225b035c93857663},
    {"random r4 zones ranges", 0x2f70a122c567f094},
    {"random r4 zones", 0x4ca33ea85150dd3a},
    {"random r4", 0x62f30faf429ff0c2},
    {"random r8 ranges", 0xb7e663f40c4b8d4b},
    {"random r8 zones ranges", 0x574f951149cfd00f},
    {"random r8 zones", 0xcf71513fc0da0d43},
    {"random r8", 0x6a05dba4ebcccea1},
    {"stratified r1 ranges", 0xece84ff29c252348},
    {"stratified r1 zones ranges", 0x40e401bfd3c9dc8c},
    {"stratified r1 zones", 0x97c2df0e6e7c335b},
    {"stratified r1", 0x2a42dc5845a57582},
    {"stratified r4 ranges", 0x6821e7f9d1d6062b},
    {"stratified r4 zones ranges", 0x420214179377f739},
    {"stratified r4 zones", 0xe729ad8ad6f4d7c0},
    {"stratified r4", 0xfdcc33f5be3b1b58},
    {"stratified r8 ranges", 0x3edc0aca4d19f197},
    {"stratified r8 zones ranges", 0x3aaa1dfa599884ce},
    {"stratified r8 zones", 0xa469fa55b49a765b},
    {"stratified r8", 0xb93f9d97931d881c},
    {"stride r1 ranges", 0xa20afbae4e2100fb},
    {"stride r1 zones ranges", 0xc08ee0b4f713e9cd},
    {"stride r1 zones", 0x142a6de0c8397323},
    {"stride r1", 0x9917d354876165c0},
    {"stride r4 ranges", 0x7df4abdd3ba492e8},
    {"stride r4 zones ranges", 0xa55e6f4ad4693c99},
    {"stride r4 zones", 0x43e95fcd6a2b7c81},
    {"stride r4", 0x930ee4f1b858750e},
    {"stride r8 ranges", 0xc40b08cd8e5b4478},
    {"stride r8 zones ranges", 0x87a77b4e3cefdd24},
    {"stride r8 zones", 0x6f55cf5fec68e87f},
    {"stride r8", 0xce2b4972ad4aa750},
};

TEST(WriteGoldenDigest, HeuristicsRanksFaultsAndMetadataOptions) {
  for (const LodHeuristic h : {LodHeuristic::kRandom, LodHeuristic::kStride,
                               LodHeuristic::kStratified}) {
    for (const Layout& layout : kLayouts) {
      for (const bool zones : {false, true}) {
        for (const bool ranges : {false, true}) {
          std::ostringstream name;
          name << heuristic_label(h) << " r" << layout.ranks
               << (zones ? " zones" : "") << (ranges ? " ranges" : "");
          expect_digest(name.str(), kSmallGolden.at(name.str()),
                        [&](const std::filesystem::path& dir, bool faults) {
                          WriterConfig cfg;
                          cfg.heuristic = h;
                          cfg.write_zone_maps = zones;
                          cfg.write_field_ranges = ranges;
                          write_case(dir, layout, cfg, faults, 700);
                        });
        }
      }
    }
  }
}

const std::map<std::string, std::uint64_t> kLargeGolden = {
    {"random ranges", 0x631280e4b9bc67b1},
    {"random zones ranges", 0x7b6c9a44472e3bf8},
    {"stratified ranges", 0x1373f5c32466fd9},
    {"stratified zones ranges", 0xd9716220cdb3d6bb},
    {"stride ranges", 0x87e9d16d6c3403b6},
    {"stride zones ranges", 0x47ecde9290f74ee8},
};

/// One file of more than two staging chunks, with NaNs in the records on
/// both sides of a chunk boundary and of a zone boundary.
TEST(WriteGoldenDigest, MultiChunkFileWithNaNsAtChunkAndZoneBoundaries) {
  const Layout& one = kLayouts[0];
  const Schema schema = Schema::uintah();
  const std::size_t rs = schema.record_size();
  const std::size_t chunk = kIoChunk / rs;
  const std::uint64_t n = 2 * chunk + chunk / 3;
  const std::vector<std::uint64_t> bounds = zone_bounds(LodParams{}, n);
  ASSERT_LT(bounds[8], chunk);
  ASSERT_GT(bounds[9], chunk);
  ASSERT_LT(bounds[9], 2 * chunk);
  const std::size_t id_off = schema.offset(schema.index_of("id"));
  const std::size_t density_off = schema.offset(schema.index_of("density"));
  const std::size_t stress_off = schema.offset(schema.index_of("stress"));
  const std::size_t type_off = schema.offset(schema.index_of("type"));
  // Output positions straddling the first chunk boundary and a zone
  // boundary, and the field each one poisons.
  const std::uint64_t zb = bounds[9];
  const std::pair<std::uint64_t, std::size_t> poison[] = {
      {chunk - 1, density_off},
      {chunk, stress_off + 4 * sizeof(double)},
      {zb - 1, type_off},
      {zb, density_off},
  };

  for (const LodHeuristic h : {LodHeuristic::kRandom, LodHeuristic::kStride,
                               LodHeuristic::kStratified}) {
    for (const bool zones : {false, true}) {
      WriterConfig cfg;
      cfg.heuristic = h;
      cfg.write_zone_maps = zones;
      // The LOD order depends on positions only, so a NaN-free write
      // tells which input record lands at each poisoned position.
      TempDir probe("spio-golden-probe");
      write_case(probe.path(), one, cfg, false, n);
      const std::vector<std::byte> clean =
          read_file(probe.path() / "File_0.bin");
      ASSERT_EQ(clean.size(), n * rs);
      const auto id_at = [&](const std::vector<std::byte>& file,
                             std::uint64_t pos) {
        double id;
        std::memcpy(&id, file.data() + pos * rs + id_off, sizeof id);
        return static_cast<std::size_t>(id);
      };
      const auto edit = [&](ParticleBuffer& local) {
        for (const auto& [pos, off] : poison) {
          std::byte* rec = local.record(id_at(clean, pos)).data();
          if (off == type_off) {
            const float nan = std::numeric_limits<float>::quiet_NaN();
            std::memcpy(rec + off, &nan, sizeof nan);
          } else {
            const double nan = std::numeric_limits<double>::quiet_NaN();
            std::memcpy(rec + off, &nan, sizeof nan);
          }
        }
      };

      std::ostringstream name;
      name << heuristic_label(h) << (zones ? " zones" : "") << " ranges";
      expect_digest(name.str(), kLargeGolden.at(name.str()),
                    [&](const std::filesystem::path& dir, bool faults) {
                      write_case(dir, one, cfg, faults, n, edit);
                      // The NaNs sit where they were aimed.
                      const auto file = read_file(dir / "File_0.bin");
                      for (const auto& [pos, off] : poison) {
                        EXPECT_EQ(id_at(file, pos), id_at(clean, pos));
                        double v;
                        if (off == type_off) {
                          float f;
                          std::memcpy(&f, file.data() + pos * rs + off,
                                      sizeof f);
                          v = f;
                        } else {
                          std::memcpy(&v, file.data() + pos * rs + off,
                                      sizeof v);
                        }
                        EXPECT_TRUE(std::isnan(v)) << "position " << pos;
                      }
                    });
    }
  }
}

}  // namespace
}  // namespace spio
