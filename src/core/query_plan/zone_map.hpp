#pragma once

/// \file zone_map.hpp
/// Per-file, per-LOD-level field statistics ("zone maps"): the min/max of
/// every field component over each LOD level of a data file, computed by
/// the aggregators right after the LOD shuffle and persisted as the
/// `zones.spio` sidecar (docs/FORMAT.md). The planner uses them to skip
/// whole files, and LOD tails within files, that provably contain no
/// records matching a range filter or query box.
///
/// Zone z of an N-record file covers records
///   [zone_begin(lod, z, N), zone_begin(lod, z + 1, N))
/// — the single-reader LOD prefix law applied file-locally, which every
/// reader can recompute from the metadata alone. `zone_file_count` is
/// `lod_level_count(lod, 1, N)`.
///
/// A zone component that contains any NaN is stored as [-inf, +inf] so it
/// conservatively matches every interval; pruning therefore never drops a
/// record a filter kernel would pass.

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "core/metadata.hpp"

namespace spio {

/// Number of zones of an `n`-record file (non-empty LOD levels for one
/// reader). 0 when n == 0.
std::uint32_t zone_file_count(const LodParams& lod, std::uint64_t n);

/// First record of zone `z` of an `n`-record file; `zone_begin(lod,
/// zone_file_count(lod, n), n) == n`.
std::uint64_t zone_begin(const LodParams& lod, std::uint32_t z,
                         std::uint64_t n);

/// One file's zone table: `zones[z * range_count + c]` is the closed
/// min/max of component `c` over zone `z` (zone-major).
struct FileZones {
  std::uint32_t aggregator_rank = 0;
  std::uint64_t particle_count = 0;
  std::vector<FieldRange> zones;

  bool operator==(const FileZones&) const = default;
};

/// The `zones.spio` sidecar: zone tables for every data file of one
/// dataset, sorted by aggregator rank. The byte stream carries a CRC-64
/// trailer; `load` refuses torn or corrupted sidecars with `FormatError`
/// so the planner can fall back to zone-free planning.
struct ZoneMapTable {
  static constexpr std::uint32_t kMagic = 0x4D5A5053;  // "SPZM"
  static constexpr std::uint32_t kVersion = 1;
  static constexpr const char* kFileName = "zones.spio";

  std::size_t range_count = 0;
  LodParams lod;
  std::vector<FileZones> files;  // sorted by aggregator_rank

  bool operator==(const ZoneMapTable&) const = default;

  /// Zone table for the file written by `aggregator_rank`, or nullptr.
  const FileZones* find(std::uint32_t aggregator_rank) const;

  std::vector<std::byte> serialize() const;
  static ZoneMapTable deserialize(std::span<const std::byte> bytes);

  void save(const std::filesystem::path& dir) const;
  static ZoneMapTable load(const std::filesystem::path& dir);
  static bool present(const std::filesystem::path& dir);
};

/// Fold `records` (whole records of `schema`, starting at record `first`
/// of an `n`-record LOD-ordered file) into the file's zone-major min/max
/// table of every field component; an empty `zones` is sized first.
/// Feeding a file in order in chunks gives the table of one call.
void add_zone_maps(std::vector<FieldRange>& zones,
                   std::span<const std::byte> records, const Schema& schema,
                   const LodParams& lod, std::uint64_t first,
                   std::uint64_t n);

/// The zone table of a whole LOD-ordered buffer. Empty buffer -> empty
/// table.
std::vector<FieldRange> compute_zone_maps(const ParticleBuffer& buf,
                                          const LodParams& lod);

/// Fold `records` (whole records of `schema`, in file order) into the
/// file-level field ranges (§3.5 metadata extension): an empty `ranges`
/// is seeded from the first record; after it, `std::min`/`std::max` skip
/// NaNs.
void add_field_ranges(std::vector<FieldRange>& ranges,
                      std::span<const std::byte> records,
                      const Schema& schema);

/// Union of all zones per component — the file-level field ranges. Unlike
/// `add_field_ranges` this is NaN-aware: poisoned zones widen the
/// union to [-inf, +inf] instead of dropping the values.
std::vector<FieldRange> zone_union(const std::vector<FieldRange>& zones,
                                   std::size_t range_count);

/// True when the sidecar structurally matches the dataset metadata: same
/// range count and LOD parameters, and a zone table with the right
/// particle count for every file. A false return means the sidecar
/// belongs to a different (e.g. partially rewritten) dataset and must not
/// be used for pruning.
bool zones_consistent(const ZoneMapTable& table, const DatasetMetadata& meta);

}  // namespace spio
