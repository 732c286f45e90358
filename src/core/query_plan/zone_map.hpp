#pragma once

/// \file zone_map.hpp
/// Per-file, per-LOD-level field statistics ("zone maps"): the min/max of
/// every field component over each LOD level of a data file, computed by
/// the aggregators right after the LOD shuffle and persisted as the
/// `zones.spio` sidecar (docs/FORMAT.md). The planner uses them to skip
/// whole files, and LOD tails within files, that provably contain no
/// records matching a range filter or query box.
///
/// Zone z of an N-record file covers records [b[z], b[z + 1]) of
/// `b = zone_bounds(lod, N)` — the single-reader LOD prefix law applied
/// file-locally, which every reader can recompute from the metadata
/// alone. Every zone function here takes the same walk, `zone_end`.
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

/// The end of zone `z` of an `n`-record file that starts at `begin`
/// (< n): one step of `lod_cumulative`'s rule, which adds level z's
/// `lod_level_size(lod, 1, z)` records until that reaches the rest of the
/// file.
std::uint64_t zone_end(const LodParams& lod, std::size_t z,
                       std::uint64_t begin, std::uint64_t n);

/// Number of zones of an `n`-record file (non-empty LOD levels for one
/// reader, `lod_level_count(lod, 1, n)`). 0 when n == 0.
std::uint32_t zone_file_count(const LodParams& lod, std::uint64_t n);

/// The zone starts of an `n`-record file and `n` itself: Z + 1 ascending
/// entries for Z = `zone_file_count(lod, n)`, entry z equal to
/// `lod_cumulative(lod, 1, z, n)`. `{0}` when n == 0.
std::vector<std::uint64_t> zone_bounds(const LodParams& lod,
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
/// of a LOD-ordered file whose zones start at `bounds`, see
/// `zone_bounds`) into the file's zone-major min/max table of every field
/// component; an empty `zones` is sized first. Feeding a file in order in
/// chunks gives the table of one call.
///
/// With AVX2 active (`simd::active_level()`) each chunk is split at zone
/// boundaries and each segment is reduced in registers, 4-lane loads
/// over every run of at least four contiguous f64 components and scalar
/// accumulators for the rest, then folded into the table once. Below
/// AVX2 this is `add_zone_maps_reference`; both give the same bytes.
void add_zone_maps(std::vector<FieldRange>& zones,
                   std::span<const std::byte> records, const Schema& schema,
                   std::span<const std::uint64_t> bounds,
                   std::uint64_t first);

/// The record-major oracle of `add_zone_maps`: each record updates all of
/// its zone's component ranges in the table.
void add_zone_maps_reference(std::vector<FieldRange>& zones,
                             std::span<const std::byte> records,
                             const Schema& schema,
                             std::span<const std::uint64_t> bounds,
                             std::uint64_t first);

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
