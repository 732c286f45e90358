#pragma once

/// \file writer.hpp
/// The spatially-aware two-phase write pipeline (paper §3):
///
///   1. set up the aggregation grid          (§3.1)
///   2. select aggregators                   (§3.2)
///   3. exchange metadata (particle counts)  (§3.3)
///   4. size the aggregation from the counts (§3.3)
///   5. exchange particles                   (§3.3)
///   6. build the LOD order of the particles (§3.4)
///   7. write one data file per partition, gathering it in LOD order
///      chunk by chunk from the received payloads and zone-mapping and
///      checksumming each chunk while it is hot; a writer thread writes
///      chunk k while the rank thread gathers chunk k + 1 (§3.4)
///   8. gather bounds and write the spatial metadata file (§3.5)
///
/// The adaptive variant (§6) prepends an all-to-all extent exchange and
/// builds the grid over the occupied sub-region only.

#include <filesystem>

#include "core/aggregation_plan.hpp"
#include "core/lod.hpp"
#include "core/metadata.hpp"
#include "faultsim/reliable.hpp"
#include "simmpi/comm.hpp"
#include "workload/decomposition.hpp"
#include "workload/particle_buffer.hpp"

namespace spio::faultsim {
class FaultInjector;
}  // namespace spio::faultsim

namespace spio::obs {
class MetricsRegistry;
}  // namespace spio::obs

namespace spio {

/// Everything a write needs besides the data. The partition factor is the
/// user-facing tuning knob; the paper's §5 sweeps it per machine.
struct WriterConfig {
  /// Dataset directory; created if absent. One data file per non-empty
  /// aggregation partition plus `meta.spio` are written into it.
  std::filesystem::path dir;

  /// Aggregation partition factor (Px, Py, Pz).
  PartitionFactor factor{1, 1, 1};

  /// Level-of-detail layout parameters, recorded in the metadata.
  LodParams lod{};
  LodHeuristic heuristic = LodHeuristic::kRandom;

  /// Use the adaptive aggregation grid (§6). Adds an all-to-all extent
  /// exchange and covers only the occupied sub-region.
  bool adaptive = false;

  /// With `adaptive`: use the density-refined k-d partitioning (§7
  /// extension) instead of the uniform adaptive grid — balances particle
  /// load per file under clustered distributions.
  bool adaptive_refine = false;

  /// Write the spatial metadata file with bounding boxes. Disabled only to
  /// produce the paper's Fig. 7 "without spatial metadata" baseline.
  bool write_spatial_metadata = true;

  /// Record per-file min/max of every field component in the metadata
  /// (§3.5 extension), enabling attribute range queries that skip files.
  bool write_field_ranges = true;

  /// Write the `zones.spio` sidecar: per-file, per-LOD-level min/max of
  /// every field component (query_plan/zone_map.hpp), computed in the
  /// data file's write pass at near-zero extra cost. Lets the query planner
  /// skip whole files and LOD tails that provably contain no matches.
  bool write_zone_maps = true;

  /// Aggregator placement policy (ablation; the paper uses uniform).
  AggregatorPlacement placement = AggregatorPlacement::kUniform;

  /// Base seed for the deterministic LOD shuffles (per-partition streams
  /// are derived from it).
  std::uint64_t shuffle_seed = 0x5910f00d;

  /// Force the per-particle binning path even when the aligned fast path
  /// applies; used by tests to check both paths agree.
  bool force_general_exchange = false;

  /// Upper bound on one aggregator's assembled buffer, in bytes
  /// (0 = unlimited). §3.1 notes that all-to-one aggregation "is not
  /// feasible due to limitations in the available memory on a single
  /// core"; this guard turns that silent OOM into a diagnosable
  /// `ConfigError` naming the partition and suggesting a smaller factor.
  std::uint64_t max_aggregation_bytes = 0;

  /// Bracket the write with `write.journal` so an interrupted job leaves
  /// a detectable (and repairable) state; see core/journal.hpp.
  bool journal = true;

  /// Record per-file CRC-64 checksums in the `checksums.spio` sidecar,
  /// letting readers detect silent data corruption.
  bool write_checksums = true;

  /// Fault injector for chaos testing (not owned; null in production).
  /// When set, the writer announces phase entries to it, routes both
  /// exchanges through the acknowledged retry protocol, and validates
  /// every data-file write with read-back + bounded rewrite.
  faultsim::FaultInjector* faults = nullptr;

  /// Retransmission policy for the reliable exchanges (used only when
  /// `faults` is set).
  faultsim::RetryPolicy retry{};

  /// Emit the Darshan-style `trace.spio.json` run record next to the
  /// dataset (config, per-rank phase seconds, counter dump). Effective
  /// only while the observability layer is collecting
  /// (`obs::run_records_enabled()`), so default runs leave the dataset
  /// directory byte-identical to earlier releases.
  bool run_record = true;
};

/// Per-rank timing and volume statistics for one write. Times are wall
/// clock on this rank; reduce across ranks with `WriteStats::max_over`.
struct WriteStats {
  double setup_seconds = 0;              // plan/grid construction (+ extent
                                         // all-to-all when adaptive)
  double meta_exchange_seconds = 0;      // step 3
  double particle_exchange_seconds = 0;  // steps 4–5
  double reorder_seconds = 0;            // step 6
  double file_io_seconds = 0;            // step 7
  double metadata_io_seconds = 0;        // step 8

  std::uint64_t particles_sent = 0;  // shipped to a *different* rank
  std::uint64_t bytes_sent = 0;
  std::uint64_t particles_written = 0;
  std::uint64_t bytes_written = 0;
  int files_written = 0;
  int partition_count = 0;
  bool was_aggregator = false;
  bool used_aligned_fast_path = false;

  /// Total wall time of the phases above.
  double total_seconds() const {
    return setup_seconds + meta_exchange_seconds + particle_exchange_seconds +
           reorder_seconds + file_io_seconds + metadata_io_seconds;
  }

  /// Aggregation-phase time (everything before file writes), the
  /// "Data aggregation" share of the paper's Fig. 6 breakdown.
  double aggregation_seconds() const {
    return setup_seconds + meta_exchange_seconds + particle_exchange_seconds +
           reorder_seconds;
  }

  /// Element-wise max of times, sum of volumes; the job-level view.
  static WriteStats max_over(const WriteStats& a, const WriteStats& b);
};

/// Collective: write `local` (this rank's particles, which must carry the
/// schema shared by all ranks) as one spio dataset. Returns this rank's
/// statistics. Throws `ConfigError` for invalid configurations and
/// `IoError` on filesystem failure; failures on any rank abort the job.
WriteStats write_dataset(simmpi::Comm& comm, const PatchDecomposition& decomp,
                         const ParticleBuffer& local,
                         const WriterConfig& config);

namespace writer_detail {

/// Result of the binning pass: only non-empty bins appear, partition ids
/// ascending, and each payload keeps its particles in original input
/// order (the ordering the file format's reproducibility rests on).
struct BinnedParticles {
  std::vector<int> partitions;                 // ascending, non-empty only
  std::vector<std::uint64_t> counts;           // particles per bin
  std::vector<std::vector<std::byte>> payloads;  // raw records per bin

  std::size_t bin_count() const { return partitions.size(); }

  /// Index of `partition` among the bins, or -1 if it received nothing.
  int index_of(int partition) const;
};

/// Partition the local particles by target aggregation partition with a
/// two-pass histogram + contiguous scatter (one partition lookup and one
/// record memcpy per particle). Aligned fast path: the whole buffer goes
/// to one partition, no per-particle scan. Exposed for the perf harness
/// and differential tests; `write_dataset` is the production entry point.
BinnedParticles bin_particles(const ParticleBuffer& local,
                              const AggregationPlan& plan,
                              bool use_fast_path);

/// Pre-optimization reference binning (ordered map + per-particle
/// append). Kept as the differential-testing oracle for `bin_particles`.
BinnedParticles bin_particles_reference(const ParticleBuffer& local,
                                        const AggregationPlan& plan,
                                        bool use_fast_path);

}  // namespace writer_detail

}  // namespace spio
