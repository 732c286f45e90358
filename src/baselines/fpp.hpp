#pragma once

/// \file fpp.hpp
/// File-per-process baseline: the traditional checkpoint format ([7] in
/// the paper). Every rank dumps its particles to its own file; a tiny
/// manifest records per-rank counts. There is no spatial metadata and no
/// LOD ordering, so any spatial query must read and filter every file.

#include <filesystem>

#include "core/reader.hpp"
#include "simmpi/comm.hpp"
#include "workload/particle_buffer.hpp"

namespace spio::baselines {

/// Collective: every rank writes `rank_<r>.bin`; rank 0 writes
/// `fpp_manifest.bin` (schema + per-rank counts).
void fpp_write(simmpi::Comm& comm, const ParticleBuffer& local,
               const std::filesystem::path& dir);

/// Read-side view of an FPP dataset.
class FppDataset {
 public:
  static FppDataset open(const std::filesystem::path& dir);

  int file_count() const { return static_cast<int>(counts_.size()); }
  std::uint64_t total_particles() const;
  const Schema& schema() const { return schema_; }

  /// Read one rank file in full.
  ParticleBuffer read_rank_file(int rank, ReadStats* stats = nullptr) const;

 private:
  FppDataset(std::filesystem::path dir, Schema schema,
             std::vector<std::uint64_t> counts)
      : dir_(std::move(dir)),
        schema_(std::move(schema)),
        counts_(std::move(counts)) {}

  std::filesystem::path dir_;
  Schema schema_;
  std::vector<std::uint64_t> counts_;
};

}  // namespace spio::baselines
