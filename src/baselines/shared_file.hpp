#pragma once

/// \file shared_file.hpp
/// Single-shared-file baseline: all ranks write their particles into one
/// file at rank-order offsets (the MPI-IO collective pattern of [8, 12,
/// 26]). The layout is rank-contiguous, not spatially coherent; reads of a
/// spatial region must scan the whole file.

#include <filesystem>

#include "core/reader.hpp"
#include "simmpi/comm.hpp"
#include "workload/particle_buffer.hpp"

namespace spio::baselines {

/// Collective: ranks compute their byte offsets from an allgather of the
/// byte counts and write concurrently into `<dir>/shared.bin`; rank 0
/// writes a header file with the schema and per-rank counts.
void shared_write(simmpi::Comm& comm, const ParticleBuffer& local,
                  const std::filesystem::path& dir);

class SharedDataset {
 public:
  static SharedDataset open(const std::filesystem::path& dir);

  std::uint64_t total_particles() const;
  const Schema& schema() const { return schema_; }
  int writer_count() const { return static_cast<int>(counts_.size()); }

  /// Read the contiguous slice written by one rank.
  ParticleBuffer read_rank_slice(int rank, ReadStats* stats = nullptr) const;

 private:
  SharedDataset(std::filesystem::path dir, Schema schema,
                std::vector<std::uint64_t> counts)
      : dir_(std::move(dir)),
        schema_(std::move(schema)),
        counts_(std::move(counts)) {}

  std::filesystem::path dir_;
  Schema schema_;
  std::vector<std::uint64_t> counts_;
};

}  // namespace spio::baselines
