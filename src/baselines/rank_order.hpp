#pragma once

/// \file rank_order.hpp
/// Spatially-unaware two-phase aggregation baseline (Figure 1, middle):
/// the same sub-filing structure as spio — N ranks aggregate into F files
/// of G = N/F ranks each — but groups are formed by *rank order*, not
/// space. This is what generic two-phase I/O and HDF5 sub-filing produce:
/// each file mixes particles from distant regions, so a spatial query
/// cannot rule out any file.

#include <filesystem>

#include "core/reader.hpp"
#include "simmpi/comm.hpp"
#include "workload/particle_buffer.hpp"

namespace spio::baselines {

/// Collective: aggregate groups of `group_size` consecutive ranks onto the
/// group's first rank and write one file per group, plus a manifest with
/// per-file counts (no bounding boxes — there is no meaningful box).
void rank_order_write(simmpi::Comm& comm, const ParticleBuffer& local,
                      const std::filesystem::path& dir, int group_size);

class RankOrderDataset {
 public:
  static RankOrderDataset open(const std::filesystem::path& dir);

  int file_count() const { return static_cast<int>(counts_.size()); }
  std::uint64_t total_particles() const;
  const Schema& schema() const { return schema_; }

  ParticleBuffer read_group_file(int group, ReadStats* stats = nullptr) const;

 private:
  RankOrderDataset(std::filesystem::path dir, Schema schema,
                   std::vector<std::uint64_t> counts)
      : dir_(std::move(dir)),
        schema_(std::move(schema)),
        counts_(std::move(counts)) {}

  std::filesystem::path dir_;
  Schema schema_;
  std::vector<std::uint64_t> counts_;
};

}  // namespace spio::baselines
