#pragma once

/// \file timeseries.hpp
/// Multi-timestep datasets: one spio dataset per checkpoint step under a
/// common base directory, plus a small series index maintained by rank 0.
/// This is how a simulation actually uses the library ("data per core for
/// each timestep", §5.1) and what lets post-processing iterate over time.
///
/// Layout:
///   <base>/series.spio            index: magic | version | step numbers
///   <base>/step_<NNNNNN>/...      a regular spio dataset per step

#include <filesystem>
#include <vector>

#include "core/writer.hpp"
#include "simmpi/comm.hpp"

namespace spio {

class TimeSeries {
 public:
  static constexpr const char* kIndexName = "series.spio";

  /// Collective: write one checkpoint as step `step` of the series at
  /// `base`. `config.dir` is ignored (derived from `base` and `step`).
  /// Steps may be written in any order; rewriting a step replaces it.
  static WriteStats write_step(simmpi::Comm& comm,
                               const PatchDecomposition& decomp,
                               const ParticleBuffer& local,
                               const std::filesystem::path& base, int step,
                               WriterConfig config);

  /// Open a series for reading. Throws `IoError` if no index exists.
  static TimeSeries open(const std::filesystem::path& base);

  /// Step numbers present, ascending.
  const std::vector<int>& steps() const { return steps_; }
  int step_count() const { return static_cast<int>(steps_.size()); }

  /// Directory of one step's dataset.
  static std::filesystem::path step_dir(const std::filesystem::path& base,
                                        int step);

 private:
  explicit TimeSeries(std::vector<int> steps) : steps_(std::move(steps)) {}

  std::vector<int> steps_;
};

}  // namespace spio
