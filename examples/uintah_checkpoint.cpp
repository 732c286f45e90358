/// \file uintah_checkpoint.cpp
/// The paper's motivating workload (§5.1): a Uintah-style multi-timestep
/// particle simulation that checkpoints through spio. The example
///   1. sweeps the partition factor on the first checkpoint and picks the
///      fastest (the paper exposes the factor as a tuning parameter),
///   2. advances a toy MPM-like simulation for several timesteps, writing
///      each checkpoint as one step of a `TimeSeries` at the output dir,
///   3. "restarts": reads the series' last step back on a *different*
///      rank count and verifies the particle census.
///
/// Usage: uintah_checkpoint [output-dir]   (default: ./uintah_run)

#include <chrono>
#include <iostream>
#include <mutex>

#include "core/restart.hpp"
#include "core/timeseries.hpp"
#include "core/writer.hpp"
#include "simmpi/runtime.hpp"
#include "util/units.hpp"
#include "workload/generators.hpp"

using namespace spio;

namespace {

constexpr int kRanks = 16;
constexpr std::uint64_t kPerRank = 8000;
constexpr int kTimesteps = 3;

/// Advance particles one step: drift along +x with reflecting walls, and
/// evolve the density field slightly. Stands in for the MPM solve.
void advance(ParticleBuffer& buf, const Box3& domain, double dt) {
  const auto density = buf.schema().index_of("density");
  for (std::size_t i = 0; i < buf.size(); ++i) {
    Vec3d p = buf.position(i);
    p.x += dt * (0.2 + 0.1 * std::sin(p.y * 12.0));
    if (p.x >= domain.hi.x) p.x = domain.hi.x - (p.x - domain.hi.x) - 1e-9;
    buf.set_position(i, p);
    buf.set_f64(i, density, 0, buf.get_f64(i, density) * (1.0 + 0.001 * dt));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path base = argc > 1 ? argv[1] : "uintah_run";
  const PatchDecomposition decomp(Box3::unit(), {4, 2, 2});

  // --- step 1: tune the partition factor on a trial checkpoint.
  const PartitionFactor candidates[] = {{1, 1, 1}, {2, 2, 1}, {2, 2, 2},
                                        {4, 2, 2}};
  PartitionFactor best{1, 1, 1};
  double best_ms = 1e300;
  std::cout << "tuning partition factor on a trial checkpoint:\n";
  for (const PartitionFactor f : candidates) {
    const auto t0 = std::chrono::steady_clock::now();
    simmpi::run(kRanks, [&](simmpi::Comm& comm) {
      const auto local = workload::uniform(
          Schema::uintah(), decomp.patch(comm.rank()), kPerRank,
          stream_seed(7, static_cast<std::uint64_t>(comm.rank())),
          static_cast<std::uint64_t>(comm.rank()) * kPerRank);
      WriterConfig cfg;
      cfg.dir = base / ("tune_" + f.to_string());
      cfg.factor = f;
      write_dataset(comm, decomp, local, cfg);
    });
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    std::cout << "  " << f.to_string() << ": "
              << file_count(decomp.grid(), f) << " files, " << ms << " ms\n";
    if (ms < best_ms) {
      best_ms = ms;
      best = f;
    }
  }
  std::cout << "chosen factor: " << best.to_string() << "\n\n";

  // --- step 2: the simulation loop with periodic checkpoints. Particle
  // state persists across timesteps inside the rank threads' closures via
  // a per-rank store.
  std::vector<ParticleBuffer> state(kRanks, ParticleBuffer(Schema::uintah()));
  simmpi::run(kRanks, [&](simmpi::Comm& comm) {
    state[static_cast<std::size_t>(comm.rank())] = workload::uniform(
        Schema::uintah(), decomp.patch(comm.rank()), kPerRank,
        stream_seed(7, static_cast<std::uint64_t>(comm.rank())),
        static_cast<std::uint64_t>(comm.rank()) * kPerRank);
  });

  for (int step = 1; step <= kTimesteps; ++step) {
    WriteStats job{};
    std::mutex mu;
    simmpi::run(kRanks, [&](simmpi::Comm& comm) {
      ParticleBuffer& local = state[static_cast<std::size_t>(comm.rank())];
      advance(local, decomp.domain(), 0.05);
      WriterConfig cfg;
      cfg.factor = best;
      // Drifting particles can leave their patch: spio detects this and
      // falls back to the general (binning) exchange automatically.
      const WriteStats s =
          TimeSeries::write_step(comm, decomp, local, base, step, cfg);
      std::lock_guard lk(mu);
      job = WriteStats::max_over(job, s);
    });
    std::cout << "checkpoint step " << step << ": "
              << format_bytes(job.bytes_written) << " in "
              << job.files_written << " files, "
              << format_seconds(job.total_seconds())
              << (job.used_aligned_fast_path ? " (aligned path)"
                                             : " (general path)")
              << "\n";
  }

  // --- step 3: restart read on a smaller machine (4 ranks, not 16), from
  // the last step the series index records.
  const auto last =
      TimeSeries::step_dir(base, TimeSeries::open(base).steps().back());
  std::mutex mu;
  std::uint64_t restored = 0;
  const auto readers = PatchDecomposition::for_ranks(decomp.domain(), 4);
  simmpi::run(4, [&](simmpi::Comm& comm) {
    const ParticleBuffer mine = restart_read(comm, readers, last);
    std::lock_guard lk(mu);
    restored += mine.size();
  });
  std::cout << "\nrestart on 4 ranks restored " << restored << " of "
            << kRanks * kPerRank << " particles\n";
  if (restored != kRanks * kPerRank) {
    std::cerr << "particle census mismatch!\n";
    return 1;
  }
  return 0;
}
