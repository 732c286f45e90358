#pragma once

/// \file lod.hpp
/// Level-of-detail ordering (paper §3.4). Aggregated particles are
/// re-shuffled so that any prefix of a data file is a uniform
/// random subset of its particles; reading "one more level" means reading
/// further into the file.
///
/// Level l holds at most `x(n, l) = n · P · S^l` particles of the whole
/// dataset, where n is the number of *reading* processes, P the particle
/// count of the first level per reader, and S the resolution scale factor
/// (default 2). The last level holds the remainder. Because levels are
/// plain subsets, the layout adds no storage overhead.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"
#include "workload/particle_buffer.hpp"

namespace spio {

/// LOD tuning parameters, fixed at write time and recorded in the spatial
/// metadata file so readers agree on the layout.
struct LodParams {
  /// Particles per reading process in the first level (paper default 32).
  std::uint64_t P = 32;
  /// Resolution scale factor between consecutive levels (paper default 2).
  double S = 2.0;

  constexpr bool operator==(const LodParams&) const = default;
  constexpr bool valid() const { return P >= 1 && S >= 1.0; }
};

/// Nominal (uncapped) size of level `level` for `n_readers` readers:
/// `n · P · S^l`.
std::uint64_t lod_level_size(const LodParams& p, int n_readers, int level);

/// Total particles in levels `[0, levels)`, capped at `total`. With the
/// paper's example (total=100, n=1, P=32, S=2): levels 0..2 cumulate to
/// 32, 96, 100.
std::uint64_t lod_cumulative(const LodParams& p, int n_readers, int levels,
                             std::uint64_t total);

/// Size of level `level` given `total` particles (the last level holds the
/// remainder; levels past the data are 0). Paper example: 100 particles,
/// n=1, P=32, S=2 -> sizes 32, 64, 4.
std::uint64_t lod_level_size_capped(const LodParams& p, int n_readers,
                                    int level, std::uint64_t total);

/// Number of non-empty levels for a dataset of `total` particles. For the
/// paper's Fig. 8 configuration (total=2^31, n=64, P=32, S=2) the maximum
/// level index is 20 (= log2(2^31 / (64·32))), i.e. 21 non-empty levels.
int lod_level_count(const LodParams& p, int n_readers, std::uint64_t total);

/// The shuffle heuristic used to build the LOD order (§3.4: "the order of
/// particles used to create the levels of detail can be defined using
/// different kinds of heuristics such as density or random").
enum class LodHeuristic : std::uint8_t {
  /// Uniform random permutation (Fisher–Yates); the paper's choice: every
  /// prefix is a uniform random sample.
  kRandom = 0,
  /// Deterministic strided interleave (round-robin over S-ary strides);
  /// cheaper but prefixes are biased toward the original input order.
  /// Kept for the ablation bench.
  kStride = 1,
  /// Density-stratified: particles are Morton-ordered by position, then
  /// emitted in bit-reversed rank order, so every prefix spreads evenly
  /// over *space* rather than over the population — tiny prefixes cover
  /// sparse regions a random sample would miss. The paper's "density"
  /// heuristic direction.
  kStratified = 2,
};

/// LOD order of the records in `segments`, concatenated in the order
/// given (whole `record_size`-byte records, position first): entry k
/// points at the record that goes to position k. Deterministic in
/// `seed`; writers derive the seed from the partition id so re-running a
/// write reproduces files bit-for-bit.
std::vector<const std::byte*> lod_order(
    std::span<const std::span<const std::byte>> segments,
    std::size_t record_size, std::uint64_t seed,
    LodHeuristic heuristic = LodHeuristic::kRandom);

/// Re-order `buf` into LOD order: the one-segment case of `lod_order`.
void lod_reorder(ParticleBuffer& buf, std::uint64_t seed,
                 LodHeuristic heuristic = LodHeuristic::kRandom);

}  // namespace spio
