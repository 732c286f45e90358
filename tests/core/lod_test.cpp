#include "core/lod.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "workload/generators.hpp"

namespace spio {
namespace {

TEST(LodLevels, PaperExampleHundredParticles) {
  // §3.4: "reading a dataset containing 100 particles on one core (n = 1)
  // with P = 32 and S = 2, the first level will contain 32 particles, the
  // second 64 and the third the remaining four".
  const LodParams p{32, 2.0};
  EXPECT_EQ(lod_level_size_capped(p, 1, 0, 100), 32u);
  EXPECT_EQ(lod_level_size_capped(p, 1, 1, 100), 64u);
  EXPECT_EQ(lod_level_size_capped(p, 1, 2, 100), 4u);
  EXPECT_EQ(lod_level_size_capped(p, 1, 3, 100), 0u);
  EXPECT_EQ(lod_level_count(p, 1, 100), 3);
}

TEST(LodLevels, PaperFigure8Configuration) {
  // §5.4: 2^31 particles read by n=64 cores with P=32, S=2:
  // "l = log2(2^31 / (64·32)) = 20" — level indices run 0..20.
  const LodParams p{32, 2.0};
  const std::uint64_t total = 1ull << 31;
  const int count = lod_level_count(p, 64, total);
  EXPECT_EQ(count, 21);         // levels 0..20 are non-empty
  EXPECT_EQ(count - 1, 20);     // the paper's maximum level index
  // The last level holds exactly the remainder: cumulative through level
  // 19 is 64*32*(2^20 - 1) = 2^31 - 2^11.
  EXPECT_EQ(lod_level_size_capped(p, 64, 20, total), 1ull << 11);
}

TEST(LodLevels, NominalSizesFollowGeometricLaw) {
  const LodParams p{32, 2.0};
  EXPECT_EQ(lod_level_size(p, 1, 0), 32u);
  EXPECT_EQ(lod_level_size(p, 1, 5), 32u * 32);
  EXPECT_EQ(lod_level_size(p, 64, 0), 64u * 32);
  // Non-integral scale factors round to nearest.
  const LodParams p15{10, 1.5};
  EXPECT_EQ(lod_level_size(p15, 1, 1), 15u);
  EXPECT_EQ(lod_level_size(p15, 1, 2), 23u);  // 22.5 rounds up
}

TEST(LodLevels, CumulativeSaturatesAtTotal) {
  const LodParams p{32, 2.0};
  EXPECT_EQ(lod_cumulative(p, 1, 0, 100), 0u);
  EXPECT_EQ(lod_cumulative(p, 1, 1, 100), 32u);
  EXPECT_EQ(lod_cumulative(p, 1, 2, 100), 96u);
  EXPECT_EQ(lod_cumulative(p, 1, 3, 100), 100u);
  EXPECT_EQ(lod_cumulative(p, 1, 50, 100), 100u);
}

TEST(LodLevels, LevelSizesSumToTotalProperty) {
  const LodParams p{7, 3.0};
  for (const std::uint64_t total : {0ull, 1ull, 6ull, 7ull, 1000ull, 12345ull}) {
    for (const int n : {1, 3, 16}) {
      const int levels = lod_level_count(p, n, total);
      std::uint64_t sum = 0;
      for (int l = 0; l < levels + 2; ++l)
        sum += lod_level_size_capped(p, n, l, total);
      EXPECT_EQ(sum, total) << "total=" << total << " n=" << n;
      if (total > 0) {
        EXPECT_GT(lod_level_size_capped(p, n, levels - 1, total), 0u);
        EXPECT_EQ(lod_level_size_capped(p, n, levels, total), 0u);
      }
    }
  }
}

TEST(LodLevels, MoreReadersMeanFewerLevels) {
  const LodParams p{32, 2.0};
  const std::uint64_t total = 1u << 20;
  EXPECT_GT(lod_level_count(p, 1, total), lod_level_count(p, 64, total));
}

TEST(LodLevels, ZeroTotalHasNoLevels) {
  EXPECT_EQ(lod_level_count(LodParams{}, 1, 0), 0);
}

TEST(LodLevels, UnitScaleFactorGivesEqualLevels) {
  const LodParams p{10, 1.0};
  EXPECT_EQ(lod_level_count(p, 1, 100), 10);
  EXPECT_EQ(lod_level_size_capped(p, 1, 4, 100), 10u);
}

TEST(LodParamsStruct, Validity) {
  EXPECT_TRUE(LodParams{}.valid());
  EXPECT_FALSE((LodParams{0, 2.0}).valid());
  EXPECT_FALSE((LodParams{32, 0.5}).valid());
}

TEST(LodLevels, FormulaPropertyForNonDefaultScaleFactors) {
  // Property sweep over non-default S: every level obeys the paper's
  // n·P·S^l law (rounded), capped sizes partition the total, and the
  // cumulative prefix is monotone. Exercises S values that do not divide
  // totals evenly.
  for (const double s : {1.3, 1.7, 2.5, 4.0}) {
    const LodParams p{13, s};
    for (const int n : {1, 2, 5}) {
      for (const std::uint64_t total : {0ull, 1ull, 13ull, 999ull, 40000ull}) {
        const int levels = lod_level_count(p, n, total);
        std::uint64_t sum = 0;
        std::uint64_t prev_cum = 0;
        for (int l = 0; l < levels; ++l) {
          const std::uint64_t nominal = lod_level_size(p, n, l);
          const std::uint64_t expected = static_cast<std::uint64_t>(
              std::llround(n * 13 * std::pow(s, l)));
          EXPECT_EQ(nominal, expected)
              << "S=" << s << " n=" << n << " l=" << l;
          EXPECT_LE(lod_level_size_capped(p, n, l, total), nominal);
          sum += lod_level_size_capped(p, n, l, total);
          const std::uint64_t cum = lod_cumulative(p, n, l + 1, total);
          EXPECT_GE(cum, prev_cum);
          EXPECT_EQ(cum, sum);
          prev_cum = cum;
        }
        EXPECT_EQ(sum, total) << "S=" << s << " n=" << n;
      }
    }
  }
}

TEST(LodLevels, DegenerateTotalsHaveConsistentEdges) {
  const LodParams p{32, 2.0};
  // No particles: no levels, empty prefixes at every depth.
  EXPECT_EQ(lod_level_count(p, 1, 0), 0);
  EXPECT_EQ(lod_level_size_capped(p, 1, 0, 0), 0u);
  EXPECT_EQ(lod_cumulative(p, 1, 5, 0), 0u);
  // A single particle: exactly one level holding it.
  EXPECT_EQ(lod_level_count(p, 1, 1), 1);
  EXPECT_EQ(lod_level_size_capped(p, 1, 0, 1), 1u);
  EXPECT_EQ(lod_cumulative(p, 1, 1, 1), 1u);
  // Readers outnumbering particles still terminate with one level.
  EXPECT_EQ(lod_level_count(p, 1024, 1), 1);
}

// ---- shuffle ----

ParticleBuffer numbered_particles(std::size_t n) {
  ParticleBuffer buf(Schema::uintah());
  const auto id = buf.schema().index_of("id");
  for (std::size_t i = 0; i < n; ++i) {
    buf.append_uninitialized();
    buf.set_position(i, Vec3d(static_cast<double>(i), 0, 0));
    buf.set_f64(i, id, 0, static_cast<double>(i));
  }
  return buf;
}

std::multiset<double> ids_of(const ParticleBuffer& buf) {
  const auto id = buf.schema().index_of("id");
  std::multiset<double> out;
  for (std::size_t i = 0; i < buf.size(); ++i) out.insert(buf.get_f64(i, id));
  return out;
}

TEST(LodShuffle, RandomShuffleIsAPermutation) {
  ParticleBuffer buf = numbered_particles(500);
  const auto before = ids_of(buf);
  lod_reorder(buf, 42, LodHeuristic::kRandom);
  EXPECT_EQ(ids_of(buf), before);
  EXPECT_EQ(buf.size(), 500u);
}

TEST(LodShuffle, DeterministicInSeed) {
  ParticleBuffer a = numbered_particles(200);
  ParticleBuffer b = numbered_particles(200);
  lod_reorder(a, 7);
  lod_reorder(b, 7);
  EXPECT_EQ(std::memcmp(a.bytes().data(), b.bytes().data(), a.byte_size()), 0);
}

TEST(LodShuffle, DeterministicAcrossManySeedsAndHeuristics) {
  // Seeded property: for every heuristic, replaying any seed reproduces
  // the permutation byte for byte (the chaos harness's golden-run
  // comparisons depend on this).
  for (const auto h : {LodHeuristic::kRandom, LodHeuristic::kStride,
                       LodHeuristic::kStratified}) {
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
      ParticleBuffer a = numbered_particles(151);
      ParticleBuffer b = numbered_particles(151);
      lod_reorder(a, seed, h);
      lod_reorder(b, seed, h);
      ASSERT_EQ(std::memcmp(a.bytes().data(), b.bytes().data(),
                            a.byte_size()),
                0)
          << "heuristic=" << static_cast<int>(h) << " seed=" << seed;
      EXPECT_EQ(ids_of(a), ids_of(numbered_particles(151)));
    }
  }
}

TEST(LodShuffle, OrderOverSegmentsIsTheReorderOfTheirConcatenation) {
  // The writer orders the received payloads in place; the file must be
  // what reordering their concatenation gives, for any segment split.
  for (const auto h : {LodHeuristic::kRandom, LodHeuristic::kStride,
                       LodHeuristic::kStratified}) {
    ParticleBuffer whole = numbered_particles(151);
    const std::span<const std::byte> all = whole.bytes();
    const std::size_t rs = whole.record_size();
    const std::span<const std::byte> segments[] = {
        all.first(40 * rs), all.subspan(40 * rs, 0),
        all.subspan(40 * rs, 100 * rs), all.subspan(140 * rs)};
    std::vector<std::byte> gathered;
    for (const std::byte* rec : lod_order(segments, rs, 5, h))
      gathered.insert(gathered.end(), rec, rec + rs);
    lod_reorder(whole, 5, h);
    EXPECT_TRUE(std::equal(gathered.begin(), gathered.end(),
                           whole.bytes().begin(), whole.bytes().end()))
        << "heuristic=" << static_cast<int>(h);
  }
}

TEST(LodShuffle, DifferentSeedsDiffer) {
  ParticleBuffer a = numbered_particles(200);
  ParticleBuffer b = numbered_particles(200);
  lod_reorder(a, 7);
  lod_reorder(b, 8);
  EXPECT_NE(std::memcmp(a.bytes().data(), b.bytes().data(), a.byte_size()), 0);
}

TEST(LodShuffle, ActuallyMovesRecords) {
  ParticleBuffer buf = numbered_particles(1000);
  lod_reorder(buf, 1);
  const auto id = buf.schema().index_of("id");
  int in_place = 0;
  for (std::size_t i = 0; i < buf.size(); ++i)
    in_place += (buf.get_f64(i, id) == static_cast<double>(i));
  EXPECT_LT(in_place, 50);  // a uniform permutation fixes ~1 element
}

TEST(LodShuffle, PrefixIsUnbiasedSample) {
  // Property behind the LOD format: the first k particles of a shuffled
  // buffer are a uniform sample. Check the mean of ids in a 10% prefix
  // over several seeds stays near the population mean.
  const std::size_t n = 2000;
  const auto idf = Schema::uintah().index_of("id");
  double mean_of_means = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    ParticleBuffer buf = numbered_particles(n);
    lod_reorder(buf, static_cast<std::uint64_t>(t));
    double m = 0;
    for (std::size_t i = 0; i < n / 10; ++i) m += buf.get_f64(i, idf);
    mean_of_means += m / (n / 10.0);
  }
  mean_of_means /= trials;
  EXPECT_NEAR(mean_of_means, (n - 1) / 2.0, n * 0.03);
}

TEST(LodShuffle, EmptyAndSingletonAreNoOps) {
  ParticleBuffer empty(Schema::uintah());
  lod_reorder(empty, 3);
  EXPECT_TRUE(empty.empty());
  ParticleBuffer one = numbered_particles(1);
  lod_reorder(one, 3);
  EXPECT_EQ(one.get_f64(0, one.schema().index_of("id")), 0.0);
}

TEST(LodShuffle, StrideHeuristicIsAPermutation) {
  ParticleBuffer buf = numbered_particles(300);
  const auto before = ids_of(buf);
  lod_reorder(buf, 0, LodHeuristic::kStride);
  EXPECT_EQ(ids_of(buf), before);
}

TEST(LodShuffle, StratifiedIsAPermutation) {
  ParticleBuffer buf = numbered_particles(777);
  const auto before = ids_of(buf);
  lod_reorder(buf, 5, LodHeuristic::kStratified);
  EXPECT_EQ(ids_of(buf), before);
}

TEST(LodShuffle, StratifiedIsDeterministicInSeed) {
  ParticleBuffer a = numbered_particles(300);
  ParticleBuffer b = numbered_particles(300);
  lod_reorder(a, 9, LodHeuristic::kStratified);
  lod_reorder(b, 9, LodHeuristic::kStratified);
  EXPECT_EQ(std::memcmp(a.bytes().data(), b.bytes().data(), a.byte_size()),
            0);
}

TEST(LodShuffle, StratifiedPrefixCoversSpaceBetterThanRandom) {
  // Clustered particles, 2% prefix: the stratified order must hit at
  // least as many occupied spatial cells as a random shuffle (usually
  // strictly more — that is its purpose).
  auto clustered = [] {
    return workload::gaussian_clusters(Schema::uintah(),
                                       Box3({0, 0, 0}, {1, 1, 1}), 5000, 6,
                                       0.08, 99);
  };
  auto cells_hit = [](const ParticleBuffer& buf, std::size_t prefix) {
    std::set<int> cells;
    for (std::size_t i = 0; i < prefix; ++i) {
      const Vec3d p = buf.position(i);
      const int cx = std::min(7, static_cast<int>(p.x * 8));
      const int cy = std::min(7, static_cast<int>(p.y * 8));
      const int cz = std::min(7, static_cast<int>(p.z * 8));
      cells.insert((cz * 8 + cy) * 8 + cx);
    }
    return cells.size();
  };

  double random_avg = 0, strat_avg = 0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    ParticleBuffer r = clustered();
    ParticleBuffer s = clustered();
    lod_reorder(r, static_cast<std::uint64_t>(t), LodHeuristic::kRandom);
    lod_reorder(s, static_cast<std::uint64_t>(t), LodHeuristic::kStratified);
    random_avg += static_cast<double>(cells_hit(r, 100));
    strat_avg += static_cast<double>(cells_hit(s, 100));
  }
  EXPECT_GE(strat_avg, random_avg);
}

TEST(LodShuffle, StratifiedHandlesCoincidentPositions) {
  // All particles at one point: Morton keys all tie; the shuffle must
  // still be a valid permutation.
  ParticleBuffer buf(Schema::uintah());
  const auto id = buf.schema().index_of("id");
  for (int i = 0; i < 50; ++i) {
    buf.append_uninitialized();
    buf.set_position(static_cast<std::size_t>(i), {0.5, 0.5, 0.5});
    buf.set_f64(static_cast<std::size_t>(i), id, 0, i);
  }
  const auto before = ids_of(buf);
  lod_reorder(buf, 1, LodHeuristic::kStratified);
  EXPECT_EQ(ids_of(buf), before);
}

TEST(LodShuffle, StrideSpreadsPrefixAcrossInput) {
  ParticleBuffer buf = numbered_particles(256);
  lod_reorder(buf, 0, LodHeuristic::kStride);
  const auto id = buf.schema().index_of("id");
  // Bit-reversed order: first entries are 0, 128, 64, 192, ...
  EXPECT_EQ(buf.get_f64(0, id), 0.0);
  EXPECT_EQ(buf.get_f64(1, id), 128.0);
  EXPECT_EQ(buf.get_f64(2, id), 64.0);
  EXPECT_EQ(buf.get_f64(3, id), 192.0);
}

}  // namespace
}  // namespace spio
