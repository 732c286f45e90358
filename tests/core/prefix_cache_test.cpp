/// \file prefix_cache_test.cpp
/// Property tests for the prefix cache: seeded random op sequences
/// (lookup/insert/invalidate/clear plus signature bumps that model
/// in-place rewrites) checked against budget and accounting invariants
/// under tight budgets, the default budget's capacity for `explore`'s
/// files, a concurrent-reader staleness hammer, and the SoA position
/// mirror's lifecycle (charged on insert, evicted with the prefix,
/// dropped on staleness).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/prefix_cache.hpp"
#include "core/read_engine.hpp"
#include "simd/position_mirror.hpp"
#include "util/rng.hpp"
#include "workload/schema.hpp"

namespace spio {
namespace {

/// A block whose payload is derived from (key, sig): every byte is
/// checkable against what a correct cache must return for that exact
/// signature.
std::shared_ptr<const ByteBlock> make_block(const std::string& key,
                                            const FileSig& sig,
                                            std::size_t size) {
  auto block = std::make_shared<ByteBlock>(size);
  const std::uint64_t tag =
      std::hash<std::string>{}(key) ^ sig.size ^
      static_cast<std::uint64_t>(sig.mtime_ns) * 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < size; ++i)
    block->data()[i] = static_cast<std::byte>((tag >> (8 * (i % 8))) & 0xff);
  return block;
}

bool block_matches(const ByteBlock& got, const std::string& key,
                   const FileSig& sig) {
  const auto want = make_block(key, sig, got.size());
  return std::memcmp(got.span().data(), want->span().data(), got.size()) == 0;
}

/// Under arbitrary tight budgets the cache must (a) never hold more
/// than its budget, (b) never serve bytes that do not match the
/// requested signature, and (c) keep its eviction accounting consistent
/// (held + evicted <= inserted payload).
TEST(PrefixCacheProperty, BudgetAndAccountingInvariantsUnderTightBudgets) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::uint64_t budget = 4096 + 512 * seed;
    PrefixCache cache(budget);
    Xoshiro256 rng(stream_seed(7200, seed));
    std::vector<FileSig> sigs(12);
    for (std::size_t k = 0; k < sigs.size(); ++k)
      sigs[k] = FileSig{64 + 96 * k, 1};

    std::uint64_t inserted_bytes = 0;
    std::uint64_t inserts = 0;
    for (int op = 0; op < 600; ++op) {
      const std::size_t k = rng.uniform_index(sigs.size());
      const std::string key = std::string("k").append(std::to_string(k));
      if (rng.uniform_index(3) == 0) {
        const std::size_t size = static_cast<std::size_t>(sigs[k].size);
        cache.insert(key, make_block(key, sigs[k], size), sigs[k]);
        inserted_bytes += size;
        ++inserts;
      } else {
        const auto got = cache.lookup(key, sigs[k]);
        if (got) {
          ASSERT_TRUE(block_matches(*got, key, sigs[k]));
        }
      }
      ASSERT_LE(cache.stats().bytes_held, budget) << "seed " << seed;
    }
    const ReadCacheStats s = cache.stats();
    // Every resident or evicted byte was inserted; payloads over the
    // budget were never admitted, hence <= not ==.
    EXPECT_LE(s.bytes_held + s.bytes_evicted, inserted_bytes);
    EXPECT_EQ(s.misses, inserts);  // insert counts exactly one miss
  }
}

/// The SoA position mirror rides cache entries and must obey the same
/// lifecycle as the prefix it mirrors: its bytes count against the
/// budget (admission, residency, and eviction accounting alike), a hit
/// returns exactly the inserted mirror, and a staleness drop or
/// invalidation releases it with the prefix — a mirror can never
/// outlive the bytes it mirrors.
TEST(PrefixCacheProperty, MirrorBytesAreChargedEvictedAndInvalidatedWithPrefix) {
  constexpr std::size_t kRecord = 24;  // position-only records
  const auto mirror_for = [](const std::shared_ptr<const ByteBlock>& b) {
    return PositionMirror::build(b->span(), kRecord, 0);
  };

  // Exact charge: prefix bytes + mirror bytes, dropped together on an
  // in-place rewrite (stale signature).
  {
    PrefixCache cache(1ull << 20);
    const FileSig sig{10 * kRecord, 1};
    const auto data = make_block("m", sig, 10 * kRecord);
    const auto mirror = mirror_for(data);
    cache.insert("m", data, sig, mirror);
    EXPECT_EQ(cache.stats().bytes_held,
              data->size() + PositionMirror::bytes_for_count(10));
    std::shared_ptr<const PositionMirror> got_mirror;
    ASSERT_NE(cache.lookup("m", sig, &got_mirror), nullptr);
    EXPECT_EQ(got_mirror.get(), mirror.get());
    const FileSig bumped{10 * kRecord, 2};
    got_mirror = mirror;  // poison the out-param; a miss must reset it
    EXPECT_EQ(cache.lookup("m", bumped, &got_mirror), nullptr);
    EXPECT_EQ(got_mirror, nullptr);
    EXPECT_EQ(cache.stats().bytes_held, 0u);
  }

  // Admission counts the mirror: a prefix that fits alone is refused
  // once its mirror pushes the charge over budget.
  {
    const FileSig sig{40 * kRecord, 1};
    const auto data = make_block("a", sig, 40 * kRecord);
    const auto mirror = mirror_for(data);
    PrefixCache tight(data->size() + mirror->byte_size() - 1);
    tight.insert("a", data, sig, mirror);
    EXPECT_EQ(tight.stats().entries, 0u);
    PrefixCache fits(data->size() + mirror->byte_size());
    fits.insert("a", data, sig, mirror);
    EXPECT_EQ(fits.stats().entries, 1u);
  }

  // Random op property, with mirrors on half the inserts: the budget
  // bound and the held+evicted <= inserted-charge accounting must hold
  // with mirror bytes in every term.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::uint64_t budget = 8192 + 1024 * seed;
    PrefixCache cache(budget);
    Xoshiro256 rng(stream_seed(7400, seed));
    std::vector<FileSig> sigs(10);
    for (std::size_t k = 0; k < sigs.size(); ++k)
      sigs[k] = FileSig{kRecord * (4 + 8 * k), 1};

    std::uint64_t inserted_charge = 0;
    for (int op = 0; op < 500; ++op) {
      const std::size_t k = rng.uniform_index(sigs.size());
      const std::string key = std::string("k").append(std::to_string(k));
      switch (rng.uniform_index(4)) {
        case 0:  // in-place rewrite
          sigs[k].mtime_ns += 1;
          break;
        case 1: {
          const std::size_t size = static_cast<std::size_t>(sigs[k].size);
          const auto data = make_block(key, sigs[k], size);
          std::shared_ptr<const PositionMirror> m;
          if (rng.uniform_index(2) == 0) m = mirror_for(data);
          cache.insert(key, data, sigs[k], m);
          inserted_charge += size + (m ? m->byte_size() : 0);
          break;
        }
        default: {
          std::shared_ptr<const PositionMirror> m;
          const auto got = cache.lookup(key, sigs[k], &m);
          if (got) {
            ASSERT_TRUE(block_matches(*got, key, sigs[k]));
            // A returned mirror always describes the returned bytes.
            if (m) {
              ASSERT_EQ(m->size(), got->size() / kRecord);
            }
          } else {
            ASSERT_EQ(m, nullptr);
          }
          break;
        }
      }
      ASSERT_LE(cache.stats().bytes_held, budget) << "seed " << seed;
    }
    const ReadCacheStats s = cache.stats();
    EXPECT_LE(s.bytes_held + s.bytes_evicted, inserted_charge)
        << "seed " << seed;
  }
}

/// The eviction-accounting audit, pinned exactly: when every insert is
/// admitted (payload + mirror within the budget), each byte charged on
/// insert is either still held or has been counted into `bytes_evicted`
/// — by budget pressure, replacement, staleness drop, invalidation, or
/// clear(). `held + evicted == inserted charge` as an exact `==`, with
/// mirror bytes in every term; a drift here is the read-amplification
/// accounting lying.
TEST(PrefixCacheProperty, ChargeEqualsEvictExactlyWhenAllInsertsAdmitted) {
  constexpr std::size_t kRecord = 24;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    // The budget stays comfortably above the largest possible charge
    // (block + mirror), so no insert is ever refused — the one case
    // where charge and evict may legitimately diverge.
    PrefixCache cache(4096);
    Xoshiro256 rng(stream_seed(7500, seed));
    std::vector<FileSig> sigs(10);
    for (std::size_t k = 0; k < sigs.size(); ++k)
      sigs[k] = FileSig{kRecord * (2 + 3 * k), 1};

    std::uint64_t inserted_charge = 0;
    for (int op = 0; op < 600; ++op) {
      const std::size_t k = rng.uniform_index(sigs.size());
      const std::string key = std::string("k").append(std::to_string(k));
      switch (rng.uniform_index(6)) {
        case 0:  // in-place rewrite; the next lookup drops it stale
          sigs[k].mtime_ns += 1;
          break;
        case 1:
          cache.invalidate(key);
          break;
        case 2: case 3: {
          const std::size_t size = static_cast<std::size_t>(sigs[k].size);
          const auto data = make_block(key, sigs[k], size);
          std::shared_ptr<const PositionMirror> m;
          if (rng.uniform_index(2) == 0)
            m = PositionMirror::build(data->span(), kRecord, 0);
          inserted_charge += size + (m ? m->byte_size() : 0);
          cache.insert(key, data, sigs[k], std::move(m));
          break;
        }
        default: {
          const auto got = cache.lookup(key, sigs[k]);
          if (got) {
            ASSERT_TRUE(block_matches(*got, key, sigs[k]));
          }
          break;
        }
      }
      const ReadCacheStats s = cache.stats();
      ASSERT_EQ(s.bytes_held + s.bytes_evicted, inserted_charge)
          << "seed " << seed << " op " << op;
    }
    // clear() drains the residue into bytes_evicted: the ledger must
    // balance to the byte.
    cache.clear();
    const ReadCacheStats s = cache.stats();
    EXPECT_EQ(s.bytes_held, 0u);
    EXPECT_EQ(s.bytes_evicted, inserted_charge) << "seed " << seed;
  }
}

/// The capacity arithmetic `explore`'s cache rests on. A mirror costs
/// 12 B per record (three f32 lanes), so a 60 000-record Uintah prefix
/// (7.44 MB) and its mirror charge 8.16 MB, and 32 of them fit the
/// engine's default 256 MiB budget (268.4 MB); a 33rd evicts one. With
/// f64 lanes (24 B per record, an entry of 8.88 MB) the budget held 30.
TEST(PrefixCacheProperty, ThirtyTwoUintahPrefixesWithMirrorsFitTheDefaultBudget) {
  constexpr std::size_t kRecords = 60000;
  constexpr std::size_t kFit = 32;
  EXPECT_EQ(PositionMirror::bytes_for_count(kRecords), 720000u);

  const std::size_t record = Schema::uintah().record_size();
  const std::size_t prefix = kRecords * record;
  PrefixCache cache(ReadEngine::kDefaultCacheBytes);
  EXPECT_GT(kFit * (prefix + 2 * PositionMirror::bytes_for_count(kRecords)),
            ReadEngine::kDefaultCacheBytes)
      << "32 entries with f64 mirrors would fit too: the gain is gone";

  const FileSig sig{prefix, 1};
  const auto data = std::make_shared<ByteBlock>(prefix);
  std::memset(data->data(), 0, prefix);
  const auto mirror = PositionMirror::build(data->span(), record, 0);
  const auto key = [](std::size_t k) {
    return "File_" + std::to_string(k) + ".bin";
  };
  for (std::size_t k = 0; k < kFit; ++k)
    cache.insert(key(k), data, sig, mirror);
  EXPECT_EQ(cache.stats().entries, kFit);
  EXPECT_EQ(cache.stats().evictions, 0u);
  for (std::size_t k = 0; k < kFit; ++k) {
    std::shared_ptr<const PositionMirror> got;
    EXPECT_NE(cache.lookup(key(k), sig, &got), nullptr) << key(k);
    EXPECT_EQ(got.get(), mirror.get()) << key(k);
  }
  cache.insert(key(kFit), data, sig, mirror);
  EXPECT_EQ(cache.stats().entries, kFit);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

/// The staleness guarantee under concurrency: one writer rewrites keys
/// in place (new signature, new payload) while readers look up with the
/// signature they last observed. A reader must either miss or get bytes
/// that match *its* requested signature — never a torn or stale view.
TEST(PrefixCacheProperty, InPlaceRewriteNeverServedStaleToConcurrentReaders) {
  constexpr std::size_t kKeys = 8;
  constexpr std::size_t kBlock = 256;
  PrefixCache cache(1ull << 24);
  std::vector<std::atomic<std::int64_t>> version(kKeys);
  for (auto& v : version) v.store(1);

  std::atomic<bool> stop{false};
  std::atomic<int> hits{0};

  std::thread writer([&] {
    Xoshiro256 rng(stream_seed(7300, 1));
    // Keep rewriting until the readers have landed real hits (with a
    // generous cap): on a loaded single-core box a fixed iteration
    // count can finish before any reader is even scheduled.
    for (int i = 0; i < 400000 && hits.load() < 64; ++i) {
      const std::size_t k = rng.uniform_index(kKeys);
      const std::int64_t v = version[k].load() + 1;
      const std::string key = std::string("k").append(std::to_string(k));
      const FileSig sig{kBlock, v};
      cache.insert(key, make_block(key, sig, kBlock), sig);
      version[k].store(v);
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r)
    readers.emplace_back([&, r] {
      Xoshiro256 rng(stream_seed(7301, static_cast<std::uint64_t>(r)));
      while (!stop.load()) {
        const std::size_t k = rng.uniform_index(kKeys);
        const std::int64_t v = version[k].load();
        const std::string key = std::string("k").append(std::to_string(k));
        const FileSig sig{kBlock, v};
        if (const auto got = cache.lookup(key, sig)) {
          // The payload must encode the exact signature we asked for.
          ASSERT_TRUE(block_matches(*got, key, sig));
          hits.fetch_add(1);
        }
      }
    });

  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_GT(hits.load(), 0) << "hammer never hit: test lost its teeth";
}

}  // namespace
}  // namespace spio
