#pragma once

/// \file prefix_cache.hpp
/// The read path's file-prefix buffer cache, extracted from ReadEngine
/// (docs/PERF.md "Read path").
///
/// `PrefixCache` is one LRU behind one mutex: entries keyed by an opaque
/// string (the engine uses `path + '\1' + prefix_bytes`), each validated
/// against the file's `(size, mtime)` signature on every hit so a
/// dataset rewritten in place is never served stale. One byte budget
/// bounds residency across every key; inserting evicts from the LRU
/// tail.
///
/// Counters (`reader.cache.{hits,misses,bytes_evicted}`) are published
/// into the metrics registry by the operation that moved them.

#include <cstdint>
#include <memory>
#include <mutex>
#include <list>
#include <span>
#include <string>
#include <unordered_map>

namespace spio {

class PositionMirror;  // simd/position_mirror.hpp

/// (size, mtime) identity of a file at probe time; the cache's staleness
/// check. `mtime_ns` is 0 when the cache is disabled (not sampled).
struct FileSig {
  std::uint64_t size = 0;
  std::int64_t mtime_ns = 0;
};

/// Point-in-time cache counters (also mirrored into the metrics
/// registry as `reader.cache.*` when observability is on). The
/// `singleflight_*` pair is filled in by `ReadEngine::cache_stats` —
/// dedup happens above the cache, in the engine's fetch path.
struct ReadCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;      ///< entries dropped (budget or stale)
  std::uint64_t bytes_evicted = 0;  ///< payload bytes of those entries
  std::uint64_t bytes_held = 0;     ///< current resident payload bytes
  std::uint64_t entries = 0;        ///< current resident entry count
  std::uint64_t singleflight_leaders = 0;    ///< misses that did the read
  std::uint64_t singleflight_followers = 0;  ///< waiters served by a leader
};

/// An exactly-sized, immutable-after-fill byte block. Unlike
/// `std::vector`, construction does NOT zero the storage, so a cache
/// miss reads a file prefix in one pass (fread) instead of two
/// (memset + fread) — a full-memory-bandwidth saving on large prefixes.
class ByteBlock {
 public:
  explicit ByteBlock(std::size_t size)
      : data_(new std::byte[size]), size_(size) {}
  std::byte* data() { return data_.get(); }
  std::size_t size() const { return size_; }
  std::span<const std::byte> span() const { return {data_.get(), size_}; }

 private:
  std::unique_ptr<std::byte[]> data_;
  std::size_t size_;
};

/// The LRU. Thread-safe; every operation takes the one mutex.
class PrefixCache {
 public:
  explicit PrefixCache(std::uint64_t budget) : budget_(budget) {}

  /// The cached block for `key` when resident AND signature-fresh;
  /// nullptr on a miss. A resident entry whose signature differs from
  /// `sig` is dropped (counted as an eviction) — in-place rewrites are
  /// never served stale. A fresh hit moves the entry to the LRU front.
  /// When `mirror` is non-null it receives the entry's SoA position
  /// mirror (may be null — not every entry has one); a stale drop or a
  /// miss leaves it null, so a mirror can never outlive its bytes.
  std::shared_ptr<const ByteBlock> lookup(
      const std::string& key, const FileSig& sig,
      std::shared_ptr<const PositionMirror>* mirror = nullptr);

  /// Insert `data` for `key`, stamped with `sig`, counting one miss.
  /// Evicts from the LRU tail to fit the budget; an entry larger than
  /// the whole budget is not cached at all (the miss still counts). An
  /// existing entry under `key` (a raced concurrent miss) is replaced.
  /// `mirror`, when given, rides with the entry: its bytes are charged
  /// against the budget alongside the block's, and it is dropped with
  /// the entry on eviction, staleness, and invalidation.
  void insert(const std::string& key, std::shared_ptr<const ByteBlock> data,
              const FileSig& sig,
              std::shared_ptr<const PositionMirror> mirror = nullptr);

  /// Drop `key` if resident (counted as an eviction). No-op otherwise.
  void invalidate(const std::string& key);

  /// Drop every resident entry (counted as evictions).
  void clear();

  /// Re-budget; 0 disables caching (and drops residents). Counters are
  /// preserved.
  void set_budget(std::uint64_t bytes);
  std::uint64_t budget() const;

  /// Zero the hit/miss/eviction counters (residents stay).
  void reset_stats();
  ReadCacheStats stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const ByteBlock> data;
    std::shared_ptr<const PositionMirror> mirror;  // may be null
    FileSig sig;
  };
  using LruList = std::list<Entry>;

  /// What the entry charges against the budget: block plus mirror.
  static std::uint64_t entry_bytes(const Entry& e);

  /// Unlink + account one resident entry (caller holds `mu_`).
  void evict_locked(LruList::iterator it);
  /// Evict from the tail until `bytes_held_ <= target` (caller holds
  /// `mu_`).
  void shrink_to_locked(std::uint64_t target);

  mutable std::mutex mu_;
  LruList lru_;  // front = most recent
  std::unordered_map<std::string, LruList::iterator> map_;
  std::uint64_t budget_ = 0;
  std::uint64_t bytes_held_ = 0;
  ReadCacheStats stats_;
};

}  // namespace spio
