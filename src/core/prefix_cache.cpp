#include "core/prefix_cache.hpp"

#include "obs/metrics.hpp"
#include "simd/position_mirror.hpp"

namespace spio {

std::uint64_t PrefixCache::entry_bytes(const Entry& e) {
  return e.data->size() + (e.mirror ? e.mirror->byte_size() : 0);
}

std::shared_ptr<const ByteBlock> PrefixCache::lookup(
    const std::string& key, const FileSig& sig,
    std::shared_ptr<const PositionMirror>* mirror) {
  std::uint64_t evicted_delta = 0;
  std::shared_ptr<const ByteBlock> found;
  if (mirror) mirror->reset();
  {
    std::lock_guard lk(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      Entry& e = *it->second;
      if (e.sig.size == sig.size && e.sig.mtime_ns == sig.mtime_ns) {
        lru_.splice(lru_.begin(), lru_, it->second);
        ++stats_.hits;
        found = e.data;
        if (mirror) *mirror = e.mirror;
      } else {
        // Stale entry (the file was rewritten in place): drop it — the
        // mirror with it — and the caller re-reads and re-inserts under
        // the fresh signature.
        evicted_delta += entry_bytes(e);
        evict_locked(it->second);
      }
    }
  }
  if (found) {
    obs::publish_counter("reader.cache.hits", 1);
    return found;
  }
  obs::publish_counter("reader.cache.bytes_evicted", evicted_delta);
  return nullptr;
}

void PrefixCache::insert(const std::string& key,
                         std::shared_ptr<const ByteBlock> data,
                         const FileSig& sig,
                         std::shared_ptr<const PositionMirror> mirror) {
  const std::uint64_t charge =
      data->size() + (mirror ? mirror->byte_size() : 0);
  std::uint64_t evicted_delta = 0;
  {
    std::lock_guard lk(mu_);
    ++stats_.misses;
    if (charge <= budget_) {
      const auto raced = map_.find(key);  // a concurrent miss beat us
      if (raced != map_.end()) {
        evicted_delta += entry_bytes(*raced->second);
        evict_locked(raced->second);
      }
      const std::uint64_t before = stats_.bytes_evicted;
      shrink_to_locked(budget_ - charge);
      evicted_delta += stats_.bytes_evicted - before;
      bytes_held_ += charge;
      lru_.push_front(Entry{key, std::move(data), std::move(mirror), sig});
      map_.emplace(key, lru_.begin());
    }
  }
  obs::publish_counter("reader.cache.misses", 1);
  obs::publish_counter("reader.cache.bytes_evicted", evicted_delta);
}

void PrefixCache::invalidate(const std::string& key) {
  std::uint64_t evicted_delta = 0;
  {
    std::lock_guard lk(mu_);
    const auto it = map_.find(key);
    if (it == map_.end()) return;
    evicted_delta = entry_bytes(*it->second);
    evict_locked(it->second);
  }
  obs::publish_counter("reader.cache.bytes_evicted", evicted_delta);
}

void PrefixCache::clear() {
  std::uint64_t evicted_delta = 0;
  {
    std::lock_guard lk(mu_);
    const std::uint64_t before = stats_.bytes_evicted;
    shrink_to_locked(0);
    evicted_delta = stats_.bytes_evicted - before;
  }
  obs::publish_counter("reader.cache.bytes_evicted", evicted_delta);
}

void PrefixCache::set_budget(std::uint64_t bytes) {
  std::uint64_t evicted_delta = 0;
  {
    std::lock_guard lk(mu_);
    budget_ = bytes;
    const std::uint64_t before = stats_.bytes_evicted;
    shrink_to_locked(budget_);
    evicted_delta = stats_.bytes_evicted - before;
  }
  obs::publish_counter("reader.cache.bytes_evicted", evicted_delta);
}

std::uint64_t PrefixCache::budget() const {
  std::lock_guard lk(mu_);
  return budget_;
}

void PrefixCache::reset_stats() {
  std::lock_guard lk(mu_);
  stats_ = ReadCacheStats{};
}

ReadCacheStats PrefixCache::stats() const {
  std::lock_guard lk(mu_);
  ReadCacheStats s = stats_;
  s.bytes_held = bytes_held_;
  s.entries = map_.size();
  return s;
}

void PrefixCache::evict_locked(LruList::iterator it) {
  const std::uint64_t bytes = entry_bytes(*it);
  bytes_held_ -= bytes;
  stats_.bytes_evicted += bytes;
  ++stats_.evictions;
  map_.erase(it->key);
  lru_.erase(it);
}

void PrefixCache::shrink_to_locked(std::uint64_t target) {
  while (bytes_held_ > target && !lru_.empty())
    evict_locked(std::prev(lru_.end()));
}

}  // namespace spio
