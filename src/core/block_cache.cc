#include "core/block_cache.h"

#include <algorithm>
#include <cstring>

namespace davix {
namespace core {

namespace {

constexpr uint64_t kDefaultBlockBytes = 256 * 1024;
constexpr size_t kDefaultShards = 8;

/// One contiguous piece of a lookup, copied out after the shard lock is
/// released; `data` keeps the block alive across a racing eviction.
struct Segment {
  std::shared_ptr<const std::string> data;
  uint64_t src_offset = 0;   ///< offset inside the block payload
  uint64_t dest_offset = 0;  ///< offset inside the caller's span
  uint64_t size = 0;
};

void CopyOut(const std::vector<Segment>& segments, char* dest) {
  for (const Segment& segment : segments) {
    std::memcpy(dest + segment.dest_offset,
                segment.data->data() + segment.src_offset, segment.size);
  }
}

}  // namespace

BlockCache::BlockCache(BlockCacheConfig config,
                       std::shared_ptr<IoCounters> counters)
    : config_(config), counters_(std::move(counters)) {
  if (config_.block_bytes == 0) config_.block_bytes = kDefaultBlockBytes;
  if (config_.shards == 0) config_.shards = kDefaultShards;
  if (enabled()) {
    // Never run more shards than the capacity can give a whole block
    // each, so a budget-respecting insert always has room somewhere.
    size_t max_useful =
        static_cast<size_t>(config_.capacity_bytes / config_.block_bytes);
    config_.shards = std::clamp<size_t>(config_.shards, 1,
                                        std::max<size_t>(1, max_useful));
    shard_budget_ = config_.capacity_bytes / config_.shards;
    shards_.reserve(config_.shards);
    for (size_t i = 0; i < config_.shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }
}

std::string BlockCache::UrlKey(const Uri& url) {
  std::string key = url.scheme() + "://" + url.host() + ":" +
                    std::to_string(url.port()) + url.path();
  if (!url.query().empty()) key += "?" + url.query();
  return key;
}

BlockCache::Shard& BlockCache::ShardFor(const UrlInfo* url,
                                        uint64_t block_index) const {
  // Consecutive blocks of one URL land on different shards, so a
  // sequential scan of one large object spreads over the whole budget
  // (and over all shard locks) instead of thrashing capacity/shards.
  size_t h = std::hash<const void*>{}(url) +
             static_cast<size_t>(block_index) * 0x9e3779b97f4a7c15ull;
  return *shards_[h % shards_.size()];
}

std::shared_ptr<BlockCache::UrlInfo> BlockCache::FindUrl(
    const std::string& url_key) const {
  MutexLock lock(registry_mu_);
  auto it = registry_.find(url_key);
  return it == registry_.end() ? nullptr : it->second;
}

uint64_t BlockCache::ReadPrefix(const std::string& url_key, uint64_t offset,
                                uint64_t length, char* dest) {
  if (!enabled() || length == 0) return 0;
  const uint64_t block_bytes = config_.block_bytes;
  uint64_t covered = 0;
  std::shared_ptr<UrlInfo> url_ref = FindUrl(url_key);
  UrlInfo* url = url_ref.get();
  if (url != nullptr &&
      url->block_count.load(std::memory_order_relaxed) > 0) {
    std::vector<Segment> segments;
    uint64_t pos = offset;
    const uint64_t end = offset + length;
    while (pos < end) {
      uint64_t index = pos / block_bytes;
      Shard& shard = ShardFor(url, index);
      std::shared_ptr<const std::string> payload;
      {
        MutexLock lock(shard.mu);
        auto it = shard.blocks.find(BlockKey{url, index});
        if (it == shard.blocks.end()) break;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
        payload = it->second.data;
      }
      uint64_t block_end = index * block_bytes + payload->size();
      if (block_end <= pos) break;  // short block ends before pos
      uint64_t take = std::min(end, block_end) - pos;
      segments.push_back(
          {std::move(payload), pos - index * block_bytes, covered, take});
      covered += take;
      pos += take;
      // A short block is the object's last: nothing follows it.
      if (segments.back().data->size() < block_bytes) break;
    }
    CopyOut(segments, dest);
  }
  if (covered > 0) {
    counters_->cache_hits.fetch_add(1);
    counters_->cache_bytes_saved.fetch_add(covered);
  }
  if (covered < length) counters_->cache_misses.fetch_add(1);
  return covered;
}

uint64_t BlockCache::ReadSuffix(const std::string& url_key, uint64_t offset,
                                uint64_t length, char* dest) {
  if (!enabled() || length == 0) return 0;
  const uint64_t block_bytes = config_.block_bytes;
  uint64_t covered = 0;
  std::shared_ptr<UrlInfo> url_ref = FindUrl(url_key);
  UrlInfo* url = url_ref.get();
  if (url != nullptr &&
      url->block_count.load(std::memory_order_relaxed) > 0) {
    std::vector<Segment> segments;
    const uint64_t end = offset + length;
    uint64_t pos_end = end;  // exclusive end of the uncovered span
    while (pos_end > offset) {
      uint64_t index = (pos_end - 1) / block_bytes;
      Shard& shard = ShardFor(url, index);
      std::shared_ptr<const std::string> payload;
      {
        MutexLock lock(shard.mu);
        auto it = shard.blocks.find(BlockKey{url, index});
        if (it == shard.blocks.end()) break;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
        payload = it->second.data;
      }
      uint64_t block_start = index * block_bytes;
      uint64_t block_end = block_start + payload->size();
      if (block_end < pos_end) break;  // block does not reach the span
      uint64_t from = std::max(offset, block_start);
      uint64_t take = pos_end - from;
      segments.push_back(
          {std::move(payload), from - block_start, from - offset, take});
      covered += take;
      pos_end = from;
    }
    CopyOut(segments, dest);
  }
  if (covered > 0) {
    counters_->cache_hits.fetch_add(1);
    counters_->cache_bytes_saved.fetch_add(covered);
  }
  return covered;
}

bool BlockCache::TryReadFull(const std::string& url_key, uint64_t offset,
                             uint64_t length, std::string* out) {
  if (!enabled() || length == 0) return false;
  const uint64_t block_bytes = config_.block_bytes;
  std::shared_ptr<UrlInfo> url_ref = FindUrl(url_key);
  UrlInfo* url = url_ref.get();
  if (url == nullptr ||
      url->block_count.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  std::vector<Segment> segments;
  uint64_t pos = offset;
  const uint64_t end = offset + length;
  while (pos < end) {
    uint64_t index = pos / block_bytes;
    Shard& shard = ShardFor(url, index);
    std::shared_ptr<const std::string> payload;
    {
      MutexLock lock(shard.mu);
      auto it = shard.blocks.find(BlockKey{url, index});
      if (it == shard.blocks.end()) return false;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      payload = it->second.data;
    }
    uint64_t block_end = index * block_bytes + payload->size();
    if (block_end <= pos) return false;
    uint64_t take = std::min(end, block_end) - pos;
    bool is_short = payload->size() < block_bytes;
    segments.push_back(
        {std::move(payload), pos - index * block_bytes, pos - offset, take});
    pos += take;
    if (pos < end && is_short) return false;
  }
  out->resize(length);
  CopyOut(segments, out->data());
  counters_->cache_hits.fetch_add(1);
  counters_->cache_bytes_saved.fetch_add(length);
  return true;
}

bool BlockCache::NoteValidator(const std::string& url_key,
                               const BlockValidator& v) {
  if (!enabled() || v.empty()) return false;
  MutexLock lock(registry_mu_);
  auto it = registry_.find(url_key);
  if (it == registry_.end()) return false;  // nothing resident to protect
  UrlInfo* url = it->second.get();
  bool purged = false;
  if (!url->validator.empty() && !(url->validator == v)) {
    PurgeBlocksOf(url);
    purged = true;
  }
  url->validator = v;
  ReclaimEmptiesLocked();
  return purged;
}

bool BlockCache::HasUrl(const std::string& url_key) const {
  if (!enabled()) return false;
  std::shared_ptr<UrlInfo> url = FindUrl(url_key);
  return url != nullptr &&
         url->block_count.load(std::memory_order_relaxed) > 0;
}

std::optional<BlockValidator> BlockCache::UrlValidator(
    const std::string& url_key) const {
  if (!enabled()) return std::nullopt;
  // Read under the registry lock: NoteValidator mutates the validator
  // in place there, and the block_count gate mirrors HasUrl.
  MutexLock lock(registry_mu_);
  auto it = registry_.find(url_key);
  if (it == registry_.end() ||
      it->second->block_count.load(std::memory_order_relaxed) == 0) {
    return std::nullopt;
  }
  return it->second->validator;
}

void BlockCache::RecordMisses(uint64_t lookups) {
  if (enabled() && lookups > 0) {
    counters_->cache_misses.fetch_add(lookups);
  }
}

bool BlockCache::Insert(const std::string& url_key,
                        const BlockValidator& validator, uint64_t offset,
                        std::string_view data, uint64_t total_size) {
  if (!enabled() || data.empty()) return false;
  const uint64_t block_bytes = config_.block_bytes;
  const uint64_t end = offset + data.size();

  // Aligned blocks the span fully covers; the final block may be short
  // when the span provably reaches the end of the object.
  uint64_t first = (offset + block_bytes - 1) / block_bytes;
  struct Slice {
    uint64_t index;
    std::shared_ptr<const std::string> payload;
  };
  std::vector<Slice> slices;
  for (uint64_t index = first;; ++index) {
    uint64_t block_start = index * block_bytes;
    if (block_start >= end) break;
    uint64_t block_end = block_start + block_bytes;
    if (total_size != 0) block_end = std::min(block_end, total_size);
    if (block_end > end || block_end <= block_start) break;
    slices.push_back(
        {index, std::make_shared<const std::string>(
                    data.substr(block_start - offset,
                                block_end - block_start))});
  }

  // The registry lock is held across validator reconciliation AND the
  // block inserts: a racing invalidation of the same URL can therefore
  // never interleave between them, which is what keeps "resident block
  // == current generation" an invariant. Fills are network-paced, so
  // this serialization is never the bottleneck.
  MutexLock lock(registry_mu_);
  auto [it, inserted] = registry_.try_emplace(url_key);
  if (inserted) {
    it->second = std::make_shared<UrlInfo>();
    it->second->key = url_key;
  }
  UrlInfo* url = it->second.get();
  bool purged = false;
  if (!validator.empty()) {
    if (!url->validator.empty() && !(url->validator == validator)) {
      PurgeBlocksOf(url);
      purged = true;
    }
    url->validator = validator;
  }
  for (Slice& slice : slices) {
    if (slice.payload->size() > shard_budget_) continue;  // can never fit
    Shard& shard = ShardFor(url, slice.index);
    MutexLock shard_lock(shard.mu);
    auto [block_it, fresh] =
        shard.blocks.try_emplace(BlockKey{url, slice.index});
    Block& block = block_it->second;
    if (!fresh) {
      // Same generation, same bytes: refresh recency, keep the payload.
      shard.lru.splice(shard.lru.begin(), shard.lru, block.lru_it);
      continue;
    }
    shard.lru.push_front(BlockKey{url, slice.index});
    block.lru_it = shard.lru.begin();
    shard.resident_bytes += slice.payload->size();
    url->block_count.fetch_add(1, std::memory_order_relaxed);
    counters_->cache_bytes_inserted.fetch_add(slice.payload->size());
    counters_->cache_insertions.fetch_add(1);
    block.data = std::move(slice.payload);
    EvictLocked(&shard);
  }
  // Covers the corner where every slice was skipped (oversized blocks)
  // or immediately evicted: an entry left without blocks is reclaimed.
  if (url->block_count.load(std::memory_order_relaxed) == 0) {
    empties_.push_back(url_key);
  }
  ReclaimEmptiesLocked();
  return purged;
}

void BlockCache::RemoveBlockLocked(
    Shard* shard, std::map<BlockKey, Block, BlockKeyLess>::iterator it,
    Counter* counter) {
  shard->resident_bytes -= it->second.data->size();
  shard->lru.erase(it->second.lru_it);
  UrlInfo* url = it->first.first;
  if (url->block_count.fetch_sub(1, std::memory_order_relaxed) == 1) {
    // Last block gone: queue the registry entry for reclamation by the
    // mutator that holds registry_mu_ right now.
    empties_.push_back(url->key);
  }
  shard->blocks.erase(it);
  counter->fetch_add(1);
}

void BlockCache::EvictLocked(Shard* shard) {
  while (shard->resident_bytes > shard_budget_ && !shard->lru.empty()) {
    RemoveBlockLocked(shard, shard->blocks.find(shard->lru.back()),
                      &counters_->cache_evictions);
  }
}

void BlockCache::PurgeBlocksOf(UrlInfo* url) {
  purge_epoch_.fetch_add(1, std::memory_order_acq_rel);
  for (std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    MutexLock lock(shard->mu);
    auto it = shard->blocks.lower_bound(BlockKey{url, 0});
    while (it != shard->blocks.end() && it->first.first == url) {
      auto next = std::next(it);
      RemoveBlockLocked(shard, it, &counters_->cache_invalidations);
      it = next;
    }
  }
}

void BlockCache::ReclaimEmptiesLocked() {
  for (const std::string& key : empties_) {
    auto it = registry_.find(key);
    if (it != registry_.end() &&
        it->second->block_count.load(std::memory_order_relaxed) == 0) {
      // In-flight lookups may still hold the shared_ptr; the record
      // itself stays alive until they drop it.
      registry_.erase(it);
    }
  }
  empties_.clear();
}

void BlockCache::PurgeUrl(const std::string& url_key) {
  if (!enabled()) return;
  MutexLock lock(registry_mu_);
  auto it = registry_.find(url_key);
  if (it == registry_.end()) return;
  PurgeBlocksOf(it->second.get());
  ReclaimEmptiesLocked();
}

void BlockCache::Clear() {
  if (!enabled()) return;
  MutexLock lock(registry_mu_);
  for (auto& [key, url] : registry_) {
    PurgeBlocksOf(url.get());
  }
  registry_.clear();
  empties_.clear();
}

BlockCacheResidency BlockCache::Residency() const {
  BlockCacheResidency out;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    const Shard* shard = shard_ptr.get();
    MutexLock lock(shard->mu);
    out.resident_bytes += shard->resident_bytes;
    out.resident_blocks += shard->lru.size();
  }
  return out;
}

}  // namespace core
}  // namespace davix
