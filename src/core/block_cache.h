#ifndef DAVIX_CORE_BLOCK_CACHE_H_
#define DAVIX_CORE_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/stats.h"
#include "common/uri.h"

namespace davix {
namespace core {

/// HTTP validation metadata observed on a response for one resource
/// (RFC 9110 §8.8). Captured at block-fill time and compared on every
/// later fill: a change means the remote object was replaced, so the
/// cached blocks are stale and must be dropped.
struct BlockValidator {
  std::string etag;
  int64_t mtime_epoch_seconds = 0;

  /// True when neither validator is present (server sent no ETag and no
  /// Last-Modified) — such responses never invalidate existing blocks.
  bool empty() const { return etag.empty() && mtime_epoch_seconds == 0; }

  friend bool operator==(const BlockValidator& a, const BlockValidator& b) {
    return a.etag == b.etag &&
           a.mtime_epoch_seconds == b.mtime_epoch_seconds;
  }
};

/// Shape knobs of the per-Context block cache. Every knob follows the
/// repository's 0 = auto/disabled convention.
struct BlockCacheConfig {
  /// Total payload-byte budget across all shards. 0 (default) disables
  /// the cache entirely: every operation becomes a no-op and all read
  /// paths behave bit-identically to a cache-less build.
  uint64_t capacity_bytes = 0;
  /// Cache line size: remote objects are cached as aligned blocks of
  /// this many bytes (the final block of an object may be shorter).
  /// 0 = default 256 KiB.
  uint64_t block_bytes = 0;
  /// Lock shards. Blocks are spread over the shards by
  /// (URL, block index) hash, so one large object uses the whole
  /// budget, not capacity/shards. 0 = auto (8).
  size_t shards = 0;
};

/// Point-in-time residency of the cache, read coherently per shard (not
/// across shards). A gauge, not a counter: a counter reset leaves it be.
struct BlockCacheResidency {
  uint64_t resident_bytes = 0;  ///< payload bytes held right now
  uint64_t resident_blocks = 0; ///< blocks held right now
};

/// Bounded, sharded LRU block cache shared by every read path of one
/// `Context` — the layer that removes redundant transfers from repeated-
/// access workloads (the "caching" direction of the ROADMAP): a warm
/// re-read of data any path already fetched is served from memory
/// instead of the wire.
///
/// Keying: `(canonical URL, block index)`. The canonical URL (UrlKey)
/// drops userinfo and fragments and always spells the port, so replica
/// fail-over reads and differently-spelled aliases of one resource share
/// blocks keyed by the primary URL. Objects are cached as aligned
/// `block_bytes` lines; only blocks fully covered by a fetched span are
/// inserted (plus the final short block when the object size is known),
/// so cached bytes are always exactly what the server sent.
///
/// Validation: the fill path records the response's ETag/Last-Modified.
/// A later fill observing different validators drops every cached block
/// of that URL before inserting the new data — a changed remote object
/// can never be patched together from two generations. Read paths may
/// additionally revalidate with a HEAD per
/// `RequestParams::cache_revalidation`.
///
/// Ownership: owned by `Context`, same lifetime; never owns network
/// state. Block payloads are handed out by `shared_ptr`, so an eviction
/// or invalidation racing an in-flight read only drops the cache's
/// reference — the reader's copy-out stays valid.
///
/// Thread-safe: yes. Blocks are spread over lock
/// shards by (URL, block index) hash; lookups take only the shard
/// mutexes they touch, with payload copy-out outside the lock.
/// Mutations (fills, invalidations) additionally serialize on a small
/// URL registry mutex — the lock that makes "a resident block always
/// belongs to the URL's current validator generation" an invariant —
/// which is cheap because fills are network-paced. Lock order:
/// registry, then shard.
class BlockCache {
 public:
  /// Counts the cache_* lines of `counters` (the Context's table).
  explicit BlockCache(
      BlockCacheConfig config,
      std::shared_ptr<IoCounters> counters = std::make_shared<IoCounters>());

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// False when constructed with capacity_bytes == 0; every other method
  /// is then a cheap no-op.
  bool enabled() const { return config_.capacity_bytes > 0; }

  uint64_t block_bytes() const { return config_.block_bytes; }
  const BlockCacheConfig& config() const { return config_; }

  /// Canonical cache key for `url`: scheme://host:port/path?query —
  /// explicit port, no userinfo, no fragment.
  static std::string UrlKey(const Uri& url);

  /// Copies the longest cached prefix of [offset, offset+length) into
  /// `dest` (which must hold `length` bytes) and returns its size; 0
  /// when the first byte is not cached. Counts one miss when the span
  /// could not be served completely.
  uint64_t ReadPrefix(const std::string& url_key, uint64_t offset,
                      uint64_t length, char* dest);

  /// Copies the longest cached suffix of [offset, offset+length) into
  /// the tail of `dest` (the span's base pointer, suffix bytes land at
  /// dest[length-n .. length)) and returns its size. Never counts a
  /// miss — it runs after ReadPrefix already accounted for the span.
  uint64_t ReadSuffix(const std::string& url_key, uint64_t offset,
                      uint64_t length, char* dest);

  /// All-or-nothing read of [offset, offset+length) into `*out` — the
  /// read-ahead window's synchronous probe. Counts a hit on success and
  /// nothing on failure (the fallback network fetch re-consults the
  /// cache and accounts the miss there).
  bool TryReadFull(const std::string& url_key, uint64_t offset,
                   uint64_t length, std::string* out);

  /// Records the validators observed on a response for `url_key`. A
  /// mismatch with previously recorded validators drops every cached
  /// block of the URL (counted as invalidations). Empty validators are
  /// ignored, and so are URLs with nothing resident — there is nothing
  /// stale to protect, and the next fill records its own validators —
  /// which keeps the registry from accumulating entries for URLs that
  /// are opened but never read. Returns true when blocks were
  /// invalidated.
  bool NoteValidator(const std::string& url_key, const BlockValidator& v);

  /// True when any block of `url_key` is resident (used to skip
  /// revalidation HEADs that could not possibly save anything).
  bool HasUrl(const std::string& url_key) const;

  /// Validators currently recorded for `url_key` while any of its
  /// blocks is resident; nullopt otherwise. Multi-source readers
  /// (core::ReplicaSet) compare this against their agreed generation
  /// before delivering a cache-probe hit, so a cache refilled by a
  /// concurrent reader observing a newer object can never leak
  /// mixed-generation bytes into an in-flight stream.
  std::optional<BlockValidator> UrlValidator(
      const std::string& url_key) const;

  /// Accounts `lookups` misses without performing them. Read paths
  /// that skip per-range lookups after a negative HasUrl probe call
  /// this so the hit/miss ratio still reflects every read that went to
  /// the wire.
  void RecordMisses(uint64_t lookups);

  /// Monotonic counter bumped whenever any URL's blocks are purged
  /// (validator mismatch, PurgeUrl, Clear) — by this thread or any
  /// other. A read path snapshots it before serving cached bytes and
  /// compares after its network fill: a change means some generation
  /// turnover happened mid-read (possibly via a concurrent dispatch),
  /// so bytes already served from the cache may predate the object the
  /// wire just answered for, and the read must be refetched coherently.
  uint64_t PurgeEpoch() const {
    return purge_epoch_.load(std::memory_order_acquire);
  }

  /// Slices [offset, offset+data.size()) into aligned blocks and inserts
  /// every block the span fully covers. `total_size` (0 = unknown)
  /// additionally permits the final short block of the object. Records
  /// `validator` first (see NoteValidator), so a fill from a new
  /// generation of the object atomically replaces the old one. Returns
  /// true when that reconciliation purged a previous generation — the
  /// signal read paths use to detect that bytes they already served
  /// from the cache belonged to a replaced object.
  bool Insert(const std::string& url_key, const BlockValidator& validator,
              uint64_t offset, std::string_view data,
              uint64_t total_size = 0);

  /// Drops every cached block of `url_key` (counted as invalidations).
  void PurgeUrl(const std::string& url_key);

  /// Drops everything (counted as invalidations).
  void Clear();

  /// The counter table this cache counts into. Hits are lookups
  /// (prefix, suffix or probe) that served bytes; misses found no usable
  /// block.
  IoCounters& stats() { return *counters_; }

  BlockCacheResidency Residency() const;

 private:
  /// Interned per-URL record; block keys reference it by raw pointer
  /// while the registry (and any in-flight lookup) keeps it alive via
  /// shared_ptr. Entries are reclaimed when their last resident block
  /// leaves the cache, so the registry is bounded by the URLs that
  /// currently have cached data, not by every URL ever touched.
  struct UrlInfo {
    /// Registry key, kept here so block removal can queue the entry
    /// for reclamation.
    std::string key;
    /// Guarded by the cache's registry_mu_ (not expressible as a
    /// GUARDED_BY: the guard lives on the enclosing BlockCache).
    BlockValidator validator;
    /// Resident blocks of this URL (maintained under shard locks);
    /// lets HasUrl answer without sweeping the shards.
    std::atomic<uint64_t> block_count{0};
  };

  /// (url, block index) identity of one resident block.
  using BlockKey = std::pair<UrlInfo*, uint64_t>;

  /// Total order on BlockKey via std::less on the pointer half, so one
  /// URL's blocks are a contiguous key range (lower_bound sweep on
  /// purge) without relying on raw pointer operator<.
  struct BlockKeyLess {
    bool operator()(const BlockKey& a, const BlockKey& b) const {
      if (a.first != b.first) return std::less<UrlInfo*>{}(a.first, b.first);
      return a.second < b.second;
    }
  };

  struct Block {
    /// Payload, shared with in-flight readers so eviction never
    /// invalidates a concurrent copy-out.
    std::shared_ptr<const std::string> data;
    std::list<BlockKey>::iterator lru_it;
  };

  struct Shard {
    mutable Mutex mu;
    std::map<BlockKey, Block, BlockKeyLess> blocks GUARDED_BY(mu);
    std::list<BlockKey> lru GUARDED_BY(mu);  ///< front = most recently used
    uint64_t resident_bytes GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const UrlInfo* url, uint64_t block_index) const;

  /// Registry lookup (registry lock taken inside); null when the URL
  /// has no registry entry. The shared_ptr keeps the record alive for
  /// the duration of a lookup even if a concurrent mutation reclaims
  /// the registry entry.
  std::shared_ptr<UrlInfo> FindUrl(const std::string& url_key) const;

  /// Drops one block by map iterator. Caller holds the shard lock AND
  /// the registry lock (every removal path is a mutator): an entry
  /// whose last block goes is queued on `empties_` for reclamation.
  void RemoveBlockLocked(Shard* shard,
                         std::map<BlockKey, Block, BlockKeyLess>::iterator it,
                         Counter* counter)
      REQUIRES(shard->mu, registry_mu_);
  /// Evicts LRU-tail blocks until the shard fits its budget (shard and
  /// registry locks held).
  void EvictLocked(Shard* shard) REQUIRES(shard->mu, registry_mu_);
  /// Drops every block of `url` across all shards (registry lock held
  /// by the caller), counting invalidations.
  void PurgeBlocksOf(UrlInfo* url) REQUIRES(registry_mu_);
  /// Erases registry entries queued on `empties_` that still have no
  /// blocks (registry lock held). Runs at the end of every mutator.
  void ReclaimEmptiesLocked() REQUIRES(registry_mu_);

  BlockCacheConfig config_;
  uint64_t shard_budget_ = 0;
  mutable std::vector<std::unique_ptr<Shard>> shards_;

  /// Guards the registry map and serializes every mutation that can
  /// change which generation of a URL is resident (Insert,
  /// NoteValidator, PurgeUrl, Clear). Lock order: registry_mu_ before
  /// any shard mutex.
  mutable Mutex registry_mu_;
  std::map<std::string, std::shared_ptr<UrlInfo>> registry_
      GUARDED_BY(registry_mu_);
  /// Keys of entries whose last block was just removed; reclaimed at
  /// the end of the mutator that emptied them.
  std::vector<std::string> empties_ GUARDED_BY(registry_mu_);

  std::shared_ptr<IoCounters> counters_;
  /// See PurgeEpoch(). Bumped under registry_mu_ by PurgeBlocksOf.
  std::atomic<uint64_t> purge_epoch_{0};
};

}  // namespace core
}  // namespace davix

#endif  // DAVIX_CORE_BLOCK_CACHE_H_
