#ifndef DAVIX_ROOT_TREE_CACHE_H_
#define DAVIX_ROOT_TREE_CACHE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "root/tree_reader.h"

namespace davix {
namespace root {

/// TreeCache knobs.
struct TreeCacheConfig {
  /// Learn the access pattern and gather the baskets of a whole cluster
  /// window into one vectored read. Disabling reproduces the naive
  /// client: one remote read per basket — the §2.3 "very large number of
  /// individual data access operations".
  bool enabled = true;

  /// Basket rows (cluster steps) fetched per vectored read. All baskets
  /// of a cluster are decompressed together, in parallel, when it loads.
  uint32_t cluster_rows = 4;

  /// Overlap the fetch of upcoming clusters with consumption of the
  /// current one when the transport supports asynchronous vectored reads
  /// (both the XRootD adapter and the dispatcher-backed davix adapter
  /// do). Off by default: the synchronous behaviour is the paper's
  /// davix design point that Figure 4's WAN column exposes. On, the first
  /// cluster load puts one window of upcoming clusters on the wire
  /// together with cluster 0's synchronous fetch (the "first fill");
  /// `prefetch_latency_threshold_micros` decides whether it is refilled.
  bool async_prefetch = false;

  /// How many future clusters may be in flight at once — the pipeline
  /// depth. Depth 1 reproduces the classic "one pending prefetch"
  /// sliding window; depth >= 2 keeps a fetch in flight even while the
  /// just-arrived cluster is being decompressed, which is what hides
  /// full WAN round trips behind compute. Clamped to at least 1.
  uint32_t prefetch_pipeline_clusters = 2;

  /// Byte budget of the asynchronous prefetch window (the "sliding
  /// window" of §3): at most this many bytes may be requested early
  /// across all in-flight prefetches; a cluster whose prefix exhausts
  /// the budget is requested partially and the remainder is fetched
  /// synchronously on arrival (never refetching the early bytes).
  /// 0 = no byte cap; the window is bounded by the pipeline depth only.
  uint64_t prefetch_window_bytes = 2 * 1024 * 1024;

  /// Adaptive engagement: read-ahead only pays off on high-latency
  /// paths, so (like adaptive readahead in real HPC clients) the window
  /// keeps refilling only once a fully-synchronous cluster fetch has
  /// taken longer than this threshold. The latch times cluster 0's fetch
  /// but does not gate the first fill: nothing is known about the path
  /// before it, and waiting for that fetch would start the window on cold
  /// connections. An unlatched (LAN-class) path therefore gets at most
  /// `prefetch_pipeline_clusters` early clusters, then reads
  /// synchronously. 0 engages the window unconditionally.
  int64_t prefetch_latency_threshold_micros = 0;
};

/// I/O accounting the benchmarks report.
struct TreeCacheStats {
  uint64_t vector_reads = 0;      ///< vectored read calls issued
  uint64_t ranges_requested = 0;  ///< basket ranges inside them
  uint64_t bytes_fetched = 0;     ///< payload bytes delivered to the cache
  uint64_t clusters_fetched = 0;
  uint64_t async_prefetches = 0;  ///< prefetches consumed by a cluster load
  uint64_t single_reads = 0;      ///< per-basket reads (cache disabled)
  /// Bytes that arrived through a consumed prefetch — the early-requested
  /// portion of bytes_fetched (the rest came from synchronous remainders).
  uint64_t bytes_prefetched_early = 0;
  /// Prefetches discarded because the consumer seeked elsewhere (or the
  /// cache was destroyed with fetches in flight). Their bytes are not
  /// counted in bytes_fetched.
  uint64_t prefetch_discards = 0;
  /// Time spent blocked waiting on consumed prefetches. The overlap win
  /// is the fetch latency this number does NOT contain: a prefetch fully
  /// hidden behind compute contributes ~0 here.
  uint64_t prefetch_wait_micros = 0;
};

/// The TTreeCache reproduction (§2.3): "this feature allows to gather
/// and pack a large number of fragmented random I/O requests ... in a
/// large vectored query", which davix then turns into HTTP multi-range
/// requests.
///
/// Baskets are served from a per-cluster cache; moving into a new
/// cluster triggers one vectored read covering the active branches'
/// baskets for `cluster_rows` basket rows. With async_prefetch on and an
/// async-capable transport, upcoming clusters are fetched through a
/// pipelined sliding window (up to `prefetch_pipeline_clusters` in
/// flight, `prefetch_window_bytes` requested early) so fetch overlaps
/// decompression and compute — on both XRootD and davix transports.
/// Once a cluster's blobs are assembled, all of them are decompressed
/// at once across a pool the cache owns, as TTreeCacheUnzip does.
///
/// Not thread-safe: one cache per analysis job, like TTreeCache. (The
/// in-flight prefetches it owns run on the transport's own threads; the
/// destructor drains them before returning. Decompression runs on the
/// cache's pool only inside a cluster load, which the caller waits out.)
class TreeCache {
 public:
  /// `reader` must outlive the cache. `active_branches` are indices into
  /// the tree's branch list; empty means all branches.
  TreeCache(TreeReader* reader, std::vector<size_t> active_branches,
            TreeCacheConfig config = {});

  /// Drains any in-flight prefetches (counted as discards) so no
  /// transport callback outlives the cache or its file.
  ~TreeCache();

  /// Declares that the job reads no basket row at or past `end_row`, like
  /// TTreeCache::SetEntryRange: cluster plans stop there, so neither the
  /// prefetch window nor a cluster fetch requests bytes the job will not
  /// use. A basket past it is still served, by a single read. Call it
  /// before the first GetBasket; values past the tree's end are clamped.
  void SetEndRow(uint64_t end_row);

  /// Decompressed basket `row` of branch `branch`. The returned pointer
  /// stays valid until the cache moves two clusters ahead.
  Result<std::shared_ptr<const std::string>> GetBasket(size_t branch,
                                                       uint64_t row);

  const TreeCacheStats& stats() const { return stats_; }
  const TreeCacheConfig& config() const { return config_; }

 private:
  using BasketKey = std::pair<size_t, uint64_t>;  // (branch, row)

  struct Cluster {
    uint64_t first_row = 0;
    /// Raw (still compressed) blobs: fetched but not yet decoded, or
    /// failed to decode (GetBasket then reports the error on that basket).
    std::map<BasketKey, std::string> blobs;
    /// Decompressed baskets.
    std::map<BasketKey, std::shared_ptr<const std::string>> decoded;
  };

  /// One in-flight async prefetch of (a prefix of) a future cluster.
  struct Prefetch {
    uint64_t first_row = 0;
    std::vector<BasketKey> keys;  // range order
    std::vector<http::ByteRange> ranges;
    std::unique_ptr<PendingVecRead> pending;
    /// Sum of the requested range lengths, held against the window
    /// budget until the prefetch is consumed or discarded.
    uint64_t planned_bytes = 0;
    /// True when the byte budget truncated this cluster's plan (only a
    /// prefix was requested); deeper pipelining stops at such an entry.
    bool truncated = false;
  };

  uint64_t ClusterOf(uint64_t row) const {
    return row / config_.cluster_rows;
  }

  /// Ranges + keys of cluster starting at `first_row`, capped at
  /// `byte_budget` (0 = no cap) and at end_row_. Ranges follow
  /// file-offset order.
  void PlanCluster(uint64_t first_row, uint64_t byte_budget,
                   std::vector<BasketKey>* keys,
                   std::vector<http::ByteRange>* ranges) const;

  /// Makes `cluster_` hold the cluster containing `row`: consumes the
  /// matching pipelined prefetch (discarding mismatched ones), fetches
  /// the uncovered remainder synchronously, tops the pipeline back up
  /// with fetches of upcoming clusters, then decodes the cluster.
  Status LoadCluster(uint64_t row);

  /// Decodes every blob of `cluster` in parallel on decode_pool_ (the
  /// calling thread takes part) and moves it into `decoded`. A blob that
  /// fails to decode stays in `blobs`.
  void DecodeCluster(Cluster* cluster);

  /// Pops the front pipeline entry, waits out its transport call, and
  /// counts it as a discard (its bytes are dropped).
  void DiscardFrontPrefetch();

  /// True once the window may refill: unconditionally without a latency
  /// threshold, otherwise after the latch has tripped.
  bool RefillEngaged() const {
    return config_.prefetch_latency_threshold_micros == 0 ||
           high_latency_path_;
  }

  /// Starts new prefetches for clusters after `current_first_row` (or
  /// after the deepest already in flight) until the pipeline depth, the
  /// window byte budget or end_row_ is reached. No-op unless
  /// async_prefetch is on and the transport supports async reads.
  void TopUpPipeline(uint64_t current_first_row);

  TreeReader* reader_;
  std::vector<size_t> active_branches_;
  TreeCacheConfig config_;
  TreeCacheStats stats_;
  /// Basket rows at or past this are never planned into a cluster fetch.
  uint64_t end_row_ = 0;
  std::unique_ptr<Cluster> cluster_;
  /// Decompression workers: hardware_concurrency() - 1 (at least one);
  /// the loading thread is the last executor. Null in naive mode.
  std::unique_ptr<ThreadPool> decode_pool_;
  /// In-flight prefetches, ordered by first_row (front = next expected).
  std::deque<Prefetch> pipeline_;
  /// Sum of planned_bytes across pipeline_ — the window occupancy.
  uint64_t inflight_prefetch_bytes_ = 0;
  /// Latched true once a synchronous fetch crossed the latency
  /// threshold; gates refills of the async window when a threshold is
  /// configured.
  bool high_latency_path_ = false;
  /// Naive-mode state: current basket per branch.
  std::map<size_t, std::pair<uint64_t, std::shared_ptr<const std::string>>>
      last_basket_;
};

}  // namespace root
}  // namespace davix

#endif  // DAVIX_ROOT_TREE_CACHE_H_
