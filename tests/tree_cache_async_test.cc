// Directed tests of the pipelined TreeCache prefetch window and the
// StorageAdapter registry:
//  - the pipeline genuinely overlaps fetch with consumption (proven with
//    a latch-gated fake transport, no timing assumptions),
//  - the byte budget caps early-requested bytes without ever refetching
//    or skipping a basket byte,
//  - budget-truncated prefixes are only issued as the immediate next
//    cluster, never deep in the pipeline,
//  - the first fill goes on the wire before cluster 0's demand fetch, and
//    an unlatched path never refills it,
//  - the end row keeps the window from fetching past the job's last row,
//  - parallel cluster decode is byte-identical to serial decode, and a
//    corrupt basket fails alone,
//  - seeks discard stale in-flight prefetches (counted, drained),
//  - in-flight errors degrade to the synchronous path: a failed prefetch
//    alone never surfaces, a failed prefetch plus a failed fallback
//    surfaces once and the cache recovers afterwards,
//  - the async davix adapter is byte-exact against the sync mode under
//    injected server faults,
//  - URL scheme -> transport resolution through StorageAdapterRegistry,
//  - a remote tree opens in one request: TreeReader::Open reads the
//    file head once and only an index's missing suffix after it, and
//    the davix open checks the head response it gets.

#include <atomic>
#include <condition_variable>
#include <mutex>

#include "common/clock.h"
#include "core/context.h"
#include "muxhttp/mux.h"
#include "netsim/link_profile.h"
#include "root/analysis_job.h"
#include "root/storage_adapter.h"
#include "root/transport_adapters.h"
#include "root/tree_cache.h"
#include "root/tree_format.h"
#include "root/tree_reader.h"
#include "test_util.h"
#include "xrootd/xrd_server.h"

#include "gtest/gtest.h"

namespace davix {
namespace root {
namespace {

TreeSpec SmallSpec() {
  TreeSpec spec;
  spec.n_events = 1000;
  spec.events_per_basket = 100;
  spec.codec = compress::CodecType::kDlz;
  spec.branches = {{"id", 8}, {"pt", 4}, {"cells", 64}};
  return spec;
}

/// One-shot gate the fake transports block on.
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void WaitOpen() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// In-memory transport whose async vectored reads complete only once the
/// test opens the gate. PReadVecAsync returns immediately (the "issue"
/// side is non-blocking); Wait blocks on the gate, then serves bytes.
/// Started-call and byte accounting let tests prove overlap and exact
/// byte volumes without any sleeps.
class LatchVecFile : public RandomAccessFile {
 public:
  explicit LatchVecFile(std::string data) : data_(std::move(data)) {}

  uint64_t Size() const override { return data_.size(); }

  Result<std::string> PRead(uint64_t offset, uint64_t length) override {
    bytes_requested_ += length;
    return Slice(offset, length);
  }

  Result<std::vector<std::string>> PReadVec(
      const std::vector<http::ByteRange>& ranges) override {
    ++sync_vec_calls_;
    call_order_ += 's';
    std::vector<std::string> out;
    for (const http::ByteRange& r : ranges) {
      bytes_requested_ += r.length;
      DAVIX_ASSIGN_OR_RETURN(std::string blob, Slice(r.offset, r.length));
      out.push_back(std::move(blob));
    }
    return out;
  }

  bool SupportsAsyncVec() const override { return true; }

  std::unique_ptr<PendingVecRead> PReadVecAsync(
      const std::vector<http::ByteRange>& ranges) override {
    ++async_calls_started_;
    call_order_ += 'a';
    uint64_t bytes = 0;
    for (const http::ByteRange& r : ranges) bytes += r.length;
    last_async_bytes_ = bytes;
    async_ranges_.insert(async_ranges_.end(), ranges.begin(), ranges.end());
    class Pending : public PendingVecRead {
     public:
      Pending(LatchVecFile* file, std::vector<http::ByteRange> ranges)
          : file_(file), ranges_(std::move(ranges)) {}
      Result<std::vector<std::string>> Wait() override {
        file_->gate_.WaitOpen();
        std::vector<std::string> out;
        for (const http::ByteRange& r : ranges_) {
          file_->bytes_requested_ += r.length;
          DAVIX_ASSIGN_OR_RETURN(std::string blob,
                                 file_->Slice(r.offset, r.length));
          out.push_back(std::move(blob));
        }
        return out;
      }

     private:
      LatchVecFile* file_;
      std::vector<http::ByteRange> ranges_;
    };
    return std::make_unique<Pending>(this, ranges);
  }

  void OpenGate() { gate_.Open(); }
  uint64_t async_calls_started() const { return async_calls_started_; }
  uint64_t last_async_bytes() const { return last_async_bytes_; }
  uint64_t sync_vec_calls() const { return sync_vec_calls_; }
  uint64_t bytes_requested() const { return bytes_requested_; }
  /// One letter per vectored call, in call order: 'a' async, 's' sync.
  const std::string& call_order() const { return call_order_; }
  /// Every range any async call asked for.
  const std::vector<http::ByteRange>& async_ranges() const {
    return async_ranges_;
  }

 private:
  Result<std::string> Slice(uint64_t offset, uint64_t length) const {
    if (offset > data_.size()) return Status::InvalidArgument("offset > size");
    return data_.substr(offset, length);
  }

  std::string data_;
  Gate gate_;
  // Vectored calls are issued by the cache's own thread only.
  std::string call_order_;
  std::vector<http::ByteRange> async_ranges_;
  std::atomic<uint64_t> async_calls_started_{0};
  std::atomic<uint64_t> last_async_bytes_{0};
  std::atomic<uint64_t> sync_vec_calls_{0};
  std::atomic<uint64_t> bytes_requested_{0};
};

/// Transport whose async reads (and optionally sync reads) fail while
/// `break_async` / `break_sync` are set. Serves from memory otherwise.
class FlakyVecFile : public RandomAccessFile {
 public:
  explicit FlakyVecFile(std::string data) : data_(std::move(data)) {}

  uint64_t Size() const override { return data_.size(); }
  Result<std::string> PRead(uint64_t offset, uint64_t length) override {
    return data_.substr(std::min<uint64_t>(offset, data_.size()), length);
  }

  Result<std::vector<std::string>> PReadVec(
      const std::vector<http::ByteRange>& ranges) override {
    if (break_sync) return Status::ConnectionFailed("injected sync failure");
    std::vector<std::string> out;
    for (const http::ByteRange& r : ranges) {
      out.push_back(data_.substr(r.offset, r.length));
    }
    return out;
  }

  bool SupportsAsyncVec() const override { return true; }

  std::unique_ptr<PendingVecRead> PReadVecAsync(
      const std::vector<http::ByteRange>& ranges) override {
    class Pending : public PendingVecRead {
     public:
      Pending(FlakyVecFile* file, std::vector<http::ByteRange> ranges)
          : file_(file), ranges_(std::move(ranges)) {}
      Result<std::vector<std::string>> Wait() override {
        if (file_->break_async) {
          return Status::ConnectionFailed("injected async failure");
        }
        return file_->PReadVec(ranges_);
      }

     private:
      FlakyVecFile* file_;
      std::vector<http::ByteRange> ranges_;
    };
    return std::make_unique<Pending>(this, ranges);
  }

  bool break_async = false;
  bool break_sync = false;

 private:
  std::string data_;
};

uint64_t ClusterStoredBytes(const TreeIndex& index, uint64_t first_row,
                            uint32_t cluster_rows) {
  uint64_t total = 0;
  uint64_t last = std::min<uint64_t>(first_row + cluster_rows,
                                     index.spec.BasketCountPerBranch());
  for (uint64_t row = first_row; row < last; ++row) {
    for (const auto& branch : index.baskets) total += branch[row].stored_length;
  }
  return total;
}

// ----------------------------------------------------------- pipelining

TEST(TreeCachePipelineTest, OverlapsFetchWithConsumption) {
  TreeSpec spec = SmallSpec();
  std::string tree = BuildTreeFile(spec, 11);
  LatchVecFile file(tree);
  ASSERT_OK_AND_ASSIGN(TreeReader reader, TreeReader::Open(&file));

  TreeCacheConfig config;
  config.cluster_rows = 2;
  config.async_prefetch = true;
  config.prefetch_pipeline_clusters = 2;
  config.prefetch_window_bytes = 0;  // depth-bounded only
  TreeCache cache(&reader, {}, config);

  // Cluster 0 loads synchronously; the top-up then issues the next two
  // clusters. GetBasket returning while the gate is still closed proves
  // the issue side never blocks on completion — the fetches are in
  // flight while the caller is free to compute.
  ASSERT_OK(cache.GetBasket(0, 0).status());
  EXPECT_EQ(file.async_calls_started(), 2u);
  EXPECT_EQ(cache.stats().async_prefetches, 0u);

  file.OpenGate();
  // 10 rows / 2 per cluster = clusters 0..4; read everything.
  for (uint64_t row = 0; row < spec.BasketCountPerBranch(); ++row) {
    for (size_t b = 0; b < spec.branches.size(); ++b) {
      ASSERT_OK(cache.GetBasket(b, row).status());
    }
  }
  EXPECT_EQ(cache.stats().async_prefetches, 4u);  // clusters 1..4
  EXPECT_EQ(cache.stats().prefetch_discards, 0u);
  EXPECT_EQ(file.async_calls_started(), 4u);
}

TEST(TreeCachePipelineTest, WindowBudgetCapsEarlyBytesWithoutRefetch) {
  TreeSpec spec = SmallSpec();
  std::string tree = BuildTreeFile(spec, 12);
  ASSERT_OK_AND_ASSIGN(TreeIndex index, ParseTreeIndex(tree));
  uint64_t cluster_bytes = ClusterStoredBytes(index, 2, 2);

  auto run = [&](bool async, uint64_t window) {
    LatchVecFile file(tree);
    file.OpenGate();
    struct Out {
      TreeCacheStats stats;
      uint64_t transport_bytes;
    } out;
    {
      auto reader = TreeReader::Open(&file);
      EXPECT_TRUE(reader.ok());
      TreeCacheConfig config;
      config.cluster_rows = 2;
      config.async_prefetch = async;
      config.prefetch_pipeline_clusters = 3;
      config.prefetch_window_bytes = window;
      TreeCache cache(&*reader, {}, config);
      for (uint64_t row = 0; row < spec.BasketCountPerBranch(); ++row) {
        for (size_t b = 0; b < spec.branches.size(); ++b) {
          EXPECT_TRUE(cache.GetBasket(b, row).ok());
        }
      }
      out.stats = cache.stats();
    }
    out.transport_bytes = file.bytes_requested();
    return out;
  };

  auto sync_run = run(false, 0);
  // Window smaller than one cluster: every prefetch is a truncated
  // prefix, the remainder arrives synchronously.
  auto capped = run(true, cluster_bytes / 2);

  EXPECT_GT(capped.stats.bytes_prefetched_early, 0u);
  EXPECT_LT(capped.stats.bytes_prefetched_early, capped.stats.bytes_fetched);
  // The budget is a scheduling constraint, not a data-volume one: byte
  // volume is identical to the sync mode, at the cache stats level and
  // at the transport level (nothing fetched twice, nothing skipped).
  EXPECT_EQ(capped.stats.bytes_fetched, sync_run.stats.bytes_fetched);
  EXPECT_EQ(capped.transport_bytes, sync_run.transport_bytes);

  // Unlimited window: everything after cluster 0 arrives early.
  auto open = run(true, 0);
  EXPECT_EQ(open.stats.bytes_fetched, sync_run.stats.bytes_fetched);
  EXPECT_EQ(open.transport_bytes, sync_run.transport_bytes);
  EXPECT_GT(open.stats.bytes_prefetched_early,
            capped.stats.bytes_prefetched_early);
}

TEST(TreeCachePipelineTest, TruncatedPrefixOnlyIssuedAtPipelineFront) {
  TreeSpec spec = SmallSpec();
  std::string tree = BuildTreeFile(spec, 13);
  ASSERT_OK_AND_ASSIGN(TreeIndex index, ParseTreeIndex(tree));
  uint64_t cluster_bytes = ClusterStoredBytes(index, 2, 2);

  LatchVecFile file(tree);
  file.OpenGate();
  ASSERT_OK_AND_ASSIGN(TreeReader reader, TreeReader::Open(&file));

  TreeCacheConfig config;
  config.cluster_rows = 2;
  config.async_prefetch = true;
  config.prefetch_pipeline_clusters = 3;
  // Room for one full cluster but not two: the pipeline must hold one
  // full-cluster fetch and stop, instead of queueing a deep prefix that
  // would stall the window behind a guaranteed synchronous remainder.
  config.prefetch_window_bytes = cluster_bytes + cluster_bytes / 4;
  TreeCache cache(&reader, {}, config);

  ASSERT_OK(cache.GetBasket(0, 0).status());
  EXPECT_EQ(file.async_calls_started(), 1u);
  EXPECT_EQ(file.last_async_bytes(),
            ClusterStoredBytes(index, 2, 2));  // full cluster 1, no prefix

  for (uint64_t row = 0; row < spec.BasketCountPerBranch(); ++row) {
    for (size_t b = 0; b < spec.branches.size(); ++b) {
      ASSERT_OK(cache.GetBasket(b, row).status());
    }
  }
  EXPECT_EQ(cache.stats().async_prefetches, 4u);
  EXPECT_EQ(cache.stats().bytes_prefetched_early,
            cache.stats().bytes_fetched -
                ClusterStoredBytes(index, 0, 2));  // all but cluster 0 early
}

TEST(TreeCachePipelineTest, LatencyLatchEngagesOnSlowSyncFetch) {
  TreeSpec spec = SmallSpec();
  std::string tree = BuildTreeFile(spec, 14);

  /// Sync vectored reads take a measurable beat; async ones are instant.
  class SlowSyncFile : public LatchVecFile {
   public:
    explicit SlowSyncFile(std::string data) : LatchVecFile(std::move(data)) {
      OpenGate();
    }
    Result<std::vector<std::string>> PReadVec(
        const std::vector<http::ByteRange>& ranges) override {
      SleepForMicros(20'000);
      return LatchVecFile::PReadVec(ranges);
    }
  };

  struct Out {
    uint64_t async_prefetches;
    uint64_t async_calls_started;
  };
  auto run = [&](int64_t threshold_micros) {
    SlowSyncFile file(tree);
    auto reader = TreeReader::Open(&file);
    EXPECT_TRUE(reader.ok());
    TreeCacheConfig config;
    config.cluster_rows = 2;
    config.async_prefetch = true;
    config.prefetch_pipeline_clusters = 2;
    config.prefetch_window_bytes = 0;
    config.prefetch_latency_threshold_micros = threshold_micros;
    TreeCache cache(&*reader, {}, config);
    for (uint64_t row = 0; row < spec.BasketCountPerBranch(); ++row) {
      for (size_t b = 0; b < spec.branches.size(); ++b) {
        EXPECT_TRUE(cache.GetBasket(b, row).ok());
      }
    }
    return Out{cache.stats().async_prefetches, file.async_calls_started()};
  };

  // Cluster 0's synchronous fetch sleeps 20 ms: a 5 ms threshold latches
  // the high-latency path and the window keeps refilling.
  EXPECT_GT(run(5'000).async_prefetches, 0u);
  // A 60 s threshold never latches: only the first fill goes early, one
  // pipeline's worth, and nothing refills it for the rest of the scan.
  Out gated = run(60'000'000);
  EXPECT_EQ(gated.async_prefetches, 2u);
  EXPECT_EQ(gated.async_calls_started, 2u);
}

TEST(TreeCachePipelineTest, FirstFillGoesOutBeforeTheDemandFetch) {
  TreeSpec spec = SmallSpec();
  std::string tree = BuildTreeFile(spec, 20);
  LatchVecFile file(tree);
  ASSERT_OK_AND_ASSIGN(TreeReader reader, TreeReader::Open(&file));
  TreeCacheConfig config;
  config.cluster_rows = 2;
  config.async_prefetch = true;
  config.prefetch_pipeline_clusters = 2;
  config.prefetch_window_bytes = 0;
  config.prefetch_latency_threshold_micros = 60'000'000;
  TreeCache cache(&reader, {}, config);

  // Gate closed, latch far away: cluster 0's synchronous fetch still
  // comes after the first fill's two async calls are on the wire.
  ASSERT_OK(cache.GetBasket(0, 0).status());
  EXPECT_EQ(file.call_order(), "aas");
  EXPECT_EQ(cache.stats().async_prefetches, 0u);
  file.OpenGate();  // lets the destructor drain the fill
}

TEST(TreeCachePipelineTest, EndRowStopsThePrefetchWindow) {
  TreeSpec spec = SmallSpec();
  std::string tree = BuildTreeFile(spec, 22);
  ASSERT_OK_AND_ASSIGN(TreeIndex index, ParseTreeIndex(tree));
  AnalysisConfig config;
  config.fraction = 0.3;  // events 0..299 = basket rows 0..2
  config.compute_iterations_per_event = 0;
  config.cache.cluster_rows = 2;
  config.cache.async_prefetch = true;
  config.cache.prefetch_pipeline_clusters = 2;
  config.cache.prefetch_window_bytes = 0;
  const uint64_t end_row = 3;

  MemoryFile truth_file(tree);
  ASSERT_OK_AND_ASSIGN(AnalysisReport truth, RunAnalysis(&truth_file, config));
  LatchVecFile file(tree);
  file.OpenGate();
  ASSERT_OK_AND_ASSIGN(AnalysisReport report, RunAnalysis(&file, config));
  EXPECT_EQ(report.physics_sum, truth.physics_sum);

  // Every async call was consumed (so the destructor found nothing to
  // discard), and none asked for a basket at or past the end row.
  EXPECT_EQ(report.io.prefetch_discards, 0u);
  EXPECT_EQ(report.io.async_prefetches, 1u);  // cluster 1 = row 2 only
  EXPECT_EQ(file.async_calls_started(), report.io.async_prefetches);
  for (const http::ByteRange& range : file.async_ranges()) {
    bool in_range = false;
    for (const auto& branch : index.baskets) {
      for (uint64_t row = 0; row < end_row; ++row) {
        in_range |= branch[row].offset == range.offset;
      }
    }
    EXPECT_TRUE(in_range) << "async range at offset " << range.offset;
  }
  EXPECT_EQ(report.io.bytes_fetched, ClusterStoredBytes(index, 0, end_row));
}

// ------------------------------------------------------- parallel decode

TEST(TreeCacheDecodeTest, ParallelDecodeMatchesSerialDecode) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    TreeSpec spec = SmallSpec();
    std::string tree = BuildTreeFile(spec, seed);
    ASSERT_OK_AND_ASSIGN(TreeIndex index, ParseTreeIndex(tree));
    MemoryFile file(tree);
    ASSERT_OK_AND_ASSIGN(TreeReader reader, TreeReader::Open(&file));
    TreeCacheConfig config;
    config.cluster_rows = 4;
    TreeCache cache(&reader, {}, config);
    for (uint64_t row = 0; row < spec.BasketCountPerBranch(); ++row) {
      for (size_t b = 0; b < spec.branches.size(); ++b) {
        const BasketInfo& info = index.baskets[b][row];
        ASSERT_OK_AND_ASSIGN(std::string serial,
                             TreeReader::DecodeBasket(tree.substr(
                                 info.offset, info.stored_length)));
        ASSERT_OK_AND_ASSIGN(auto parallel, cache.GetBasket(b, row));
        EXPECT_EQ(*parallel, serial)
            << "seed " << seed << " basket (" << b << "," << row << ")";
      }
    }
    EXPECT_EQ(cache.stats().single_reads, 0u);
  }
}

TEST(TreeCacheDecodeTest, CorruptBasketFailsAloneWithCorruption) {
  TreeSpec spec = SmallSpec();
  std::string tree = BuildTreeFile(spec, 23);
  ASSERT_OK_AND_ASSIGN(TreeIndex index, ParseTreeIndex(tree));
  MemoryFile truth_file(tree);
  ASSERT_OK_AND_ASSIGN(TreeReader truth_reader, TreeReader::Open(&truth_file));
  TreeCache truth(&truth_reader, {});

  // Break the frame magic of basket (branch 1, row 1), inside cluster 0.
  std::string broken = tree;
  broken[index.baskets[1][1].offset] ^= 0x5A;
  MemoryFile file(broken);
  ASSERT_OK_AND_ASSIGN(TreeReader reader, TreeReader::Open(&file));
  TreeCacheConfig config;
  config.cluster_rows = 2;
  TreeCache cache(&reader, {}, config);

  auto corrupt = cache.GetBasket(1, 1);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kCorruption);
  // The rest of cluster 0 is served, and cluster 1 loads normally.
  for (uint64_t row = 0; row < 4; ++row) {
    for (size_t b = 0; b < spec.branches.size(); ++b) {
      if (b == 1 && row == 1) continue;
      ASSERT_OK_AND_ASSIGN(auto basket, cache.GetBasket(b, row));
      ASSERT_OK_AND_ASSIGN(auto expected, truth.GetBasket(b, row));
      EXPECT_EQ(*basket, *expected) << "basket (" << b << "," << row << ")";
    }
  }
  EXPECT_EQ(cache.stats().clusters_fetched, 2u);
  EXPECT_EQ(cache.stats().single_reads, 0u);
}

TEST(TreeCachePipelineTest, SeekDiscardsStalePrefetchesAndRecovers) {
  TreeSpec spec = SmallSpec();
  std::string tree = BuildTreeFile(spec, 15);
  MemoryFile truth_file(tree);
  ASSERT_OK_AND_ASSIGN(TreeReader truth_reader, TreeReader::Open(&truth_file));
  TreeCache truth(&truth_reader, {});

  LatchVecFile file(tree);
  file.OpenGate();
  ASSERT_OK_AND_ASSIGN(TreeReader reader, TreeReader::Open(&file));
  TreeCacheConfig config;
  config.cluster_rows = 2;
  config.async_prefetch = true;
  config.prefetch_pipeline_clusters = 2;
  config.prefetch_window_bytes = 0;
  TreeCache cache(&reader, {}, config);

  // Sequential start: clusters 1 and 2 go in flight...
  ASSERT_OK(cache.GetBasket(0, 0).status());
  EXPECT_EQ(file.async_calls_started(), 2u);
  // ...then a seek to cluster 4 invalidates both.
  ASSERT_OK_AND_ASSIGN(auto basket, cache.GetBasket(1, 8));
  EXPECT_EQ(cache.stats().prefetch_discards, 2u);

  ASSERT_OK_AND_ASSIGN(auto expected, truth.GetBasket(1, 8));
  EXPECT_EQ(*basket, *expected);
  // Discarded bytes are not billed as fetched.
  ASSERT_OK_AND_ASSIGN(TreeIndex index, ParseTreeIndex(tree));
  EXPECT_EQ(cache.stats().bytes_fetched,
            ClusterStoredBytes(index, 0, 2) + ClusterStoredBytes(index, 8, 2));
}

TEST(TreeCachePipelineTest, DestructorDrainsInFlightPrefetches) {
  TreeSpec spec = SmallSpec();
  std::string tree = BuildTreeFile(spec, 16);
  LatchVecFile file(tree);
  file.OpenGate();
  ASSERT_OK_AND_ASSIGN(TreeReader reader, TreeReader::Open(&file));
  {
    TreeCacheConfig config;
    config.cluster_rows = 2;
    config.async_prefetch = true;
    config.prefetch_pipeline_clusters = 2;
    config.prefetch_window_bytes = 0;
    TreeCache cache(&reader, {}, config);
    ASSERT_OK(cache.GetBasket(0, 0).status());
    EXPECT_EQ(file.async_calls_started(), 2u);
    // Destroyed with two prefetches in flight: both must be waited out
    // (ASan would flag the use-after-free if they outlived the cache).
  }
  EXPECT_EQ(file.async_calls_started(), 2u);
}

TEST(TreeCachePipelineTest, PrefetchFailureFallsBackSilently) {
  TreeSpec spec = SmallSpec();
  std::string tree = BuildTreeFile(spec, 17);
  MemoryFile truth_file(tree);
  ASSERT_OK_AND_ASSIGN(AnalysisReport truth, [&] {
    AnalysisConfig c;
    c.compute_iterations_per_event = 0;
    return RunAnalysis(&truth_file, c);
  }());

  FlakyVecFile file(tree);
  file.break_async = true;  // every prefetch errors in flight
  AnalysisConfig config;
  config.compute_iterations_per_event = 0;
  config.cache.cluster_rows = 2;
  config.cache.async_prefetch = true;
  config.cache.prefetch_window_bytes = 0;
  ASSERT_OK_AND_ASSIGN(AnalysisReport report, RunAnalysis(&file, config));
  // The sync fallback refetched every failed cluster: same answer, no
  // prefetch consumed, nothing surfaced to the caller.
  EXPECT_EQ(report.physics_sum, truth.physics_sum);
  EXPECT_EQ(report.io.async_prefetches, 0u);
}

TEST(TreeCachePipelineTest, ErrorSurfacesOnceThenRecovers) {
  TreeSpec spec = SmallSpec();
  std::string tree = BuildTreeFile(spec, 18);
  FlakyVecFile file(tree);
  ASSERT_OK_AND_ASSIGN(TreeReader reader, TreeReader::Open(&file));
  TreeCacheConfig config;
  config.cluster_rows = 2;
  config.async_prefetch = true;
  config.prefetch_pipeline_clusters = 2;
  config.prefetch_window_bytes = 0;
  TreeCache cache(&reader, {}, config);

  ASSERT_OK(cache.GetBasket(0, 0).status());

  // Both the in-flight prefetch and the sync fallback fail: the error
  // reaches the caller exactly where it happened.
  file.break_async = true;
  file.break_sync = true;
  EXPECT_FALSE(cache.GetBasket(0, 2).ok());

  // Transport heals: the same basket is retried and served; the cache
  // carries no poisoned state from the failed load.
  file.break_async = false;
  file.break_sync = false;
  ASSERT_OK_AND_ASSIGN(auto basket, cache.GetBasket(0, 2));
  MemoryFile truth_file(tree);
  ASSERT_OK_AND_ASSIGN(TreeReader truth_reader, TreeReader::Open(&truth_file));
  TreeCache truth(&truth_reader, {});
  ASSERT_OK_AND_ASSIGN(auto expected, truth.GetBasket(0, 2));
  EXPECT_EQ(*basket, *expected);
}

// ------------------------------------------- davix async under faults

TEST(DavixAsyncFaultTest, ByteExactVersusSyncUnderServerFaults) {
  TreeSpec spec = SmallSpec();
  std::string tree = BuildTreeFile(spec, 19);
  MemoryFile local(tree);
  AnalysisConfig base;
  base.compute_iterations_per_event = 0;
  base.cache.cluster_rows = 2;
  ASSERT_OK_AND_ASSIGN(AnalysisReport truth, RunAnalysis(&local, base));

  auto run = [&](bool async) {
    testing::TestStorageServer server = testing::StartStorageServer();
    server.store->Put("/tree.rnt", tree);
    core::Context context;
    core::RequestParams params;
    params.metalink_mode = core::MetalinkMode::kDisabled;
    params.retry_jitter_seed = 7;
    // Worst case all three injected faults land on one request's
    // attempt chain; give the retry loop room for that plus one.
    params.max_retries = 4;
    auto file = DavixRandomAccessFile::Open(
        &context, server.UrlFor("/tree.rnt"), params);
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    // Arm the faults after the open, so they land on cluster reads (the
    // tree index comes from the open's head bytes): two mid-body
    // truncations and one paced 503 (Retry-After), absorbed by the retry
    // machinery underneath the prefetcher. A bare 503 would be handed
    // back to the caller for fail-over (disabled here), so the injected
    // one advertises a wait.
    server.server->faults().AddRule(
        {"/tree.rnt", netsim::FaultAction::kTruncateBody, 1.0, 2, 0});
    netsim::FaultRule paced;
    paced.path_prefix = "/tree.rnt";
    paced.action = netsim::FaultAction::kRetryAfter;
    paced.max_hits = 1;
    paced.retry_after_seconds = 1;
    server.server->faults().AddRule(paced);
    AnalysisConfig config = base;
    config.cache.async_prefetch = async;
    config.cache.prefetch_window_bytes = 0;
    auto report = RunAnalysis(file->get(), config);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return *report;
  };

  AnalysisReport sync_report = run(false);
  AnalysisReport async_report = run(true);
  EXPECT_EQ(sync_report.physics_sum, truth.physics_sum);
  EXPECT_EQ(async_report.physics_sum, truth.physics_sum);
  EXPECT_EQ(async_report.io.bytes_fetched, sync_report.io.bytes_fetched);
  EXPECT_GT(async_report.io.async_prefetches, 0u);
}

// ------------------------------------------------- storage adapter seam

class StorageAdapterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = SmallSpec();
    tree_ = BuildTreeFile(spec_, 21);
    server_ = testing::StartStorageServer();
    server_.store->Put("/tree.rnt", tree_);
    params_.context = &context_;
    params_.request.metalink_mode = core::MetalinkMode::kDisabled;
  }

  std::string HostPort() const {
    return "127.0.0.1:" + std::to_string(server_.server->port());
  }

  TreeSpec spec_;
  std::string tree_;
  testing::TestStorageServer server_;
  core::Context context_;
  StorageOpenParams params_;
};

TEST_F(StorageAdapterTest, UnknownSchemeNamesRegisteredOnes) {
  auto result = OpenStorage("gopher://host/path", params_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotSupported);
  EXPECT_NE(result.status().ToString().find("davix"), std::string::npos);
  EXPECT_NE(result.status().ToString().find("xrd"), std::string::npos);
  EXPECT_FALSE(OpenStorage("/no/scheme/at/all", params_).ok());
}

TEST_F(StorageAdapterTest, DavixSchemeOpensAndReads) {
  ASSERT_OK_AND_ASSIGN(auto file,
                       OpenStorage("davix://" + HostPort() + "/tree.rnt",
                                   params_));
  EXPECT_EQ(file->Size(), tree_.size());
  EXPECT_TRUE(file->SupportsAsyncVec());
  ASSERT_OK_AND_ASSIGN(std::string head, file->PRead(0, 4));
  EXPECT_EQ(head, tree_.substr(0, 4));
  // A read that straddles the end of the open's head bytes.
  ASSERT_GT(tree_.size(), kOpenHeadBytes + 4);
  ASSERT_OK_AND_ASSIGN(std::string straddle,
                       file->PRead(kOpenHeadBytes - 4, 8));
  EXPECT_EQ(straddle, tree_.substr(kOpenHeadBytes - 4, 8));

  // A zero-length object answers the head range with 416 "bytes */0".
  server_.store->Put("/empty", "");
  ASSERT_OK_AND_ASSIGN(auto empty,
                       OpenStorage("davix://" + HostPort() + "/empty",
                                   params_));
  EXPECT_EQ(empty->Size(), 0u);
  ASSERT_OK_AND_ASSIGN(std::string nothing, empty->PRead(0, 4));
  EXPECT_EQ(nothing, "");

  EXPECT_EQ(OpenStorage("davix://" + HostPort() + "/missing", params_)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(StorageAdapterTest, DavixOpenChecksTheHeadResponse) {
  // Routes that answer the head range as a server ignoring Range, or a
  // broken one, would.
  auto router = std::make_shared<httpd::Router>();
  router->Handle(http::Method::kGet, "/ignores-range",
                 [whole = tree_](const http::HttpRequest&,
                                 http::HttpResponse* response) {
                   response->status_code = 200;
                   response->body = whole;
                 });
  auto partial = [](std::optional<std::string> content_range) {
    return [content_range](const http::HttpRequest&,
                           http::HttpResponse* response) {
      response->status_code = 206;
      if (content_range) response->headers.Set("Content-Range", *content_range);
      response->body = "abcd";
    };
  };
  router->Handle(http::Method::kGet, "/no-content-range",
                 partial(std::nullopt));
  router->Handle(http::Method::kGet, "/not-at-zero", partial("bytes 4-7/100"));
  router->Handle(http::Method::kGet, "/body-mismatch",
                 partial("bytes 0-9/100"));
  router->Handle(http::Method::kGet, "/past-total", partial("bytes 0-3/2"));
  ASSERT_OK_AND_ASSIGN(auto server, httpd::HttpServer::Start({}, router));
  std::string base = "davix://127.0.0.1:" + std::to_string(server->port());

  {
    ASSERT_OK_AND_ASSIGN(auto file,
                         OpenStorage(base + "/ignores-range", params_));
    EXPECT_EQ(file->Size(), tree_.size());
    ASSERT_OK_AND_ASSIGN(std::string head, file->PRead(0, 4));
    EXPECT_EQ(head, tree_.substr(0, 4));
    ASSERT_OK_AND_ASSIGN(std::string past_head,
                         file->PRead(kOpenHeadBytes, 100));
    EXPECT_EQ(past_head, tree_.substr(kOpenHeadBytes, 100));
  }
  for (const char* path :
       {"/no-content-range", "/not-at-zero", "/body-mismatch", "/past-total"}) {
    EXPECT_EQ(OpenStorage(base + path, params_).status().code(),
              StatusCode::kProtocolError)
        << path;
  }
  server->Stop();
}

/// MemoryFile that logs the offset of every read.
class OffsetLogFile : public MemoryFile {
 public:
  using MemoryFile::MemoryFile;
  Result<std::string> PRead(uint64_t offset, uint64_t length) override {
    offsets.push_back(offset);
    return MemoryFile::PRead(offset, length);
  }
  std::vector<uint64_t> offsets;
};

TEST_F(StorageAdapterTest, TreeOpenReadsTheHeadThenOnlyTheMissingSuffix) {
  OffsetLogFile small(tree_);
  ASSERT_OK_AND_ASSIGN(TreeReader reader, TreeReader::Open(&small));
  EXPECT_LT(reader.index().data_begin, kOpenHeadBytes);
  EXPECT_EQ(small.offsets, (std::vector<uint64_t>{0}));

  // 1000 one-byte-wide baskets: 16 000 bytes of index, more than the head.
  TreeSpec wide;
  wide.n_events = 2000;
  wide.events_per_basket = 2;
  wide.branches = {{"b", 1}};
  std::string wide_tree = BuildTreeFile(wide, 5);
  OffsetLogFile big(wide_tree);
  ASSERT_OK_AND_ASSIGN(TreeReader wide_reader, TreeReader::Open(&big));
  ASSERT_GT(wide_reader.index().data_begin, kOpenHeadBytes);
  EXPECT_EQ(big.offsets, (std::vector<uint64_t>{0, kOpenHeadBytes}));
  ASSERT_OK_AND_ASSIGN(TreeIndex truth, ParseTreeIndex(wide_tree));
  ASSERT_EQ(wide_reader.index().baskets.size(), 1u);
  ASSERT_EQ(wide_reader.index().baskets[0].size(), truth.baskets[0].size());
  EXPECT_EQ(wide_reader.index().baskets[0].back().offset,
            truth.baskets[0].back().offset);
}

TEST_F(StorageAdapterTest, TreeOpenIsOneRequestInsideTheInitialWindow) {
  auto mux = muxhttp::MuxServer::Start({}, server_.router);
  ASSERT_TRUE(mux.ok()) << mux.status().ToString();
  auto served = [&] {
    return server_.server->stats().requests_handled.load() +
           (*mux)->stats().requests_handled.load();
  };
  for (const std::string& url :
       {"davix://" + HostPort() + "/tree.rnt",
        "davix+mux://127.0.0.1:" + std::to_string((*mux)->port()) +
            "/tree.rnt"}) {
    SCOPED_TRACE(url);
    core::Context context;
    StorageOpenParams params = params_;
    params.context = &context;
    uint64_t before = served();
    ASSERT_OK_AND_ASSIGN(auto file, OpenStorage(url, params));
    ASSERT_OK_AND_ASSIGN(TreeReader reader, TreeReader::Open(file.get()));
    EXPECT_EQ(reader.spec().n_events, spec_.n_events);
    EXPECT_EQ(served() - before, 1u);
    IoCounters io = context.SnapshotCounters();
    EXPECT_EQ(io.requests, 1u);
    // The open's whole response, a full head plus its header, fits the
    // first congestion window of a cold WAN connection: a bigger head
    // would cost a slow-start round trip.
    ASSERT_GT(file->Size(), kOpenHeadBytes);
    EXPECT_GT(io.bytes_read, kOpenHeadBytes);
    EXPECT_LE(io.bytes_read,
              static_cast<uint64_t>(
                  netsim::LinkProfile::Wan().init_cwnd_bytes));
  }
  (*mux)->Stop();
}

TEST_F(StorageAdapterTest, DavixSchemeRequiresContext) {
  StorageOpenParams no_context;
  EXPECT_FALSE(
      OpenStorage("davix://" + HostPort() + "/tree.rnt", no_context).ok());
}

TEST_F(StorageAdapterTest, MuxSchemeRunsOverFramedTransport) {
  muxhttp::MuxServerConfig config;
  auto mux = muxhttp::MuxServer::Start(config, server_.router);
  ASSERT_TRUE(mux.ok()) << mux.status().ToString();
  std::string url = "davix+mux://127.0.0.1:" +
                    std::to_string((*mux)->port()) + "/tree.rnt";
  ASSERT_OK_AND_ASSIGN(auto file, OpenStorage(url, params_));
  ASSERT_OK_AND_ASSIGN(AnalysisReport report, [&] {
    AnalysisConfig c;
    c.compute_iterations_per_event = 0;
    return RunAnalysis(file.get(), c);
  }());
  MemoryFile local(tree_);
  ASSERT_OK_AND_ASSIGN(AnalysisReport truth, [&] {
    AnalysisConfig c;
    c.compute_iterations_per_event = 0;
    return RunAnalysis(&local, c);
  }());
  EXPECT_EQ(report.physics_sum, truth.physics_sum);
  (*mux)->Stop();
}

TEST_F(StorageAdapterTest, XrdSchemeOpensAndRejectsMalformedUrls) {
  auto xrd = xrootd::XrdServer::Start({}, server_.store);
  ASSERT_TRUE(xrd.ok());
  std::string good =
      "xrd://127.0.0.1:" + std::to_string((*xrd)->port()) + "/tree.rnt";
  {
    ASSERT_OK_AND_ASSIGN(auto file, OpenStorage(good, params_));
    EXPECT_EQ(file->Size(), tree_.size());
    EXPECT_TRUE(file->SupportsAsyncVec());
    // The returned file owns its client: reading through it works with
    // no other handle kept alive.
    ASSERT_OK_AND_ASSIGN(std::string head, file->PRead(0, 4));
    EXPECT_EQ(head, tree_.substr(0, 4));
  }
  EXPECT_FALSE(OpenStorage("xrd://127.0.0.1/tree.rnt", params_).ok());
  EXPECT_FALSE(OpenStorage("xrd://127.0.0.1:9999", params_).ok());
  EXPECT_FALSE(OpenStorage("xrd://127.0.0.1:notaport/f", params_).ok());
  (*xrd)->Stop();
}

TEST_F(StorageAdapterTest, CustomSchemeRegistersAndResolves) {
  StorageAdapterRegistry registry;
  std::string blob = "hello adapter";
  registry.Register("mem", [blob](const std::string& rest,
                                  const StorageOpenParams&)
                               -> Result<std::unique_ptr<RandomAccessFile>> {
    EXPECT_EQ(rest, "ignored/path");
    return std::unique_ptr<RandomAccessFile>(
        std::make_unique<MemoryFile>(blob));
  });
  ASSERT_OK_AND_ASSIGN(auto file,
                       registry.Open("mem://ignored/path", params_));
  EXPECT_EQ(file->Size(), blob.size());
  auto schemes = registry.Schemes();
  ASSERT_EQ(schemes.size(), 1u);
  EXPECT_EQ(schemes[0], "mem");
}

TEST_F(StorageAdapterTest, DefaultRegistryListsBuiltinSchemes) {
  auto schemes = StorageAdapterRegistry::Default().Schemes();
  auto has = [&](const std::string& s) {
    return std::find(schemes.begin(), schemes.end(), s) != schemes.end();
  };
  EXPECT_TRUE(has("davix"));
  EXPECT_TRUE(has("davix+mux"));
  EXPECT_TRUE(has("http"));
  EXPECT_TRUE(has("xrd"));
}

TEST_F(StorageAdapterTest, RunAnalysisOnUrlMatchesLocalTruth) {
  MemoryFile local(tree_);
  AnalysisConfig config;
  config.compute_iterations_per_event = 0;
  config.cache.cluster_rows = 2;
  config.cache.async_prefetch = true;
  config.cache.prefetch_window_bytes = 0;
  ASSERT_OK_AND_ASSIGN(AnalysisReport truth, RunAnalysis(&local, config));
  ASSERT_OK_AND_ASSIGN(
      AnalysisReport remote,
      RunAnalysisOnUrl("davix://" + HostPort() + "/tree.rnt", config,
                       params_));
  EXPECT_EQ(remote.physics_sum, truth.physics_sum);
  EXPECT_EQ(remote.events_processed, truth.events_processed);
  EXPECT_GT(remote.io.async_prefetches, 0u);
}

}  // namespace
}  // namespace root
}  // namespace davix
