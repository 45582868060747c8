#include "root/tree_cache.h"

#include <algorithm>
#include <numeric>
#include <thread>

#include "common/clock.h"

namespace davix {
namespace root {

TreeCache::TreeCache(TreeReader* reader, std::vector<size_t> active_branches,
                     TreeCacheConfig config)
    : reader_(reader),
      active_branches_(std::move(active_branches)),
      config_(config),
      end_row_(reader_->spec().BasketCountPerBranch()) {
  if (active_branches_.empty()) {
    active_branches_.resize(reader_->spec().branches.size());
    std::iota(active_branches_.begin(), active_branches_.end(), 0);
  }
  if (config_.cluster_rows == 0) config_.cluster_rows = 1;
  if (config_.prefetch_pipeline_clusters == 0) {
    config_.prefetch_pipeline_clusters = 1;
  }
  if (config_.enabled) {
    unsigned cores = std::thread::hardware_concurrency();
    decode_pool_ = std::make_unique<ThreadPool>(cores > 2 ? cores - 1 : 1);
  }
}

TreeCache::~TreeCache() {
  // Drain in-flight transport calls before the file (and this object)
  // can go away; whatever they carried is dropped unconsumed.
  while (!pipeline_.empty()) DiscardFrontPrefetch();
}

void TreeCache::SetEndRow(uint64_t end_row) {
  end_row_ = std::min(end_row, reader_->spec().BasketCountPerBranch());
}

void TreeCache::PlanCluster(uint64_t first_row, uint64_t byte_budget,
                            std::vector<BasketKey>* keys,
                            std::vector<http::ByteRange>* ranges) const {
  const TreeIndex& index = reader_->index();
  uint64_t last_row =
      std::min<uint64_t>(first_row + config_.cluster_rows, end_row_);
  // File-offset order = row-major over the cluster-major layout.
  uint64_t budget_used = 0;
  for (uint64_t row = first_row; row < last_row; ++row) {
    for (size_t branch : active_branches_) {
      const BasketInfo& info = index.baskets[branch][row];
      if (byte_budget > 0 && budget_used + info.stored_length > byte_budget &&
          !keys->empty()) {
        return;  // window budget exhausted
      }
      budget_used += info.stored_length;
      keys->emplace_back(branch, row);
      ranges->push_back(http::ByteRange{info.offset, info.stored_length});
    }
  }
}

void TreeCache::DiscardFrontPrefetch() {
  Prefetch stale = std::move(pipeline_.front());
  pipeline_.pop_front();
  inflight_prefetch_bytes_ -= stale.planned_bytes;
  // The transport call must finish before its buffers (and the file it
  // reads through) can be released; the payload is then dropped.
  (void)stale.pending->Wait();
  ++stats_.prefetch_discards;
}

void TreeCache::TopUpPipeline(uint64_t current_first_row) {
  if (!config_.async_prefetch || !reader_->file()->SupportsAsyncVec()) {
    return;
  }
  // A budget-truncated entry already owns the rest of the window; going
  // deeper would fetch cluster N+2 bytes before N+1 is complete.
  if (!pipeline_.empty() && pipeline_.back().truncated) return;
  uint64_t next_first = pipeline_.empty()
                            ? current_first_row + config_.cluster_rows
                            : pipeline_.back().first_row + config_.cluster_rows;
  while (pipeline_.size() < config_.prefetch_pipeline_clusters &&
         next_first < end_row_) {
    uint64_t budget = 0;  // 0 = the whole cluster
    if (config_.prefetch_window_bytes > 0) {
      if (inflight_prefetch_bytes_ >= config_.prefetch_window_bytes) return;
      budget = config_.prefetch_window_bytes - inflight_prefetch_bytes_;
    }
    Prefetch prefetch;
    prefetch.first_row = next_first;
    PlanCluster(next_first, budget, &prefetch.keys, &prefetch.ranges);
    if (prefetch.keys.empty()) return;
    uint64_t rows_in_cluster =
        std::min<uint64_t>(next_first + config_.cluster_rows, end_row_) -
        next_first;
    prefetch.truncated =
        prefetch.keys.size() < rows_in_cluster * active_branches_.size();
    // A budget-truncated prefix pays a synchronous remainder fetch when
    // consumed. That trade is worth it only for the immediate next
    // cluster (the prefix still overlaps with the current compute); deep
    // in the pipeline it would just stall the window, so stop instead
    // and let the freed budget issue a full cluster later.
    if (prefetch.truncated && !pipeline_.empty()) return;
    for (const http::ByteRange& range : prefetch.ranges) {
      prefetch.planned_bytes += range.length;
    }
    ++stats_.vector_reads;
    stats_.ranges_requested += prefetch.ranges.size();
    prefetch.pending = reader_->file()->PReadVecAsync(prefetch.ranges);
    inflight_prefetch_bytes_ += prefetch.planned_bytes;
    bool truncated = prefetch.truncated;
    pipeline_.push_back(std::move(prefetch));
    if (truncated) return;
    next_first += config_.cluster_rows;
  }
}

Status TreeCache::LoadCluster(uint64_t row) {
  uint64_t first_row = ClusterOf(row) * config_.cluster_rows;
  auto cluster = std::make_unique<Cluster>();
  cluster->first_row = first_row;

  // Entries ahead of the one we need cannot be consumed (the pipeline is
  // ordered): a seek invalidated them. Discard-and-count, never leak.
  while (!pipeline_.empty() && pipeline_.front().first_row != first_row) {
    DiscardFrontPrefetch();
  }

  std::vector<BasketKey> have_keys;
  if (!pipeline_.empty()) {
    Prefetch prefetch = std::move(pipeline_.front());
    pipeline_.pop_front();
    inflight_prefetch_bytes_ -= prefetch.planned_bytes;
    // The popped entry is now the demand fetch, not an early request: its
    // bytes leave the window, so deeper clusters can be issued *before*
    // blocking on it — the refill overlaps with this cluster's wait and
    // decompression both.
    if (RefillEngaged()) TopUpPipeline(first_row);
    int64_t wait_start = MonotonicMicros();
    Result<std::vector<std::string>> data = prefetch.pending->Wait();
    stats_.prefetch_wait_micros +=
        static_cast<uint64_t>(MonotonicMicros() - wait_start);
    if (data.ok()) {
      ++stats_.async_prefetches;
      for (size_t i = 0; i < prefetch.keys.size(); ++i) {
        stats_.bytes_fetched += (*data)[i].size();
        stats_.bytes_prefetched_early += (*data)[i].size();
        cluster->blobs[prefetch.keys[i]] = std::move((*data)[i]);
      }
      have_keys = std::move(prefetch.keys);
    }
    // On prefetch failure fall through: the synchronous read below
    // fetches everything, so a transient in-flight error never doubles.
  }

  // First fill: nothing is known about the path yet, so one window of
  // upcoming clusters goes on the wire together with this cluster's
  // demand fetch instead of after it (on a slow path, after it would mean
  // starting on cold connections one full fetch late). It must follow the
  // consumption above, which matches the pipeline front to this cluster.
  if (cluster_ == nullptr) TopUpPipeline(first_row);

  // Fetch whatever the prefetch did not cover, synchronously — only the
  // missing suffix, so early bytes are never requested twice.
  std::vector<BasketKey> keys;
  std::vector<http::ByteRange> ranges;
  PlanCluster(first_row, 0, &keys, &ranges);
  std::vector<BasketKey> missing_keys;
  std::vector<http::ByteRange> missing_ranges;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (std::find(have_keys.begin(), have_keys.end(), keys[i]) ==
        have_keys.end()) {
      missing_keys.push_back(keys[i]);
      missing_ranges.push_back(ranges[i]);
    }
  }
  if (!missing_ranges.empty()) {
    ++stats_.vector_reads;
    stats_.ranges_requested += missing_ranges.size();
    int64_t fetch_start = MonotonicMicros();
    DAVIX_ASSIGN_OR_RETURN(std::vector<std::string> data,
                           reader_->file()->PReadVec(missing_ranges));
    int64_t fetch_micros = MonotonicMicros() - fetch_start;
    // Adaptive readahead: a whole-cluster synchronous fetch slower than
    // the threshold marks this as a high-latency path worth refilling
    // the window for.
    if (have_keys.empty() &&
        fetch_micros > config_.prefetch_latency_threshold_micros) {
      high_latency_path_ = true;
    }
    for (size_t i = 0; i < missing_keys.size(); ++i) {
      stats_.bytes_fetched += data[i].size();
      cluster->blobs[missing_keys[i]] = std::move(data[i]);
    }
  }
  ++stats_.clusters_fetched;

  // Keep the sliding window full: plan cluster N+1 (and deeper, up to
  // the pipeline depth) while N decompresses.
  if (RefillEngaged()) TopUpPipeline(first_row);
  DecodeCluster(cluster.get());
  cluster_ = std::move(cluster);
  return Status::OK();
}

void TreeCache::DecodeCluster(Cluster* cluster) {
  std::vector<std::map<BasketKey, std::string>::iterator> blobs;
  for (auto it = cluster->blobs.begin(); it != cluster->blobs.end(); ++it) {
    blobs.push_back(it);
  }
  // One slot per blob: every executor writes only the slots it claimed.
  std::vector<std::shared_ptr<const std::string>> decoded(blobs.size());
  ParallelFor(decode_pool_.get(), blobs.size(),
              decode_pool_->num_threads() + 1, [&](size_t i) {
                Result<std::string> out =
                    TreeReader::DecodeBasket(blobs[i]->second);
                if (out.ok()) {
                  decoded[i] =
                      std::make_shared<const std::string>(std::move(*out));
                }
              });
  for (size_t i = 0; i < blobs.size(); ++i) {
    // A blob that failed stays raw: GetBasket decodes it again and
    // reports the error on that basket alone.
    if (decoded[i] == nullptr) continue;
    cluster->decoded.emplace(blobs[i]->first, std::move(decoded[i]));
    cluster->blobs.erase(blobs[i]);
  }
}

Result<std::shared_ptr<const std::string>> TreeCache::GetBasket(
    size_t branch, uint64_t row) {
  const TreeIndex& index = reader_->index();
  if (branch >= index.baskets.size() ||
      row >= index.spec.BasketCountPerBranch()) {
    return Status::InvalidArgument("basket (" + std::to_string(branch) + "," +
                                   std::to_string(row) + ") out of range");
  }

  if (!config_.enabled) {
    // Naive mode (TTree without TTreeCache): one remote read per basket,
    // keeping only the current basket of each branch.
    auto last = last_basket_.find(branch);
    if (last != last_basket_.end() && last->second.first == row) {
      return last->second.second;
    }
    const BasketInfo& info = index.baskets[branch][row];
    ++stats_.single_reads;
    DAVIX_ASSIGN_OR_RETURN(std::string blob,
                           reader_->file()->PRead(info.offset,
                                                  info.stored_length));
    stats_.bytes_fetched += blob.size();
    DAVIX_ASSIGN_OR_RETURN(std::string decoded,
                           TreeReader::DecodeBasket(blob));
    auto shared = std::make_shared<const std::string>(std::move(decoded));
    last_basket_[branch] = {row, shared};
    return shared;
  }

  BasketKey key(branch, row);
  if (cluster_ == nullptr || ClusterOf(row) != ClusterOf(cluster_->first_row)) {
    DAVIX_RETURN_IF_ERROR(LoadCluster(row));
  }
  auto decoded_it = cluster_->decoded.find(key);
  if (decoded_it != cluster_->decoded.end()) return decoded_it->second;

  auto blob_it = cluster_->blobs.find(key);
  if (blob_it == cluster_->blobs.end()) {
    // Branch not in the active set (mis-declared access pattern) or row
    // past the end row: fall back to a single read, like TTreeCache does
    // on a cache miss.
    const BasketInfo& info = index.baskets[branch][row];
    ++stats_.single_reads;
    DAVIX_ASSIGN_OR_RETURN(std::string blob,
                           reader_->file()->PRead(info.offset,
                                                  info.stored_length));
    stats_.bytes_fetched += blob.size();
    blob_it = cluster_->blobs.emplace(key, std::move(blob)).first;
  }
  DAVIX_ASSIGN_OR_RETURN(std::string decoded,
                         TreeReader::DecodeBasket(blob_it->second));
  auto shared = std::make_shared<const std::string>(std::move(decoded));
  cluster_->decoded[key] = shared;
  return shared;
}

}  // namespace root
}  // namespace davix
