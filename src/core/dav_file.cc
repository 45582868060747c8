#include "core/dav_file.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <unordered_map>

#include "common/base64.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "core/block_cache.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/metalink_engine.h"
#include "core/replica_set.h"
#include "core/resilience.h"
#include "core/vector_io.h"
#include "http/multipart.h"
#include "http/parser.h"

namespace davix {
namespace core {

/// Shared state of one parallel vectored dispatch: every batch worker
/// reports errors here, and the first batch to receive a 200 (server
/// ignored the Range header) parks the full entity for its siblings.
///
/// Thread-safe: yes — `mu` guards the error slot, `full_body` is
/// published once via the release/acquire pair on `have_full_body`, and
/// the remaining members are immutable for the dispatch's duration.
struct VecDispatchState {
  Mutex mu;
  Status first_error GUARDED_BY(mu) = Status::OK();
  std::atomic<bool> failed{false};
  /// Written once under `mu`, then read-only; readers gate on the
  /// acquire-load of `have_full_body` (a release/acquire publication,
  /// so the post-publication reads are deliberately lock-free and the
  /// member stays unannotated).
  std::string full_body;
  std::atomic<bool> have_full_body{false};
  /// Block-cache fill target (null = caching off for this dispatch).
  /// Batch workers insert every fetched wire span, keyed by the
  /// dispatch's canonical primary URL, with the validators each
  /// response carried.
  BlockCache* cache = nullptr;
  const std::string* cache_key = nullptr;
  /// Resolved replica set of the dispatch (null = single-source). Every
  /// response's validators are admitted against the set's agreed
  /// generation before scatter/cache-fill; spans are published under
  /// the agreed validator so fail-over and striping share one cache
  /// generation.
  ReplicaSet* replica_set = nullptr;
};

namespace {

/// Satisfies every wire range of `batch` from a full-entity body (the
/// 200-fallback: once the server has sent everything, all remaining
/// batches demote to local scatter — single-stream, no wire traffic).
Status ScatterFromFullBody(const std::vector<CoalescedRange>& batch,
                           std::string_view full_body,
                           const std::vector<http::ByteRange>& ranges,
                           std::vector<std::string>* results) {
  for (const CoalescedRange& wire : batch) {
    if (wire.range.offset + wire.range.length > full_body.size()) {
      return Status::ProtocolError("entity shorter than wire range");
    }
    DAVIX_RETURN_IF_ERROR(ScatterWireRange(
        wire, full_body.substr(wire.range.offset, wire.range.length), ranges,
        results));
  }
  return Status::OK();
}

/// Copies the validators a response carries into `info`.
void ReadValidators(const http::HeaderMap& headers, FileInfo* info) {
  info->etag = headers.Get("ETag").value_or("");
  if (std::optional<std::string> lm = headers.Get("Last-Modified")) {
    Result<int64_t> mtime = http::ParseHttpDate(*lm);
    if (mtime.ok()) info->mtime_epoch_seconds = *mtime;
  }
}

/// The object size a 206 answer to "Range: bytes=0-..." implies. The
/// range must start at 0, match the body, and fit inside its total.
Result<uint64_t> SizeFromHeadRange(const http::HttpResponse& response,
                                   const std::string& what) {
  std::optional<std::string> value = response.headers.Get("Content-Range");
  if (!value) {
    return Status::ProtocolError(what + ": 206 without Content-Range");
  }
  Result<http::ContentRange> cr = http::ParseContentRange(*value);
  if (!cr.ok() || cr->range.offset != 0 ||
      cr->range.length != response.body.size() ||
      cr->total_size < cr->range.length) {
    return Status::ProtocolError(what + ": bad head Content-Range '" + *value +
                                 "' for a " +
                                 std::to_string(response.body.size()) +
                                 "-byte body");
  }
  return cr->total_size;
}

}  // namespace

DavFile::DavFile(Context* context, Uri url)
    : context_(context), client_(context), url_(std::move(url)) {}

Result<DavFile> DavFile::Make(Context* context, const std::string& url) {
  DAVIX_ASSIGN_OR_RETURN(Uri parsed, Uri::Parse(url));
  return DavFile(context, std::move(parsed));
}

template <typename T>
Result<T> DavFile::WithFailover(
    const RequestParams& caller_params,
    const std::function<Result<T>(const Uri&, const RequestParams&)>& op) {
  RequestParams params = caller_params;
  params.ArmDeadline();
  if (replica_set_ != nullptr &&
      params.metalink_mode != MetalinkMode::kDisabled) {
    // Resolved-set fast path: walk the health-ranked sources directly —
    // no Metalink refetch on failure — and feed every outcome back into
    // the health state, so repeatedly failing sources sink in rank and
    // quarantine out of the rotation.
    std::optional<Result<T>> result;  // empty when no source is usable
    Status last = replica_set_->TryCandidates(
        0, 1,
        [&](const std::shared_ptr<ReplicaSource>& source, bool* did_fetch) {
          *did_fetch = true;
          result = op(source->url(), params);
          return result->status();
        });
    if (result && (last.ok() || !WalksOn(last))) {
      return std::move(*result);  // success, or a terminal error
    }
    return Status::AllReplicasFailed("all replicas of " + url_.ToString() +
                                     " failed; last error: " +
                                     last.ToString());
  }

  Result<T> primary = op(url_, params);
  if (primary.ok() || params.metalink_mode == MetalinkMode::kDisabled ||
      !ShouldFailover(primary.status())) {
    return primary;
  }

  // The primary is unavailable: look up the resource's replicas and walk
  // them in priority order.
  MetalinkEngine engine(&client_);
  Result<std::vector<Uri>> replicas = engine.ResolveReplicas(url_, params);
  if (!replicas.ok()) {
    DAVIX_LOG(kDebug) << "no metalink for " << url_.ToString() << ": "
                      << replicas.status().ToString();
    return primary;  // keep the original, more informative error
  }
  Status last = primary.status();
  for (const Uri& replica : *replicas) {
    if (replica == url_) continue;  // already failed
    context_->stats().replica_failovers.fetch_add(1,
                                                  std::memory_order_relaxed);
    DAVIX_LOG(kDebug) << "failing over to replica " << replica.ToString();
    Result<T> attempt = op(replica, params);
    if (attempt.ok()) return attempt;
    last = attempt.status();
  }
  return Status::AllReplicasFailed("all replicas of " + url_.ToString() +
                                   " failed; last error: " + last.ToString());
}

Result<std::string> DavFile::Get(const RequestParams& params) {
  if (params.metalink_mode == MetalinkMode::kMultiStream) {
    MetalinkEngine engine(&client_);
    Result<std::string> multi = engine.MultiStreamGet(url_, params);
    if (multi.ok()) return multi;
    DAVIX_LOG(kDebug) << "multi-stream failed (" << multi.status().ToString()
                      << "), falling back to plain GET";
  }
  return WithFailover<std::string>(
      params,
      [&](const Uri& replica, const RequestParams& p) -> Result<std::string> {
        DAVIX_ASSIGN_OR_RETURN(
            HttpClient::Exchange exchange,
            client_.Execute(replica, http::Method::kGet, p));
        DAVIX_RETURN_IF_ERROR(HttpStatusToStatus(
            exchange.response.status_code, "GET " + replica.ToString()));
        return std::move(exchange.response.body);
      });
}

Status DavFile::Put(std::string data, const RequestParams& params) {
  DAVIX_ASSIGN_OR_RETURN(
      HttpClient::Exchange exchange,
      client_.Execute(url_, http::Method::kPut, params, std::move(data)));
  return HttpStatusToStatus(exchange.response.status_code,
                            "PUT " + url_.ToString());
}

Status DavFile::Delete(const RequestParams& params) {
  DAVIX_ASSIGN_OR_RETURN(
      HttpClient::Exchange exchange,
      client_.Execute(url_, http::Method::kDelete, params));
  return HttpStatusToStatus(exchange.response.status_code,
                            "DELETE " + url_.ToString());
}

Result<FileInfo> DavFile::Stat(const RequestParams& params) {
  return WithFailover<FileInfo>(
      params,
      [&](const Uri& replica, const RequestParams& p) -> Result<FileInfo> {
        DAVIX_ASSIGN_OR_RETURN(
            HttpClient::Exchange exchange,
            client_.Execute(replica, http::Method::kHead, p));
        DAVIX_RETURN_IF_ERROR(HttpStatusToStatus(
            exchange.response.status_code, "HEAD " + replica.ToString()));
        FileInfo info;
        info.size =
            exchange.response.headers.GetUint64("Content-Length").value_or(0);
        ReadValidators(exchange.response.headers, &info);
        return info;
      });
}

Result<OpenedFile> DavFile::Open(uint64_t head_bytes,
                                 const RequestParams& params) {
  if (head_bytes == 0) {
    return Status::InvalidArgument("Open needs a non-empty head");
  }
  BlockCache* cache = params.use_block_cache &&
                              context_->block_cache().enabled() &&
                              replica_set_ == nullptr
                          ? &context_->block_cache()
                          : nullptr;
  // The head always comes from the wire, so it counts as a miss, as
  // every read that skips the cache lookups does.
  if (cache != nullptr) cache->RecordMisses(1);
  return WithFailover<OpenedFile>(
      params,
      [&](const Uri& replica, const RequestParams& p) -> Result<OpenedFile> {
        http::HeaderMap headers;
        headers.Set("Range",
                    http::FormatRangeHeader({http::ByteRange{0, head_bytes}}));
        DAVIX_ASSIGN_OR_RETURN(
            HttpClient::Exchange exchange,
            client_.Execute(replica, http::Method::kGet, p, std::string(),
                            &headers));
        http::HttpResponse& response = exchange.response;
        const std::string what = "GET " + replica.ToString();
        OpenedFile opened;
        switch (response.status_code) {
          case 206: {
            DAVIX_ASSIGN_OR_RETURN(opened.info.size,
                                   SizeFromHeadRange(response, what));
            break;
          }
          case 200:
            opened.info.size = response.body.size();
            break;
          case 416: {
            // The only unsatisfiable "bytes=0-..." is an empty object.
            std::optional<std::string> cr =
                response.headers.Get("Content-Range");
            if (!cr || TrimWhitespace(*cr) != "bytes */0") {
              return Status::ProtocolError(what + ": 416 for a head read");
            }
            response.body.clear();
            break;
          }
          default:
            return HttpStatusToStatus(response.status_code, what);
        }
        ReadValidators(response.headers, &opened.info);
        if (cache != nullptr && !response.body.empty()) {
          // Published like every other read path's fill (a 200 body is
          // the whole object), so a later pass reads the head from
          // memory.
          cache->Insert(BlockCache::UrlKey(url_),
                        ValidatorFrom(response.headers), 0, response.body,
                        opened.info.size);
        }
        if (response.body.size() > head_bytes) response.body.resize(head_bytes);
        opened.head = std::move(response.body);
        return opened;
      });
}

Result<std::string> DavFile::GetChecksum(const RequestParams& params) {
  return WithFailover<std::string>(
      params,
      [&](const Uri& replica, const RequestParams& p) -> Result<std::string> {
        http::HeaderMap headers;
        headers.Set("Want-Digest", "md5");
        DAVIX_ASSIGN_OR_RETURN(
            HttpClient::Exchange exchange,
            client_.Execute(replica, http::Method::kHead, p,
                            std::string(), &headers));
        DAVIX_RETURN_IF_ERROR(HttpStatusToStatus(
            exchange.response.status_code, "HEAD " + replica.ToString()));
        std::optional<std::string> digest =
            exchange.response.headers.Get("Digest");
        if (!digest) {
          return Status::NotSupported("server sent no Digest header for " +
                                      replica.ToString());
        }
        // Digest: md5=<base64>
        std::string_view value = TrimWhitespace(*digest);
        if (!StartsWith(value, "md5=")) {
          return Status::ProtocolError("unexpected Digest algorithm: " +
                                       *digest);
        }
        DAVIX_ASSIGN_OR_RETURN(std::string raw,
                               Base64Decode(value.substr(4)));
        return HexEncode(raw);
      });
}

Status DavFile::Copy(const std::string& destination_path,
                     const RequestParams& params) {
  http::HeaderMap headers;
  headers.Set("Destination", destination_path);
  DAVIX_ASSIGN_OR_RETURN(
      HttpClient::Exchange exchange,
      client_.Execute(url_, http::Method::kCopy, params, std::string(),
                      &headers));
  return HttpStatusToStatus(exchange.response.status_code,
                            "COPY " + url_.ToString());
}

Result<std::string> DavFile::ReadPartial(uint64_t offset, uint64_t length,
                                         const RequestParams& params) {
  if (length == 0) return std::string();
  std::vector<http::ByteRange> ranges = {http::ByteRange{offset, length}};
  DAVIX_ASSIGN_OR_RETURN(std::vector<std::string> results,
                         ReadPartialVec(ranges, params));
  return std::move(results[0]);
}

Status DavFile::ResolveReplicaSet(const RequestParams& params) {
  if (replica_set_ != nullptr) return Status::OK();
  if (params.metalink_mode == MetalinkMode::kDisabled) {
    return Status::InvalidArgument("metalink disabled for " +
                                   url_.ToString());
  }
  DAVIX_ASSIGN_OR_RETURN(replica_set_,
                         ReplicaSet::Resolve(context_, url_, params));
  return Status::OK();
}

Result<std::vector<std::string>> DavFile::ReadPartialVec(
    const std::vector<http::ByteRange>& ranges, const RequestParams& params) {
  if (replica_set_ != nullptr &&
      params.metalink_mode != MetalinkMode::kDisabled) {
    // The batch dispatch fails over per batch on the resolved set (and
    // stripes batches across its sources); a top-level retry here would
    // only repeat the same walk. One armed deadline spans every batch.
    RequestParams armed = params;
    armed.ArmDeadline();
    return ReadPartialVecAt(url_, ranges, armed);
  }
  return WithFailover<std::vector<std::string>>(
      params,
      [&](const Uri& replica,
          const RequestParams& p) -> Result<std::vector<std::string>> {
        return ReadPartialVecAt(replica, ranges, p);
      });
}

std::future<Result<std::vector<std::string>>> DavFile::ReadPartialVecAsync(
    const std::vector<http::ByteRange>& ranges, const RequestParams& params) {
  // The task owns copies of the ranges and params; `this` stays valid by
  // the contract documented in the header. Sharing the packaged_task lets
  // the submit closure stay copyable.
  auto task = std::make_shared<
      std::packaged_task<Result<std::vector<std::string>>()>>(
      [this, ranges, params]() { return ReadPartialVec(ranges, params); });
  std::future<Result<std::vector<std::string>>> future = task->get_future();
  if (!context_->dispatcher().Submit([task]() { (*task)(); })) {
    // Dispatcher shutting down: run inline so the future still resolves.
    (*task)();
  }
  return future;
}

Status DavFile::RevalidateCached(const Uri& replica,
                                 const RequestParams& params,
                                 BlockCache* cache,
                                 const std::string& cache_key) {
  DAVIX_ASSIGN_OR_RETURN(
      HttpClient::Exchange exchange,
      client_.Execute(replica, http::Method::kHead, params));
  DAVIX_RETURN_IF_ERROR(HttpStatusToStatus(exchange.response.status_code,
                                           "HEAD " + replica.ToString()));
  cache->NoteValidator(cache_key, ValidatorFrom(exchange.response.headers));
  return Status::OK();
}

Result<std::vector<std::string>> DavFile::ReadPartialVecAt(
    const Uri& replica, const std::vector<http::ByteRange>& ranges,
    const RequestParams& params) {
  std::vector<std::string> results(ranges.size());

  BlockCache* cache = params.use_block_cache &&
                              context_->block_cache().enabled()
                          ? &context_->block_cache()
                          : nullptr;
  // Cache entries are keyed by the canonical *primary* URL, not the
  // replica actually fetched from: fail-over reads of the same resource
  // share one block set.
  ReplicaSet* set = params.metalink_mode != MetalinkMode::kDisabled
                        ? replica_set_.get()
                        : nullptr;
  std::string cache_key = cache ? BlockCache::UrlKey(url_) : std::string();
  if (cache &&
      params.cache_revalidation == CacheRevalidatePolicy::kAlways &&
      cache->HasUrl(cache_key)) {
    // With a resolved set the revalidation HEAD goes to the best-ranked
    // source (the primary may be the very replica that is down).
    Uri revalidate_target = replica;
    if (set != nullptr) {
      std::vector<std::shared_ptr<ReplicaSource>> ranked =
          set->RankedSources();
      if (!ranked.empty()) revalidate_target = ranked.front()->url();
    }
    DAVIX_RETURN_IF_ERROR(
        RevalidateCached(revalidate_target, params, cache, cache_key));
  }

  // Cache carve-out, before any coalescing: the cached prefix and
  // suffix of each user range are copied straight into its result slot,
  // and only the missing middle span is forwarded to the wire planner.
  // Fully cached ranges never reach the network at all.
  struct NetSpan {
    size_t range_index;    ///< index into `ranges` / `results`
    uint64_t dest_offset;  ///< where the fetched bytes land in the slot
  };
  std::vector<http::ByteRange> net_ranges;
  std::vector<NetSpan> net_spans;
  bool cache_served = false;  // any byte of `results` came from the cache
  bool carved = false;        // some range was trimmed (dest offsets != 0)
  // Snapshot of the cache's purge epoch, taken before any cached byte
  // is served: compared after the network fill to catch a generation
  // turnover — whether triggered by this dispatch's own fills or by a
  // concurrent dispatch / Open on the same Context.
  uint64_t purge_epoch = cache ? cache->PurgeEpoch() : 0;
  if (cache) {
    net_ranges.reserve(ranges.size());
    net_spans.reserve(ranges.size());
    // One registry probe up front: a URL with nothing resident (the
    // cold case) skips the per-range lookups — and their 2N lock
    // round trips — entirely. The skipped lookups still count as
    // misses so hit/miss accounting reflects reads that hit the wire.
    bool may_be_cached = cache->HasUrl(cache_key);
    uint64_t skipped_lookups = 0;
    for (size_t i = 0; i < ranges.size(); ++i) {
      const http::ByteRange& r = ranges[i];
      results[i].resize(r.length);
      if (r.length == 0) {
        // Placeholder keeps net indices aligned with user indices, so
        // empty ranges do not knock the dispatch off the direct
        // zero-copy scatter path. CoalesceRanges skips them.
        net_ranges.push_back(http::ByteRange{r.offset, 0});
        net_spans.push_back({i, 0});
        continue;
      }
      if (!may_be_cached) {
        ++skipped_lookups;
        net_ranges.push_back(r);
        net_spans.push_back({i, 0});
        continue;
      }
      uint64_t prefix =
          cache->ReadPrefix(cache_key, r.offset, r.length, results[i].data());
      if (prefix == r.length) {
        cache_served = true;
        continue;  // fully cache-served
      }
      uint64_t suffix = cache->ReadSuffix(cache_key, r.offset + prefix,
                                          r.length - prefix,
                                          results[i].data() + prefix);
      if (prefix > 0 || suffix > 0) cache_served = carved = true;
      net_ranges.push_back(
          http::ByteRange{r.offset + prefix, r.length - prefix - suffix});
      net_spans.push_back({i, prefix});
    }
    cache->RecordMisses(skipped_lookups);
    bool all_empty_or_served = true;
    for (const http::ByteRange& r : net_ranges) {
      if (r.length != 0) {
        all_empty_or_served = false;
        break;
      }
    }
    if (all_empty_or_served) return results;  // warm: zero wire traffic
  }
  const std::vector<http::ByteRange>& wire_view = cache ? net_ranges : ranges;

  std::vector<CoalescedRange> coalesced =
      CoalesceRanges(wire_view, params.vector_gap_bytes);
  if (coalesced.empty()) {
    // All (remaining) ranges empty; size untouched slots like preadv.
    for (size_t i = 0; i < ranges.size(); ++i) {
      results[i].resize(ranges[i].length);
    }
    return results;
  }
  // Multi-stream chunking: re-split big contiguous runs and cap batch
  // bytes so one large read fans out across the parallel dispatcher
  // instead of riding a single connection's congestion window.
  coalesced = SplitOversized(std::move(coalesced), wire_view,
                             params.vector_parallel_chunk_bytes);
  std::vector<std::vector<CoalescedRange>> batches =
      SplitBatches(std::move(coalesced), params.max_ranges_per_request,
                   params.vector_parallel_chunk_bytes);

  // Zero-copy scatter: size every result slot up front so concurrent
  // batch workers write payload bytes straight into them — no allocation
  // inside the dispatch, and no two workers share a slot (each user
  // range lives in exactly one wire range, each wire range in exactly
  // one batch). Only when the cache actually trimmed or dropped ranges
  // (net indices no longer line up with user indices) do workers
  // scatter into per-net-span slots that are folded back into the user
  // slots afterwards — a cold read on a cache-enabled Context keeps
  // the direct zero-copy path.
  bool direct_scatter =
      cache == nullptr || (!carved && net_ranges.size() == ranges.size());
  std::vector<std::string> net_results;
  std::vector<std::string>* scatter_slots;
  if (direct_scatter) {
    for (size_t i = 0; i < ranges.size(); ++i) {
      results[i].resize(ranges[i].length);
    }
    scatter_slots = &results;
  } else {
    net_results.resize(net_ranges.size());
    for (size_t j = 0; j < net_ranges.size(); ++j) {
      net_results[j].resize(net_ranges[j].length);
    }
    scatter_slots = &net_results;
  }

  size_t parallelism = params.max_parallel_range_requests;
  if (parallelism == 0) {
    parallelism = context_->pool().config().max_idle_per_host;
  }
  parallelism = std::max<size_t>(1, std::min(parallelism, batches.size()));

  // Single-batch (or serial) dispatches stay on the calling thread and
  // never start the dispatcher; multi-batch dispatches run on the shared
  // per-Context pool instead of spawning threads per call.
  ThreadPool* dispatcher =
      batches.size() > 1 && parallelism > 1 ? &context_->dispatcher() : nullptr;

  VecDispatchState state;
  state.cache = cache;
  state.cache_key = &cache_key;
  state.replica_set = set;
  ParallelForCancellable(
      dispatcher, batches.size(), parallelism, [&](size_t batch_index) {
        Status status =
            set != nullptr
                ? FetchVecBatchMultiSource(batch_index, parallelism,
                                           batches[batch_index], params,
                                           wire_view, &state, scatter_slots)
                : FetchVecBatch(replica, batches[batch_index], params,
                                wire_view, &state, scatter_slots,
                                /*did_fetch=*/nullptr);
        if (!status.ok()) {
          MutexLock lock(state.mu);
          if (state.first_error.ok()) state.first_error = std::move(status);
          state.failed.store(true, std::memory_order_release);
          return false;  // first-error cancellation: skip unstarted batches
        }
        return true;
      });

  {
    MutexLock lock(state.mu);
    if (!state.first_error.ok()) return state.first_error;
  }
  if (cache && cache_served && cache->PurgeEpoch() != purge_epoch) {
    // A generation turnover happened while part of this read was
    // already served from the cache — detected by this dispatch's own
    // fill, or caused by a concurrent dispatch/Open purging the URL:
    // the assembled buffer could mix two generations into bytes that
    // never existed remotely. Refetch everything coherently with the
    // cache bypassed — same single-pass semantics a cache-less
    // dispatch has.
    DAVIX_LOG(kDebug) << "cache generation changed mid-read of "
                      << url_.ToString() << "; refetching without cache";
    RequestParams bypass = params;
    bypass.use_block_cache = false;
    return ReadPartialVecAt(replica, ranges, bypass);
  }
  if (!direct_scatter) {
    for (size_t j = 0; j < net_ranges.size(); ++j) {
      const NetSpan& span = net_spans[j];
      results[span.range_index].replace(span.dest_offset,
                                        net_results[j].size(),
                                        net_results[j]);
    }
  }
  return results;
}

Status DavFile::FetchVecBatchMultiSource(
    size_t batch_index, size_t stripe_width,
    const std::vector<CoalescedRange>& batch, const RequestParams& params,
    const std::vector<http::ByteRange>& ranges, VecDispatchState* state,
    std::vector<std::string>* results) {
  // TryCandidates owns the failover/health policy; FetchVecBatch flags
  // `did_fetch` so short-circuited batches (sibling failed, or demoted
  // to local scatter off a parked full body) feed no bogus ~0 µs
  // latency into the EWMA of a source that did no work.
  return state->replica_set->TryCandidates(
      batch_index, stripe_width,
      [&](const std::shared_ptr<ReplicaSource>& source, bool* did_fetch) {
        return FetchVecBatch(source->url(), batch, params, ranges, state,
                             results, did_fetch);
      });
}

Status DavFile::FetchVecBatch(const Uri& replica,
                              const std::vector<CoalescedRange>& batch,
                              const RequestParams& params,
                              const std::vector<http::ByteRange>& ranges,
                              VecDispatchState* state,
                              std::vector<std::string>* results,
                              bool* did_fetch) {
  // A sibling batch already failed between this batch being claimed and
  // starting: don't put more traffic on the wire.
  if (state->failed.load(std::memory_order_acquire)) return Status::OK();

  // A sibling batch already received the whole entity: demote to local
  // scatter, zero wire traffic.
  if (state->have_full_body.load(std::memory_order_acquire)) {
    return ScatterFromFullBody(batch, state->full_body, ranges, results);
  }

  std::vector<http::ByteRange> wire_ranges;
  wire_ranges.reserve(batch.size());
  for (const CoalescedRange& wire : batch) wire_ranges.push_back(wire.range);

  http::HeaderMap headers;
  headers.Set("Range", http::FormatRangeHeader(wire_ranges));
  context_->stats().vector_queries.fetch_add(1, std::memory_order_relaxed);
  context_->stats().ranges_requested.fetch_add(wire_ranges.size(),
                                               std::memory_order_relaxed);

  // Stall watchdog: budget this batch by its wire bytes at the minimum
  // acceptable rate, so one trickling server aborts the batch (counted
  // as a stall_abort) and the dispatcher fails it over instead of
  // wedging the whole vectored read.
  uint64_t wire_bytes = 0;
  for (const CoalescedRange& wire : batch) wire_bytes += wire.range.length;
  const int64_t stall_budget =
      StallBudgetMicros(wire_bytes, params.min_throughput_bytes_per_sec);
  RequestParams attempt_params = params;
  if (stall_budget > 0) {
    attempt_params.deadline = params.deadline.Tightened(stall_budget);
  }

  if (did_fetch != nullptr) *did_fetch = true;
  Result<HttpClient::Exchange> attempt = client_.Execute(
      replica, http::Method::kGet, attempt_params, std::string(), &headers);
  if (!attempt.ok()) {
    if (stall_budget > 0 &&
        attempt.status().code() == StatusCode::kTimeout &&
        !params.deadline.Expired()) {
      context_->stats().stall_aborts.fetch_add(1, std::memory_order_relaxed);
    }
    return attempt.status();
  }
  HttpClient::Exchange exchange = std::move(*attempt);
  http::HttpResponse& response = exchange.response;

  // Generation admission, before any byte is scattered or cached: with
  // a replica set, a response whose validators disagree with the set's
  // agreed generation is dropped wholesale (the source is quarantined
  // by the admission) and the batch is re-dispatched to the next-best
  // source. Admitted responses publish under the agreed validator, so
  // fills from different replicas never purge each other.
  BlockValidator response_validator = ValidatorFrom(response.headers);
  if (state->replica_set != nullptr &&
      (response.status_code == 200 || response.status_code == 206)) {
    std::optional<BlockValidator> admitted =
        state->replica_set->AdmitUrl(replica, response_validator);
    if (!admitted) {
      context_->stats().replica_validator_rejects.fetch_add(
          1, std::memory_order_relaxed);
      return Status::Corruption("replica generation mismatch: " +
                                replica.ToString());
    }
    response_validator = *admitted;
  }

  if (response.status_code == 200) {
    // Server ignored the Range header: it sent the whole entity. Move
    // the body into the shared state (no copy) so every remaining batch
    // is satisfied locally.
    bool stored = false;
    {
      MutexLock lock(state->mu);
      if (!state->have_full_body.load(std::memory_order_relaxed)) {
        state->full_body = std::move(response.body);
        state->have_full_body.store(true, std::memory_order_release);
        stored = true;
      }
    }
    if (stored && state->cache != nullptr) {
      // The whole object is in hand: cache every block of it, final
      // short block included.
      state->cache->Insert(*state->cache_key, response_validator, 0,
                           state->full_body, state->full_body.size());
    }
    return ScatterFromFullBody(batch, state->full_body, ranges, results);
  }
  if (response.status_code != 206) {
    return HttpStatusToStatus(response.status_code,
                              "vectored GET " + replica.ToString());
  }

  std::string content_type = response.headers.Get("Content-Type").value_or("");
  if (content_type.find("multipart/byteranges") != std::string::npos) {
    DAVIX_ASSIGN_OR_RETURN(std::string boundary,
                           http::ExtractBoundary(content_type));
    DAVIX_ASSIGN_OR_RETURN(std::vector<http::BytesPartView> parts,
                           http::ParseMultipartViews(response.body, boundary));
    // Match parts to wire ranges via a single-pass offset-keyed lookup
    // (wire ranges are pairwise disjoint, so offsets are unique). The
    // parts are views into the response body: payload bytes are copied
    // exactly once, straight into the user slots.
    std::unordered_map<uint64_t, const http::BytesPartView*> parts_by_offset;
    parts_by_offset.reserve(parts.size());
    for (const http::BytesPartView& part : parts) {
      parts_by_offset.emplace(part.range.offset, &part);
    }
    for (const CoalescedRange& wire : batch) {
      auto it = parts_by_offset.find(wire.range.offset);
      const http::BytesPartView* match =
          it != parts_by_offset.end() && it->second->range == wire.range
              ? it->second
              : nullptr;
      if (match == nullptr) {
        // Tolerate servers that send duplicate-offset or extra parts:
        // fall back to an exact scan before declaring the range missing.
        for (const http::BytesPartView& part : parts) {
          if (part.range == wire.range) {
            match = &part;
            break;
          }
        }
      }
      if (match == nullptr) {
        return Status::ProtocolError("multipart response missing range " +
                                     http::FormatRangeHeader({wire.range}));
      }
      DAVIX_RETURN_IF_ERROR(
          ScatterWireRange(wire, match->data, ranges, results));
      if (state->cache != nullptr) {
        // Wire ranges include coalesced gap bytes, so whole blocks the
        // user never asked for still become cache lines.
        state->cache->Insert(*state->cache_key, response_validator,
                             match->range.offset, match->data,
                             match->total_size);
      }
    }
    return Status::OK();
  }

  // 206 with a single Content-Range: either we asked for one range, or
  // the server merged our ranges into one span.
  std::optional<std::string> content_range =
      response.headers.Get("Content-Range");
  if (!content_range) {
    return Status::ProtocolError("206 without Content-Range");
  }
  DAVIX_ASSIGN_OR_RETURN(http::ContentRange cr,
                         http::ParseContentRange(*content_range));
  if (response.body.size() != cr.range.length) {
    return Status::ProtocolError("206 body size != Content-Range length");
  }
  if (state->cache != nullptr) {
    state->cache->Insert(*state->cache_key, response_validator,
                         cr.range.offset, response.body, cr.total_size);
  }
  for (const CoalescedRange& wire : batch) {
    if (wire.range.offset < cr.range.offset ||
        wire.range.offset + wire.range.length >
            cr.range.offset + cr.range.length) {
      return Status::ProtocolError("206 span does not cover requested range");
    }
    DAVIX_RETURN_IF_ERROR(ScatterWireRange(
        wire,
        std::string_view(response.body)
            .substr(wire.range.offset - cr.range.offset, wire.range.length),
        ranges, results));
  }
  return Status::OK();
}

}  // namespace core
}  // namespace davix
