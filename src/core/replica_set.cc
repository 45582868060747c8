#include "core/replica_set.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "core/metalink_engine.h"
#include "core/read_ahead_stream.h"
#include "core/resilience.h"
#include "http/parser.h"
#include "http/range.h"

namespace davix {
namespace core {

namespace {

/// EWMA smoothing factor for per-source latency; high enough that a
/// source going slow mid-transfer loses its preferred rank within a few
/// chunks.
constexpr double kLatencyEwmaAlpha = 0.3;

constexpr uint64_t kDefaultChunkBytes = 1 << 20;
constexpr size_t kDefaultMaxStreams = 4;
constexpr int kDefaultQuarantineFailures = 2;
constexpr int64_t kDefaultQuarantineMicros = 30'000'000;

}  // namespace

BlockValidator ValidatorFrom(const http::HeaderMap& headers) {
  BlockValidator v;
  v.etag = headers.Get("ETag").value_or("");
  if (std::optional<std::string> lm = headers.Get("Last-Modified")) {
    Result<int64_t> mtime = http::ParseHttpDate(*lm);
    if (mtime.ok()) v.mtime_epoch_seconds = *mtime;
  }
  return v;
}

bool ShouldFailover(const Status& status) {
  switch (status.code()) {
    case StatusCode::kConnectionFailed:
    case StatusCode::kConnectionReset:
    case StatusCode::kTimeout:
    case StatusCode::kRemoteError:
    case StatusCode::kNotFound:
    case StatusCode::kProtocolError:
      return true;
    default:
      return false;
  }
}

bool WalksOn(const Status& status) {
  return ShouldFailover(status) || status.code() == StatusCode::kCorruption;
}

// ---------------------------------------------------------------------------
// ReplicaSource
// ---------------------------------------------------------------------------

void ReplicaSource::RecordSuccess(int64_t latency_micros) {
  MutexLock lock(mu_);
  consecutive_failures_ = 0;
  quarantine_until_micros_ = 0;
  ++successes_;
  double sample = static_cast<double>(latency_micros);
  latency_ewma_micros_ =
      latency_ewma_micros_ == 0
          ? sample
          : kLatencyEwmaAlpha * sample +
                (1 - kLatencyEwmaAlpha) * latency_ewma_micros_;
}

bool ReplicaSource::RecordFailure(int64_t now_micros, int failure_threshold,
                                  int64_t quarantine_micros) {
  MutexLock lock(mu_);
  ++failures_;
  ++consecutive_failures_;
  if (generation_rejected_) return false;
  bool was_quarantined = quarantine_until_micros_ > now_micros;
  if (consecutive_failures_ >= failure_threshold) {
    quarantine_until_micros_ = now_micros + quarantine_micros;
    return !was_quarantined;
  }
  return false;
}

bool ReplicaSource::RejectGeneration() {
  MutexLock lock(mu_);
  if (generation_rejected_) return false;
  generation_rejected_ = true;
  return true;
}

bool ReplicaSource::Quarantined(int64_t now_micros) const {
  MutexLock lock(mu_);
  return generation_rejected_ || quarantine_until_micros_ > now_micros;
}

bool ReplicaSource::generation_rejected() const {
  MutexLock lock(mu_);
  return generation_rejected_;
}

double ReplicaSource::latency_ewma_micros() const {
  MutexLock lock(mu_);
  return latency_ewma_micros_;
}

int ReplicaSource::consecutive_failures() const {
  MutexLock lock(mu_);
  return consecutive_failures_;
}

uint64_t ReplicaSource::successes() const {
  MutexLock lock(mu_);
  return successes_;
}

uint64_t ReplicaSource::failures() const {
  MutexLock lock(mu_);
  return failures_;
}

// ---------------------------------------------------------------------------
// ReplicaSet
// ---------------------------------------------------------------------------

ReplicaSet::ReplicaSet(Context* context, Uri primary, ReplicaSetConfig config)
    : context_(context),
      client_(context),
      primary_(std::move(primary)),
      config_(config) {}

ReplicaSetConfig ReplicaSet::ConfigFrom(const RequestParams& params) {
  ReplicaSetConfig config;
  config.chunk_bytes = params.multistream_chunk_bytes == 0
                           ? kDefaultChunkBytes
                           : params.multistream_chunk_bytes;
  config.max_streams = params.multistream_max_streams == 0
                           ? kDefaultMaxStreams
                           : params.multistream_max_streams;
  config.quarantine_failures = params.replica_quarantine_failures <= 0
                                   ? kDefaultQuarantineFailures
                                   : params.replica_quarantine_failures;
  config.quarantine_micros = params.replica_quarantine_micros <= 0
                                 ? kDefaultQuarantineMicros
                                 : params.replica_quarantine_micros;
  return config;
}

Result<std::shared_ptr<ReplicaSet>> ReplicaSet::Make(
    Context* context, const Uri& primary,
    const metalink::MetalinkFile& metalink, ReplicaSetConfig config) {
  if (config.chunk_bytes == 0) config.chunk_bytes = kDefaultChunkBytes;
  if (config.max_streams == 0) config.max_streams = kDefaultMaxStreams;
  if (config.quarantine_failures <= 0) {
    config.quarantine_failures = kDefaultQuarantineFailures;
  }
  if (config.quarantine_micros <= 0) {
    config.quarantine_micros = kDefaultQuarantineMicros;
  }

  auto set = std::shared_ptr<ReplicaSet>(
      new ReplicaSet(context, primary, config));
  set->size_ = metalink.size;
  set->md5_ = metalink.md5;

  std::set<std::string> seen;
  for (const metalink::Replica& replica : metalink.SortedReplicas()) {
    Result<Uri> uri = Uri::Parse(replica.url);
    if (!uri.ok()) {
      DAVIX_LOG(kWarn) << "skipping unparseable replica URL " << replica.url;
      continue;
    }
    if (!seen.insert(BlockCache::UrlKey(*uri)).second) continue;
    set->sources_.push_back(std::make_shared<ReplicaSource>(
        std::move(*uri), replica.priority));
  }
  if (seen.insert(BlockCache::UrlKey(primary)).second) {
    // The original URL the caller opened is always a source, preferred
    // over the Metalink entries (priority 0 < RFC 5854's minimum 1).
    set->sources_.insert(set->sources_.begin(),
                         std::make_shared<ReplicaSource>(primary, 0));
  }
  if (set->sources_.empty()) {
    return Status::AllReplicasFailed("metalink for " + primary.ToString() +
                                     " lists no usable replicas");
  }
  return set;
}

Result<std::shared_ptr<ReplicaSet>> ReplicaSet::Resolve(
    Context* context, const Uri& resource, const RequestParams& params) {
  HttpClient client(context);
  MetalinkEngine engine(&client);
  DAVIX_ASSIGN_OR_RETURN(metalink::MetalinkFile file,
                         engine.Fetch(resource, params));
  return Make(context, resource, file, ConfigFrom(params));
}

uint64_t ReplicaSet::size() const {
  MutexLock lock(mu_);
  return size_;
}

std::shared_ptr<ReplicaSource> ReplicaSet::FindSource(const Uri& url) const {
  std::string key = BlockCache::UrlKey(url);
  for (const std::shared_ptr<ReplicaSource>& source : sources_) {
    if (BlockCache::UrlKey(source->url()) == key) return source;
  }
  return nullptr;
}

std::vector<std::shared_ptr<ReplicaSource>> ReplicaSet::RankedSources()
    const {
  int64_t now = MonotonicMicros();
  // Healthy before quarantined before breaker-open; probed sources by
  // latency EWMA; unprobed ones after, by Metalink priority then URL
  // (deterministic ties). A host whose circuit breaker is open (still
  // inside its cooldown, every acquire fast-fails) ranks below a
  // quarantined-but-probing source: the latter may answer, the former
  // cannot. The key is snapshotted once per source BEFORE sorting:
  // health state mutates concurrently (dispatcher workers record
  // outcomes mid-sort), and a comparator re-reading live state could
  // violate strict weak ordering — undefined behaviour in stable_sort.
  const CircuitBreakerRegistry& breakers = context_->pool().breakers();
  struct Decorated {
    std::tuple<int, int, double, int, std::string> key;
    std::shared_ptr<ReplicaSource> source;
  };
  std::vector<Decorated> decorated;
  decorated.reserve(sources_.size());
  for (const std::shared_ptr<ReplicaSource>& source : sources_) {
    if (source->generation_rejected()) continue;
    double ewma = source->latency_ewma_micros();
    int health = breakers.OpenForHost(source->url().HostPortKey(), now) ? 2
                 : source->Quarantined(now)                             ? 1
                                                                        : 0;
    decorated.push_back(
        {std::make_tuple(health, ewma == 0 ? 1 : 0, ewma, source->priority(),
                         source->url().ToString()),
         source});
  }
  std::stable_sort(decorated.begin(), decorated.end(),
                   [](const Decorated& a, const Decorated& b) {
                     return a.key < b.key;
                   });
  std::vector<std::shared_ptr<ReplicaSource>> ranked;
  ranked.reserve(decorated.size());
  for (Decorated& d : decorated) ranked.push_back(std::move(d.source));
  return ranked;
}

std::vector<std::shared_ptr<ReplicaSource>> ReplicaSet::CandidatesFor(
    size_t index, size_t stripe_width,
    const std::vector<std::shared_ptr<ReplicaSource>>& lanes) const {
  std::vector<std::shared_ptr<ReplicaSource>> candidates = RankedSources();
  int64_t now = MonotonicMicros();
  const CircuitBreakerRegistry& breakers = context_->pool().breakers();
  size_t healthy = 0;
  while (healthy < candidates.size() &&
         !candidates[healthy]->Quarantined(now) &&
         !breakers.OpenForHost(candidates[healthy]->url().HostPortKey(),
                               now)) {
    ++healthy;
  }
  if (!lanes.empty()) {
    // Near-tied latency EWMAs swap ranks from one chunk to the next; in
    // live order a swap sends a slot's next chunk to a source still busy
    // with another slot's (a second, cold connection) while its own
    // source idles. Lane order keeps the slot on its source.
    auto lane = [&lanes](const std::shared_ptr<ReplicaSource>& source) {
      return std::find(lanes.begin(), lanes.end(), source) - lanes.begin();
    };
    std::stable_sort(candidates.begin(), candidates.begin() + healthy,
                     [&lane](const std::shared_ptr<ReplicaSource>& a,
                             const std::shared_ptr<ReplicaSource>& b) {
                       return lane(a) < lane(b);
                     });
  }
  // Stripe rotation: concurrent slots start on different healthy
  // sources, so parallel chunk fetches aggregate per-connection TCP
  // windows instead of convoying on the single best replica. A stripe
  // width of 1 (single stream) keeps every chunk on the ranked-best
  // source and its warm keep-alive connection.
  size_t width = std::min(stripe_width == 0 ? 1 : stripe_width,
                          healthy == 0 ? 1 : healthy);
  if (healthy > 1 && width > 1) {
    std::rotate(candidates.begin(), candidates.begin() + (index % width),
                candidates.begin() + healthy);
  }
  return candidates;
}

void ReplicaSet::RecordSuccess(const std::shared_ptr<ReplicaSource>& source,
                               int64_t latency_micros) {
  source->RecordSuccess(latency_micros);
}

void ReplicaSet::RecordFailure(const std::shared_ptr<ReplicaSource>& source) {
  if (source->RecordFailure(MonotonicMicros(), config_.quarantine_failures,
                            config_.quarantine_micros)) {
    context_->stats().replica_quarantines.fetch_add(
        1, std::memory_order_relaxed);
  }
}

Status ReplicaSet::TryCandidates(
    size_t index, size_t stripe_width, const CandidateAttemptFn& attempt,
    const std::vector<std::shared_ptr<ReplicaSource>>& lanes) {
  Status last = Status::AllReplicasFailed("replica set has no usable source");
  bool first = true;
  for (const std::shared_ptr<ReplicaSource>& source :
       CandidatesFor(index, stripe_width, lanes)) {
    if (!first) {
      context_->stats().replica_failovers.fetch_add(1,
                                                    std::memory_order_relaxed);
      DAVIX_LOG(kDebug) << "failing over to replica "
                        << source->url().ToString();
    }
    first = false;
    int64_t start = MonotonicMicros();
    bool did_fetch = false;
    Status status = attempt(source, &did_fetch);
    if (status.ok()) {
      if (did_fetch) RecordSuccess(source, MonotonicMicros() - start);
      return status;
    }
    if (!did_fetch) return status;  // local failure: nobody to blame
    RecordFailure(source);
    if (!WalksOn(status)) return status;
    last = std::move(status);
  }
  return last;
}

void ReplicaSet::SeedValidator(const BlockValidator& validator) {
  if (validator.empty()) return;
  MutexLock lock(mu_);
  if (agreed_set_) return;
  agreed_ = validator;
  agreed_set_ = true;
}

bool ReplicaSet::AgreesLocked(const BlockValidator& validator) const {
  // A response with no validators cannot disagree. Otherwise compare
  // ETags when both sides have one (replicas with skewed Last-Modified
  // stamps but equal ETags still pool); full validator equality when
  // either lacks an ETag.
  if (!agreed_set_ || validator.empty()) return true;
  return (!validator.etag.empty() && !agreed_.etag.empty())
             ? validator.etag == agreed_.etag
             : validator == agreed_;
}

bool ReplicaSet::Agrees(const BlockValidator& validator) const {
  MutexLock lock(mu_);
  return AgreesLocked(validator);
}

bool ReplicaSet::AdmitCachedGeneration(BlockCache* cache,
                                       const std::string& cache_key) {
  std::optional<BlockValidator> current = cache->UrlValidator(cache_key);
  // No registry entry means a purge raced the probe: the copied bytes
  // may span two generations, so they go back to the wire.
  if (!current) return false;
  SeedValidator(*current);
  return Agrees(*current);
}

std::optional<BlockValidator> ReplicaSet::Admit(
    const std::shared_ptr<ReplicaSource>& source,
    const BlockValidator& validator) {
  {
    MutexLock lock(mu_);
    if (!agreed_set_ && !validator.empty()) {
      agreed_ = validator;
      agreed_set_ = true;
      return agreed_;
    }
    if (AgreesLocked(validator)) return agreed_;
  }
  if (source && source->RejectGeneration()) {
    context_->stats().replica_quarantines.fetch_add(
        1, std::memory_order_relaxed);
    DAVIX_LOG(kWarn) << "replica " << source->url().ToString()
                     << " serves a different generation of "
                     << primary_.ToString() << "; quarantined";
  }
  return std::nullopt;
}

std::optional<BlockValidator> ReplicaSet::AdmitUrl(
    const Uri& url, const BlockValidator& validator) {
  return Admit(FindSource(url), validator);
}

BlockValidator ReplicaSet::agreed_validator() const {
  MutexLock lock(mu_);
  return agreed_;
}

std::vector<ReplicaSourceSnapshot> ReplicaSet::Snapshot() const {
  int64_t now = MonotonicMicros();
  std::vector<ReplicaSourceSnapshot> out;
  out.reserve(sources_.size());
  for (const std::shared_ptr<ReplicaSource>& source : sources_) {
    ReplicaSourceSnapshot snap;
    snap.url = source->url().ToString();
    snap.latency_ewma_micros = source->latency_ewma_micros();
    snap.consecutive_failures = source->consecutive_failures();
    snap.quarantined = source->Quarantined(now);
    snap.generation_rejected = source->generation_rejected();
    snap.successes = source->successes();
    snap.failures = source->failures();
    out.push_back(std::move(snap));
  }
  return out;
}

Result<HttpClient::Exchange> ReplicaSet::HeadRankedSources(
    const RequestParams& params) {
  RequestParams head_params = params;
  head_params.metalink_mode = MetalinkMode::kDisabled;
  Status last = Status::AllReplicasFailed("no replica answered HEAD");
  for (const std::shared_ptr<ReplicaSource>& source : RankedSources()) {
    int64_t start = MonotonicMicros();
    Result<HttpClient::Exchange> exchange =
        client_.Execute(source->url(), http::Method::kHead, head_params);
    Status status = exchange.ok()
                        ? HttpStatusToStatus(exchange->response.status_code,
                                             "HEAD " +
                                                 source->url().ToString())
                        : exchange.status();
    if (!status.ok()) {
      RecordFailure(source);
      last = std::move(status);
      continue;
    }
    RecordSuccess(source, MonotonicMicros() - start);
    SeedValidator(ValidatorFrom(exchange->response.headers));
    return exchange;
  }
  return last;
}

void ReplicaSet::EnsureSeeded(const RequestParams& params) {
  {
    MutexLock lock(mu_);
    if (agreed_set_) return;
  }
  // Nobody answering leaves the set unseeded: the first fetched chunk's
  // validator becomes the agreed generation instead.
  HeadRankedSources(params).ok();
}

Result<uint64_t> ReplicaSet::ResolveSize(const RequestParams& params) {
  {
    MutexLock lock(mu_);
    if (size_ != 0) return size_;
  }
  DAVIX_ASSIGN_OR_RETURN(HttpClient::Exchange exchange,
                         HeadRankedSources(params));
  std::optional<uint64_t> length =
      exchange.response.headers.GetUint64("Content-Length");
  if (!length || *length == 0) {
    return Status::ProtocolError(
        "multi-source: HEAD without usable Content-Length for " +
        primary_.ToString());
  }
  MutexLock lock(mu_);
  size_ = *length;
  return size_;
}

Status ReplicaSet::FetchChunk(
    size_t chunk_index,
    const std::vector<std::shared_ptr<ReplicaSource>>& lanes,
    uint64_t chunk_offset, uint64_t chunk_length, const RequestParams& params,
    const std::string& cache_key, BlockCache* cache, std::string* data) {
  if (cache != nullptr) {
    // A probe hit is delivered only when (a) no purge interleaved the
    // multi-block copy-out — the epoch is stable, so every byte read
    // belongs to one generation — and (b) that generation is the one
    // this stream agreed on (a concurrent reader may have refilled the
    // cache from a newer object mid-stream). Anything else refetches on
    // the wire, where Admit enforces the same agreement.
    uint64_t epoch = cache->PurgeEpoch();
    if (cache->TryReadFull(cache_key, chunk_offset, chunk_length, data) &&
        cache->PurgeEpoch() == epoch &&
        AdmitCachedGeneration(cache, cache_key)) {
      context_->stats().multisource_cache_chunks.fetch_add(
          1, std::memory_order_relaxed);
      return Status::OK();
    }
  }

  RequestParams chunk_params = params;
  chunk_params.ArmDeadline();
  chunk_params.metalink_mode = MetalinkMode::kDisabled;
  // The stall watchdog: a per-attempt deadline of "these bytes at the
  // minimum acceptable rate, plus slack". A replica trickling the body
  // below that rate is aborted (stall_aborts) and the chunk fails over
  // mid-read instead of wedging the whole stream behind one slow host.
  const int64_t stall_budget = StallBudgetMicros(
      chunk_length, params.min_throughput_bytes_per_sec);
  http::HeaderMap headers;
  headers.Set("Range", http::FormatRangeHeader(
                           {http::ByteRange{chunk_offset, chunk_length}}));
  uint64_t total = size();

  Status status = TryCandidates(
      chunk_index, config_.max_streams,
      [&](const std::shared_ptr<ReplicaSource>& source,
          bool* did_fetch) -> Status {
        context_->stats().multisource_chunks.fetch_add(
            1, std::memory_order_relaxed);
        *did_fetch = true;
        RequestParams attempt_params = chunk_params;
        if (stall_budget > 0) {
          attempt_params.deadline =
              chunk_params.deadline.Tightened(stall_budget);
        }
        Result<HttpClient::Exchange> exchange =
            client_.Execute(source->url(), http::Method::kGet, attempt_params,
                            std::string(), &headers);
        if (!exchange.ok()) {
          if (stall_budget > 0 &&
              exchange.status().code() == StatusCode::kTimeout &&
              !chunk_params.deadline.Expired()) {
            // The tightened per-attempt budget fired, not the caller's
            // end-to-end deadline: a stall, and the next replica gets
            // the chunk.
            context_->stats().stall_aborts.fetch_add(
                1, std::memory_order_relaxed);
          }
          return exchange.status();
        }
        const http::HttpResponse& response = exchange->response;
        std::string_view span;
        if (response.status_code == 206 &&
            response.body.size() == chunk_length) {
          span = response.body;
        } else if (response.status_code == 200 && total != 0 &&
                   response.body.size() == total) {
          // Replica ignored the Range header; salvage the chunk.
          span = std::string_view(response.body).substr(chunk_offset,
                                                        chunk_length);
        } else {
          Status shape = HttpStatusToStatus(response.status_code,
                                            "multi-source chunk GET " +
                                                source->url().ToString());
          if (shape.ok()) {
            shape = Status::ProtocolError(
                "unexpected partial-content shape from " +
                source->url().ToString());
          }
          return shape;
        }
        std::optional<BlockValidator> publish =
            Admit(source, ValidatorFrom(response.headers));
        if (!publish) {
          // Wrong generation: the bytes are dropped — never delivered,
          // never published into the cache — and another source serves
          // the chunk.
          context_->stats().replica_validator_rejects.fetch_add(
              1, std::memory_order_relaxed);
          return Status::Corruption("replica generation mismatch: " +
                                    source->url().ToString());
        }
        if (cache != nullptr) {
          cache->Insert(cache_key, *publish, chunk_offset, span, total);
        }
        data->assign(span);
        return Status::OK();
      },
      lanes);
  if (!status.ok()) {
    return status.WithContext("multi-source chunk at offset " +
                              std::to_string(chunk_offset));
  }
  return status;
}

Status ReplicaSet::Stream(uint64_t offset, uint64_t length,
                          const RequestParams& caller_params,
                          const ReplicaSpanSink& sink) {
  if (length == 0) return Status::OK();
  // One budget for the whole stream: every chunk, retry and fail-over
  // below decrements the same armed deadline.
  RequestParams params = caller_params;
  params.ArmDeadline();

  BlockCache* cache = params.use_block_cache &&
                              context_->block_cache().enabled()
                          ? &context_->block_cache()
                          : nullptr;
  std::string cache_key =
      cache != nullptr ? BlockCache::UrlKey(primary_) : std::string();
  EnsureSeeded(params);
  if (cache != nullptr) {
    // The agreed generation doubles as revalidation — whoever seeded it
    // (Open's Stat, the size HEAD, a prior stream): blocks cached from
    // an older generation are purged before the first probe can serve
    // them.
    BlockValidator agreed = agreed_validator();
    if (!agreed.empty()) cache->NoteValidator(cache_key, agreed);
  }

  // The striped scheduler is the read-ahead window, max_streams chunks
  // deep: chunk k goes to stripe slot k, the sink runs here on the
  // calling thread, and at most max_streams fetched-but-unconsumed
  // chunks are buffered. The ranking at the start fixes the lanes the
  // slots map to. The closure owns the set, because fetches still in
  // flight when a failed stream returns finish afterwards.
  uint64_t chunk_bytes = config_.chunk_bytes;
  ReadAheadStreamConfig window;
  window.chunk_bytes = chunk_bytes;
  window.window_chunks = config_.max_streams;
  window.file_size = offset + length;
  ReadAheadStream stream(
      [self = shared_from_this(), lanes = RankedSources(), offset,
       chunk_bytes, params, cache_key,
       cache](uint64_t chunk_offset,
              uint64_t chunk_length) -> Result<std::string> {
        std::string data;
        DAVIX_RETURN_IF_ERROR(self->FetchChunk(
            (chunk_offset - offset) / chunk_bytes, lanes, chunk_offset,
            chunk_length, params, cache_key, cache, &data));
        return data;
      },
      &context_->dispatcher(), window);
  for (uint64_t pos = offset; pos < offset + length;) {
    DAVIX_ASSIGN_OR_RETURN(std::string data, stream.Read(pos, chunk_bytes));
    DAVIX_RETURN_IF_ERROR(sink(pos, data));
    pos += data.size();
  }
  return Status::OK();
}

}  // namespace core
}  // namespace davix
