#ifndef DAVIX_CORE_DAV_FILE_H_
#define DAVIX_CORE_DAV_FILE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/uri.h"
#include "core/http_client.h"
#include "core/request_params.h"
#include "http/range.h"

namespace davix {
namespace core {

struct CoalescedRange;
struct VecDispatchState;
class ReplicaSet;
class ReplicaSource;

/// Remote file metadata as observable over HTTP/WebDAV.
struct FileInfo {
  uint64_t size = 0;
  int64_t mtime_epoch_seconds = 0;
  std::string etag;
  bool is_collection = false;
};

/// What DavFile::Open learns from its one request.
struct OpenedFile {
  FileInfo info;
  /// The object's first min(head_bytes, info.size) bytes.
  std::string head;
};

/// Object-level remote file API, mirroring davix's DavFile.
///
/// Every read entry point is resilience-wrapped per
/// RequestParams::metalink_mode: with kFailover (the default), a failed
/// operation transparently retries on each replica listed in the
/// resource's Metalink until one succeeds — the §2.4 guarantee that "a
/// read operation on a resource will succeed as long as one replica ...
/// is remotely accessible and referenced by the corresponding Metalink."
class DavFile {
 public:
  /// `context` must outlive this object.
  DavFile(Context* context, Uri url);

  /// Parses `url`; fails on malformed URLs.
  static Result<DavFile> Make(Context* context, const std::string& url);

  const Uri& url() const { return url_; }

  /// Whole-object GET. In kMultiStream mode the object is fetched in
  /// parallel chunks from several replicas.
  Result<std::string> Get(const RequestParams& params = {});

  /// Atomic object creation / replacement (HTTP PUT, §2.1).
  Status Put(std::string data, const RequestParams& params = {});

  /// Object removal (HTTP DELETE).
  Status Delete(const RequestParams& params = {});

  /// Metadata via HEAD.
  Result<FileInfo> Stat(const RequestParams& params = {});

  /// Opens the object with one ranged GET of its first `head_bytes`
  /// (> 0) bytes instead of a HEAD: size and validators come from the
  /// response, and its bytes come back with them. A 206 gives the size
  /// from `Content-Range: bytes 0-b/total`; a 200 (the server ignored
  /// Range) gives the body length; a 416 with `bytes */0` is an empty
  /// object. Any other Content-Range or 416 is kProtocolError. Errors
  /// map, and fail over across replicas, as Stat's do. With the block
  /// cache on and no replica set pinned, the response's bytes are
  /// published into the cache under its validators and the object's
  /// size, as every read path's are.
  Result<OpenedFile> Open(uint64_t head_bytes,
                          const RequestParams& params = {});

  /// Remote md5 of the object (RFC 3230 Want-Digest, davix-checksum
  /// style). Returns the lower-case hex digest.
  Result<std::string> GetChecksum(const RequestParams& params = {});

  /// Server-side copy to `destination_path` on the same host (WebDAV
  /// COPY), used for intra-storage replication.
  Status Copy(const std::string& destination_path,
              const RequestParams& params = {});

  /// Reads `length` bytes at `offset` with a single-range GET.
  Result<std::string> ReadPartial(uint64_t offset, uint64_t length,
                                  const RequestParams& params = {});

  /// §2.3 vectored read: the scattered `ranges` are coalesced, packed
  /// into HTTP multi-range queries, executed as few wire round trips,
  /// and scattered back; results[i] holds the bytes of ranges[i].
  ///
  /// When the Context has a block cache (and
  /// RequestParams::use_block_cache is left on), cache-satisfied spans
  /// are carved out of each range *before* coalescing — the cached
  /// prefix/suffix of a range is copied from memory and only the
  /// missing middle goes on the wire; fully cached calls touch the
  /// network not at all. Every fetched wire span (coalesced gap bytes
  /// included) is published back into the cache with the validators its
  /// response carried.
  ///
  /// When coalescing yields more than one batch, the batches are
  /// dispatched concurrently — each drawing its own pooled session —
  /// bounded by RequestParams::max_parallel_range_requests, with
  /// first-error cancellation. Payload bytes are scattered zero-copy
  /// from the response buffers into preallocated result slots.
  ///
  /// Falls back transparently when the server answers a multi-range GET
  /// with the full entity (200) or lacks multi-range support; once one
  /// batch sees the full entity, the remaining batches are satisfied
  /// locally from it without further wire traffic.
  Result<std::vector<std::string>> ReadPartialVec(
      const std::vector<http::ByteRange>& ranges,
      const RequestParams& params = {});

  /// Asynchronous form of ReadPartialVec: schedules the identical
  /// vectored dispatch (cache carve-out, coalescing, parallel batches,
  /// replica striping, deadlines/retries/breakers, the transport seam)
  /// on the Context's dispatcher pool and returns immediately; the
  /// future resolves to exactly what the synchronous call would have
  /// returned. Degrades to a synchronous inline read when the
  /// dispatcher is shutting down, so the future is always valid.
  ///
  /// Safe to call concurrently with any other read on this file — the
  /// underlying HttpClient and session pool are thread-safe. The caller
  /// must keep this DavFile (and its Context) alive until the future
  /// has been waited on or discarded after completion.
  std::future<Result<std::vector<std::string>>> ReadPartialVecAsync(
      const std::vector<http::ByteRange>& ranges,
      const RequestParams& params = {});

  /// Resolves (once) the resource's replica set from its Metalink and
  /// pins it to this file: every later read fails over — and stripes
  /// multi-batch vectored dispatches — across the set's health-ranked
  /// sources without refetching the Metalink. DavPosix::Open calls this
  /// when RequestParams::metalink_resolver is configured. Idempotent.
  Status ResolveReplicaSet(const RequestParams& params);

  /// The pinned replica set; null until ResolveReplicaSet succeeds.
  std::shared_ptr<ReplicaSet> replica_set() const { return replica_set_; }

 private:
  /// Runs `op` against the primary URL, then against metalink replicas
  /// on failure (when enabled). Counts failovers in the context stats.
  /// Arms the end-to-end deadline once and hands the armed params to
  /// every `op` invocation, so one total_timeout_micros budget spans the
  /// whole fail-over walk rather than restarting per replica.
  template <typename T>
  Result<T> WithFailover(
      const RequestParams& params,
      const std::function<Result<T>(const Uri&, const RequestParams&)>& op);

  Result<std::vector<std::string>> ReadPartialVecAt(
      const Uri& replica, const std::vector<http::ByteRange>& ranges,
      const RequestParams& params);

  /// CacheRevalidatePolicy::kAlways helper: HEADs `replica` and feeds
  /// the observed validators to the cache, dropping stale blocks.
  Status RevalidateCached(const Uri& replica, const RequestParams& params,
                          BlockCache* cache, const std::string& cache_key);

  /// Fetches one coalesced batch and scatters its payload into the
  /// preallocated `results` slots. Runs concurrently with its sibling
  /// batches; `state` carries the shared 200-fallback body and error
  /// flag. With a replica set in `state`, the response's validators
  /// must be admitted against the set's agreed generation before any
  /// byte is scattered or cached — a mismatch returns kCorruption.
  /// `*did_fetch` (may be null) is set when the batch actually put a
  /// request on the wire — false on the failed-short-circuit and
  /// full-body-demote paths, so health feedback only covers real
  /// exchanges.
  Status FetchVecBatch(const Uri& replica,
                       const std::vector<CoalescedRange>& batch,
                       const RequestParams& params,
                       const std::vector<http::ByteRange>& ranges,
                       VecDispatchState* state,
                       std::vector<std::string>* results, bool* did_fetch);

  /// Replica-set variant of one batch dispatch: walks the
  /// stripe-rotated, health-ranked candidates for `batch_index`, feeding each
  /// outcome back into the set, so a batch that fails on one source is
  /// re-dispatched to the next-best instead of failing the read.
  Status FetchVecBatchMultiSource(size_t batch_index, size_t stripe_width,
                                  const std::vector<CoalescedRange>& batch,
                                  const RequestParams& params,
                                  const std::vector<http::ByteRange>& ranges,
                                  VecDispatchState* state,
                                  std::vector<std::string>* results);

  Context* context_;
  HttpClient client_;
  Uri url_;
  std::shared_ptr<ReplicaSet> replica_set_;
};

}  // namespace core
}  // namespace davix

#endif  // DAVIX_CORE_DAV_FILE_H_
