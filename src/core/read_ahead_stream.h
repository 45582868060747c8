#ifndef DAVIX_CORE_READ_AHEAD_STREAM_H_
#define DAVIX_CORE_READ_AHEAD_STREAM_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace davix {
namespace core {

/// Fetches `length` bytes at `offset` of the underlying object. Runs on
/// a dispatcher thread, concurrently with its sibling chunk fetches, so
/// it must be safe to call from several threads at once (DavFile's read
/// entry points are). The function object is copied into every scheduled
/// task: anything it needs alive (the DavFile, the request params) must
/// be owned by value or by shared_ptr, never by reference to state that
/// a Close can destroy while a fetch is still in flight.
using ReadAheadFetchFn =
    std::function<Result<std::string>(uint64_t offset, uint64_t length)>;

/// Synchronous local probe tried before a chunk fetch is scheduled on
/// the dispatcher: returns true and fills `*out` with exactly `length`
/// bytes when the span can be served without the network (the block
/// cache), false to fall through to the asynchronous fetch. Called on
/// the consumer thread with no stream lock held; must be cheap and must
/// never touch the network.
using ReadAheadProbeFn =
    std::function<bool(uint64_t offset, uint64_t length, std::string* out)>;

/// Shape of the sliding window.
struct ReadAheadStreamConfig {
  /// Bytes fetched per range-GET.
  uint64_t chunk_bytes = 256 * 1024;
  /// Chunks kept in flight ahead of the consumer. This is also the bound
  /// of the delivery queue: at most this many fetched-but-unconsumed
  /// chunks are buffered. 0 = no read-ahead: the chunk under the cursor
  /// is fetched only when a Read reaches it, sized to cover at least the
  /// bytes that Read still needs; with a null pool the fetch runs on the
  /// reading thread.
  size_t window_chunks = 4;
  /// Total object size; reads and the window are clamped to it.
  uint64_t file_size = 0;
  /// Optional cache probe consulted as the window tops up: a chunk the
  /// probe satisfies completes immediately — no dispatcher task, no
  /// range-GET — so warm windows re-read an object with zero wire
  /// traffic. Unset = every chunk is fetched.
  ReadAheadProbeFn probe;
};

/// Sliding-window read-ahead for sequential reads — the davix-side
/// counterpart of the "sliding windows buffering algorithm" §3 of the
/// paper credits for XRootD's WAN advantage, and the one chunk
/// scheduler of the core: DavPosix's read-ahead (either depth) and
/// ReplicaSet::Stream's striping differ only in the fetch function.
///
/// Up to `window_chunks` range-GETs are kept in flight ahead of the
/// consumer's position, each scheduled on the shared per-Context
/// dispatcher pool and drawing its own pooled session. Completed chunks
/// are delivered strictly in offset order through the bounded window
/// deque, so on a high-RTT path the next chunk's latency is hidden
/// behind consumption of the current one. Depth 0 is the synchronous
/// buffer: one chunk, fetched only for the Read that needs it. An opener
/// that does not know the size yet can put the whole first window on
/// the wire with its own fetch of chunk 0 (StartUnsized, FillFront).
///
/// Error handling: the first failed chunk surfaces on the Read that
/// reaches it (delivery is in order, so that is the earliest-offset
/// error); the rest of the window is invalidated — in-flight fetches are
/// abandoned, unstarted ones are cancelled — and the next Read re-seeds
/// the window at the cursor. A chunk fetch only fails after the fetch
/// function exhausted its own resilience: when the DavFile carries a
/// resolved core::ReplicaSet (DavPosix::Open with a metalink resolver),
/// each chunk transparently re-dispatches to the next-best replica
/// mid-stream, so a dying source degrades throughput instead of
/// surfacing an error here.
///
/// Thread-safe: partially — StartUnsized/FillFront/Read/Invalidate
/// require external synchronisation (DavPosix::Open runs the first two
/// before the descriptor is published, and the descriptor lock covers
/// the rest); the internal locking only covers chunk completion, which
/// happens on dispatcher threads.
class ReadAheadStream {
 public:
  /// `pool` must outlive the stream; null runs every fetch on the
  /// reading thread. `fetch` is copied into scheduled tasks and may
  /// outlive the stream itself (see ReadAheadFetchFn).
  ReadAheadStream(ReadAheadFetchFn fetch, ThreadPool* pool,
                  ReadAheadStreamConfig config);

  /// Abandons every outstanding fetch. Never blocks on the network: an
  /// in-flight fetch finishes on its dispatcher thread, publishes into
  /// state only it still owns, and is dropped.
  ~ReadAheadStream();

  ReadAheadStream(const ReadAheadStream&) = delete;
  ReadAheadStream& operator=(const ReadAheadStream&) = delete;

  /// Opens the window at offset 0 before the object's size is known, for
  /// an opener that fetches chunk 0 itself: chunk 0 becomes a front slot
  /// that only FillFront completes, and chunks 1..W-1 are scheduled as if
  /// the object were at least W chunks long. Call once, on a fresh
  /// stream with window_chunks > 0, before any Read; the configured
  /// file_size is ignored until FillFront replaces it.
  void StartUnsized();

  /// Completes the front slot StartUnsized left open. `head` must be the
  /// object's first min(chunk_bytes, size) bytes (a Read that reaches a
  /// head of any other length fails with kProtocolError) and `size` its
  /// total size. Chunks planned at or past EOF are dropped, and one that
  /// straddles EOF is abandoned and sent again, clamped: the 416 or
  /// short 206 those planned fetches get never surfaces.
  void FillFront(std::string head, uint64_t size);

  /// Sequential read of up to `count` bytes at absolute offset
  /// `position` (empty string = EOF). A position outside what the window
  /// covers — any seek — invalidates and re-seeds the window; a forward
  /// position still inside the window just drops the skipped chunks.
  Result<std::string> Read(uint64_t position, size_t count);

  /// Cancels unstarted chunk fetches, abandons in-flight ones, and
  /// empties the window. The next Read re-seeds at its position. Called
  /// on LSeek so stale prefetches stop consuming the link immediately
  /// rather than when the next Read notices the cursor moved.
  void Invalidate();

  /// True when `position` lies inside the span the window currently
  /// covers — a Read there consumes scheduled chunks instead of
  /// re-seeding. Lets DavPosix::LSeek keep the prefetch alive for
  /// in-window forward seeks and invalidate only real jumps.
  bool Covers(uint64_t position) const {
    return !window_.empty() && position >= window_.front().offset &&
           position < window_end_;
  }

  /// Chunks currently scheduled or buffered (test/introspection hook;
  /// same external synchronisation as Read).
  size_t WindowSize() const { return window_.size(); }

 private:
  /// Completion slot shared between the stream and one scheduled fetch.
  /// After Invalidate the task is the only owner left; `abandoned` lets
  /// a not-yet-started task skip the network work entirely. `claimed`
  /// decides who executes the fetch: the pool task or — when the
  /// consumer reaches a chunk whose task has not started yet — the
  /// consumer itself, inline. That caller-participation fallback is
  /// what makes it safe to consume a stream from a dispatcher-pool
  /// thread whose siblings are all blocked the same way: the fetch can
  /// never be stuck behind the very threads waiting for it.
  struct ChunkState {
    Mutex mu;
    CondVar cv;
    bool done GUARDED_BY(mu) = false;
    std::atomic<bool> abandoned{false};
    std::atomic<bool> claimed{false};
    Result<std::string> data GUARDED_BY(mu){std::string()};
  };

  struct Chunk {
    uint64_t offset = 0;
    uint64_t length = 0;
    std::shared_ptr<ChunkState> state;
  };

  /// Schedules fetches until the window is full or EOF is covered.
  /// `need` is the byte count the current Read still wants; only depth 0
  /// uses it, to size (or skip) its one chunk.
  void TopUp(uint64_t need);

  /// Blocks until `chunk`'s fetch completes and moves out its payload.
  /// The wait itself is untimed but bounded transitively: each fetch
  /// runs under the request's own armed deadline and stall watchdog
  /// (RequestParams::total_timeout_micros / min_throughput_bytes_per_
  /// sec), so a wedged or trickling chunk fails — and fails over —
  /// inside the fetch rather than wedging this consumer forever.
  Result<std::string> WaitForChunk(const Chunk& chunk);

  ReadAheadFetchFn fetch_;
  ThreadPool* pool_;
  ReadAheadStreamConfig config_;
  /// Next offset not yet covered by a scheduled chunk.
  uint64_t window_end_ = 0;
  std::deque<Chunk> window_;
};

}  // namespace core
}  // namespace davix

#endif  // DAVIX_CORE_READ_AHEAD_STREAM_H_
