#include "core/read_ahead_stream.h"

#include <algorithm>
#include <utility>

namespace davix {
namespace core {

ReadAheadStream::ReadAheadStream(ReadAheadFetchFn fetch, ThreadPool* pool,
                                 ReadAheadStreamConfig config)
    : fetch_(std::move(fetch)), pool_(pool), config_(config) {
  if (config_.chunk_bytes == 0) config_.chunk_bytes = 256 * 1024;
}

ReadAheadStream::~ReadAheadStream() { Invalidate(); }

void ReadAheadStream::Invalidate() {
  for (Chunk& chunk : window_) {
    chunk.state->abandoned.store(true, std::memory_order_release);
  }
  window_.clear();
}

void ReadAheadStream::StartUnsized() {
  // The opener fetches chunk 0, so its slot starts claimed: neither a
  // pool task nor WaitForChunk's inline fallback ever fetches it.
  Chunk front;
  front.length = config_.chunk_bytes;
  front.state = std::make_shared<ChunkState>();
  front.state->claimed.store(true, std::memory_order_release);
  window_.push_back(std::move(front));
  window_end_ = config_.chunk_bytes;
  // A provisional size of W chunks makes TopUp plan exactly chunks
  // 1..W-1. An absurd chunk size that wraps the product only plans
  // fewer; FillFront sets the real size either way.
  config_.file_size = config_.chunk_bytes * config_.window_chunks;
  TopUp(0);
}

void ReadAheadStream::FillFront(std::string head, uint64_t size) {
  config_.file_size = size;
  Chunk& front = window_.front();
  front.length = std::min(front.length, size);
  {
    // No fetch ever touches this slot (it was claimed at StartUnsized);
    // locked for the GUARDED_BY discipline.
    MutexLock lock(front.state->mu);
    front.state->data = std::move(head);
    front.state->done = true;
  }
  // Keep only chunks wholly inside [0, size): the ones planned past EOF
  // go, and so does the one straddling it, which the TopUp below sends
  // again, clamped. For an empty object the front slot goes too.
  while (!window_.empty()) {
    const Chunk& back = window_.back();
    if (back.offset < size && back.offset + back.length <= size) break;
    back.state->abandoned.store(true, std::memory_order_release);
    window_end_ = back.offset;
    window_.pop_back();
  }
  TopUp(0);
}

void ReadAheadStream::TopUp(uint64_t need) {
  // Depth 0 holds only the chunk under the cursor, added when a Read
  // needs bytes and sized to cover all of them: one Read, one fetch.
  const bool sync = config_.window_chunks == 0;
  size_t depth = sync ? (need > 0 ? 1 : 0) : config_.window_chunks;
  while (window_.size() < depth && window_end_ < config_.file_size) {
    Chunk chunk;
    chunk.offset = window_end_;
    chunk.length = std::min<uint64_t>(
        sync ? std::max(config_.chunk_bytes, need) : config_.chunk_bytes,
        config_.file_size - window_end_);
    chunk.state = std::make_shared<ChunkState>();
    window_end_ += chunk.length;

    if (config_.probe) {
      // Cache probe: a locally-satisfiable chunk completes on the spot —
      // no dispatcher task, no range-GET on the wire.
      std::string cached;
      if (config_.probe(chunk.offset, chunk.length, &cached)) {
        chunk.state->claimed.store(true, std::memory_order_release);
        // Uncontended (the state was just constructed); locked for the
        // GUARDED_BY discipline.
        MutexLock lock(chunk.state->mu);
        chunk.state->done = true;
        chunk.state->data = std::move(cached);
        window_.push_back(std::move(chunk));
        continue;
      }
    }

    auto state = chunk.state;
    auto fetch = fetch_;
    uint64_t offset = chunk.offset;
    uint64_t length = chunk.length;
    auto task = [state, fetch, offset, length] {
      if (state->claimed.exchange(true, std::memory_order_acq_rel)) {
        return;  // the consumer ran (or is running) this fetch inline
      }
      Result<std::string> data{std::string()};
      if (state->abandoned.load(std::memory_order_acquire)) {
        // Cancelled before starting: never touches the network.
        data = Status::IoError("read-ahead fetch cancelled");
      } else {
        data = fetch(offset, length);
      }
      MutexLock lock(state->mu);
      state->data = std::move(data);
      state->done = true;
      state->cv.NotifyAll();
    };
    // A pool that stopped accepting work (Context teardown) degrades to
    // a synchronous fetch on the consumer thread.
    if (pool_ == nullptr || !pool_->Submit(task)) task();

    window_.push_back(std::move(chunk));
  }
}

Result<std::string> ReadAheadStream::WaitForChunk(const Chunk& chunk) {
  if (!chunk.state->claimed.exchange(true, std::memory_order_acq_rel)) {
    // The pool task for this chunk has not started — it may be queued
    // behind this very thread if the consumer runs on the dispatcher
    // pool. Execute the fetch inline instead of blocking on it; the
    // task, when it eventually runs, sees `claimed` and exits.
    Result<std::string> data = fetch_(chunk.offset, chunk.length);
    MutexLock lock(chunk.state->mu);
    chunk.state->data = std::move(data);
    chunk.state->done = true;
  }
  MutexLock lock(chunk.state->mu);
  chunk.state->cv.Wait(chunk.state->mu, [&]() REQUIRES(chunk.state->mu) {
    return chunk.state->done;
  });
  Result<std::string> data = std::move(chunk.state->data);
  DAVIX_RETURN_IF_ERROR(data.status());
  if (data->size() != chunk.length) {
    return Status::ProtocolError("read-ahead chunk short read");
  }
  return data;
}

Result<std::string> ReadAheadStream::Read(uint64_t position, size_t count) {
  if (position >= config_.file_size || count == 0) return std::string();
  uint64_t want = std::min<uint64_t>(count, config_.file_size - position);

  // Re-align the window with the cursor: chunks entirely behind it are
  // dropped (forward seek inside the window keeps the rest in flight);
  // a cursor the window does not cover at all re-seeds from scratch.
  while (!window_.empty() &&
         window_.front().offset + window_.front().length <= position) {
    window_.front().state->abandoned.store(true, std::memory_order_release);
    window_.pop_front();
  }
  if (window_.empty() || window_.front().offset > position) {
    Invalidate();
    window_end_ = position;
  }

  std::string out;
  out.reserve(want);
  while (want > 0) {
    TopUp(want);
    Chunk& front = window_.front();
    Result<std::string> data = WaitForChunk(front);
    if (!data.ok()) {
      // First error surfaces here, exactly once: the rest of the window
      // is cancelled and the next Read re-seeds at the caller's cursor.
      Invalidate();
      return data.status();
    }
    uint64_t chunk_pos = position - front.offset;
    uint64_t take = std::min<uint64_t>(want, front.length - chunk_pos);
    out.append(*data, chunk_pos, take);
    position += take;
    want -= take;
    if (position >= front.offset + front.length) {
      // Chunk fully consumed; pop and immediately keep the pipe full.
      window_.pop_front();
      TopUp(want);
    } else {
      // Partially consumed front: restore its payload for the next Read.
      // The fetch task finished (done is true), so the lock is
      // uncontended — taken for the GUARDED_BY discipline.
      MutexLock lock(front.state->mu);
      front.state->data = std::move(data);
    }
  }
  return out;
}

}  // namespace core
}  // namespace davix
