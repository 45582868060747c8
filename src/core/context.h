#ifndef DAVIX_CORE_CONTEXT_H_
#define DAVIX_CORE_CONTEXT_H_

#include <cstdint>
#include <memory>

#include "common/mutex.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/block_cache.h"
#include "core/mux_transport.h"
#include "core/session_pool.h"

namespace davix {
namespace core {

/// Root object of the library, like davix::Context: owns the session
/// pool (§2.2), the shared dispatcher thread pool, the per-Context block
/// cache, and the I/O accounting.
///
/// Ownership: the Context owns everything it hands out references to;
/// `DavFile`/`DavPosix`/`HttpClient` objects hold a raw `Context*` and
/// require the Context to outlive them. One Context is meant to be
/// shared by all threads of an application.
///
/// Thread-safe: yes — every member function and every object reachable
/// from one (pool, dispatcher, cache, stats) is thread-safe.
class Context {
 public:
  /// `dispatcher_threads` bounds the shared dispatcher pool; 0 = auto
  /// (hardware concurrency, clamped to [4, 16]). `cache_config` shapes
  /// the shared block cache; the default (capacity 0) disables caching
  /// entirely, keeping all read paths bit-identical to previous
  /// behaviour.
  explicit Context(SessionPoolConfig pool_config = {},
                   size_t dispatcher_threads = 0,
                   BlockCacheConfig cache_config = {});

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  SessionPool& pool() { return *pool_; }

  /// The Context's one I/O counter table. The pool, its breaker
  /// registry, the mux transport and the block cache count into it too.
  IoCounters& stats() { return *counters_; }

  /// The shared block cache consulted and filled by every read path
  /// (DavPosix::Read/PRead, the read-ahead window, ReadPartialVec).
  /// Always present; `enabled()` is false when the Context was built
  /// without a cache budget, and every operation is then a no-op.
  BlockCache& block_cache() { return *block_cache_; }

  /// The shared dispatcher pool: a lazily started, bounded ThreadPool
  /// that runs every concurrent client-side operation issued through
  /// this Context — parallel vectored-read batches, multi-stream
  /// downloads, and the asynchronous read-ahead window. Starting it on
  /// first use keeps Contexts that never fan out thread-free.
  ThreadPool& dispatcher();

  /// True once dispatcher() has been called (the pool is running).
  bool dispatcher_started() const;

  /// The shared mux transport behind RequestParams::transport == kMux:
  /// lazily created on first use (like the dispatcher), so Contexts
  /// that stay on pooled HTTP/1.1 never open a framed connection or
  /// start a reader thread.
  MuxTransport& mux_transport();

  /// True once mux_transport() has been called.
  bool mux_transport_started() const;

  /// A copy of the counter table for reporting (each field read on its
  /// own; see IoCounters).
  IoCounters SnapshotCounters() const { return *counters_; }

  /// Zeroes every counter; benchmarks call this between phases. Idle
  /// sessions and cached blocks stay — only the accounting resets.
  void ResetCounters() { counters_->Reset(); }

 private:
  /// Declared first: outlives every subsystem that counts into it.
  std::shared_ptr<IoCounters> counters_ = std::make_shared<IoCounters>();
  std::unique_ptr<SessionPool> pool_;
  std::unique_ptr<BlockCache> block_cache_;
  size_t dispatcher_threads_;
  mutable Mutex dispatcher_mu_;
  mutable Mutex mux_mu_;
  /// Lazily created, same discipline as dispatcher_; thread-safe once
  /// the reference escapes mux_transport().
  std::unique_ptr<MuxTransport> mux_transport_ GUARDED_BY(mux_mu_);
  /// Declared last: destroyed first, so in-flight dispatcher tasks that
  /// touch the session pool, the cache, or the stats finish before
  /// those members go. The lock covers creation; the pool object itself
  /// is thread-safe once the reference escapes dispatcher().
  std::unique_ptr<ThreadPool> dispatcher_ GUARDED_BY(dispatcher_mu_);
};

}  // namespace core
}  // namespace davix

#endif  // DAVIX_CORE_CONTEXT_H_
