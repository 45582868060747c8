#include "core/context.h"

#include <algorithm>
#include <thread>

namespace davix {
namespace core {

Context::Context(SessionPoolConfig pool_config, size_t dispatcher_threads,
                 BlockCacheConfig cache_config)
    : pool_(std::make_unique<SessionPool>(pool_config, counters_)),
      block_cache_(std::make_unique<BlockCache>(cache_config, counters_)),
      dispatcher_threads_(dispatcher_threads) {}

ThreadPool& Context::dispatcher() {
  MutexLock lock(dispatcher_mu_);
  if (!dispatcher_) {
    size_t threads = dispatcher_threads_;
    if (threads == 0) {
      threads = std::clamp<size_t>(std::thread::hardware_concurrency(), 4, 16);
    }
    dispatcher_ = std::make_unique<ThreadPool>(threads);
  }
  return *dispatcher_;
}

bool Context::dispatcher_started() const {
  MutexLock lock(dispatcher_mu_);
  return dispatcher_ != nullptr;
}

MuxTransport& Context::mux_transport() {
  MutexLock lock(mux_mu_);
  if (!mux_transport_) {
    mux_transport_ = std::make_unique<MuxTransport>(counters_);
  }
  return *mux_transport_;
}

bool Context::mux_transport_started() const {
  MutexLock lock(mux_mu_);
  return mux_transport_ != nullptr;
}

}  // namespace core
}  // namespace davix
