#ifndef DAVIX_COMMON_STATS_H_
#define DAVIX_COMMON_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace davix {

/// Accumulates samples (latencies, run times) and reports summary
/// statistics; the measurement core of the benchmark harness.
class SampleStats {
 public:
  void Add(double value);

  size_t count() const { return samples_.size(); }
  double Mean() const;
  /// Sample standard deviation (n-1 denominator); 0 for < 2 samples.
  double Stddev() const;
  double Min() const;
  double Max() const;
  /// Linear-interpolation percentile, q in [0, 100].
  double Percentile(double q) const;

  /// "mean=12.3 sd=0.4 min=11.8 max=13.1 n=5" with the given unit suffix.
  std::string Summary(const std::string& unit) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

/// One monotonic event counter: a std::atomic<uint64_t> that copies by
/// value (a copy is a load, an assignment a store). It keeps
/// std::atomic's fetch_add/load/store spelling with relaxed as the
/// default order, and deliberately has no ++/+=, so every mutation is an
/// explicit atomic call (docs/CONCURRENCY.md).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : value_(other.load()) {}
  Counter& operator=(const Counter& other) {
    store(other.load());
    return *this;
  }
  Counter& operator=(uint64_t value) {
    store(value);
    return *this;
  }
  operator uint64_t() const { return load(); }

  uint64_t load(std::memory_order order = std::memory_order_relaxed) const {
    return value_.load(order);
  }
  void store(uint64_t value,
             std::memory_order order = std::memory_order_relaxed) {
    value_.store(value, order);
  }
  uint64_t fetch_add(uint64_t delta,
                     std::memory_order order = std::memory_order_relaxed) {
    return value_.fetch_add(delta, order);
  }

 private:
  std::atomic<uint64_t> value_{0};
};

// Every I/O counter of a Context, one X(name, help) line each: the one
// place a counter is declared. The paper's claims are about numbers of
// operations and connections, so those are first-class measurables.
#define DAVIX_IO_COUNTERS(X)                                                 \
  X(requests, "protocol-level requests issued")                              \
  X(network_round_trips, "request/response exchanges on the wire")           \
  X(bytes_read, "response bytes read off the wire, heads included")          \
  X(bytes_written, "request bytes written to the wire, heads included")      \
  X(connections_opened, "fresh pooled TCP connections made")                 \
  X(connections_reused, "pooled sessions recycled from an idle bucket")      \
  X(pool_discarded, "pooled sessions dropped: broken, desynced or no room")  \
  X(pool_expired, "idle pooled sessions aged out at acquire")                \
  X(pool_acquire_hits, "keep-alive acquires served by an idle session")      \
  X(pool_acquire_misses, "keep-alive acquires that had to connect")          \
  X(redirects_followed, "3xx redirects followed")                            \
  X(retries, "retry attempts (backoff or Retry-After)")                      \
  X(retry_after_honored, "503/429 retries paced by Retry-After")             \
  X(deadline_expirations, "operations aborted by their total budget")        \
  X(stall_aborts, "fetches aborted by the throughput watchdog")              \
  X(breaker_opens, "circuit breakers tripped open")                          \
  X(breaker_closes, "breakers closed by a successful probe")                 \
  X(breaker_fast_fails, "acquires refused by an open breaker")               \
  X(breaker_half_open_probes, "half-open probe slots handed out")            \
  X(replica_failovers, "reads moved on to another replica")                  \
  X(replica_quarantines, "replicas quarantined (health or generation)")      \
  X(replica_validator_rejects, "responses dropped for a wrong generation")   \
  X(multisource_chunks, "striped chunk range-GETs put on the wire")          \
  X(multisource_cache_chunks, "striped chunks served by the block cache")    \
  X(vector_queries, "multi-range queries issued")                            \
  X(ranges_requested, "single ranges carried by those queries")             \
  X(cache_hits, "block-cache lookups that served bytes")                     \
  X(cache_misses, "block-cache lookups that went to the wire")               \
  X(cache_evictions, "blocks evicted by the cache budget")                   \
  X(cache_bytes_saved, "payload bytes served from the cache, not the wire")  \
  X(cache_insertions, "blocks written into the cache")                       \
  X(cache_invalidations, "blocks dropped by validator mismatch or purge")    \
  X(cache_bytes_inserted, "payload bytes written into the cache")            \
  X(mux_connections_opened, "framed mux connections opened")                 \
  X(mux_connections_lost, "mux connections torn down by errors")             \
  X(mux_streams_opened, "exchanges multiplexed as streams")                  \
  X(mux_streams_reset, "streams ended by RST, error or deadline cancel")     \
  X(mux_backpressure_waits, "waits for a stream slot at the host's limit")

/// The I/O counter table of one Context, shared by everything it owns
/// (session pool, breaker registry, mux transport, block cache), which
/// count into it directly. A copy is a snapshot: each field is read on
/// its own, so a copy taken under load is not one atomic cut across
/// fields. Assigning IoCounters{} zeroes every counter.
struct IoCounters {
#define DAVIX_IO_COUNTER_FIELD(name, help) Counter name;
  DAVIX_IO_COUNTERS(DAVIX_IO_COUNTER_FIELD)
#undef DAVIX_IO_COUNTER_FIELD

  /// Calls fn(name, value) for every counter, in declaration order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
#define DAVIX_IO_COUNTER_VISIT(name, help) fn(#name, name.load());
    DAVIX_IO_COUNTERS(DAVIX_IO_COUNTER_VISIT)
#undef DAVIX_IO_COUNTER_VISIT
  }

  void Reset() { *this = IoCounters{}; }
  /// Every counter as "name=value", space-separated.
  std::string ToString() const;
};

}  // namespace davix

#endif  // DAVIX_COMMON_STATS_H_
