#ifndef DAVIX_CORE_SESSION_POOL_H_
#define DAVIX_CORE_SESSION_POOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/uri.h"
#include "core/request_params.h"
#include "core/resilience.h"
#include "net/buffered_reader.h"
#include "net/tcp_socket.h"

namespace davix {
namespace core {

/// One client-side HTTP connection, possibly recycled across requests.
///
/// Owns the socket (kept behind a unique_ptr so the BufferedReader's
/// pointer stays valid when the Session moves between pool and user).
class Session {
 public:
  Session(std::string key, net::TcpSocket socket);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  net::TcpSocket& socket() { return *socket_; }
  net::BufferedReader& reader() { return reader_; }

  /// Pool bucket key: "host:port".
  const std::string& key() const { return key_; }

  /// True when this session came out of the pool rather than from a fresh
  /// connect — i.e. a §2.2 session-recycling hit.
  bool recycled() const { return recycled_; }
  void set_recycled(bool recycled) { recycled_ = recycled; }

  /// Request/response exchanges completed on this connection.
  uint64_t exchanges() const { return exchanges_; }
  void IncrementExchanges() { ++exchanges_; }

  int64_t last_used_micros() const { return last_used_micros_; }
  void TouchLastUsed();

 private:
  std::string key_;
  std::unique_ptr<net::TcpSocket> socket_;
  net::BufferedReader reader_;
  bool recycled_ = false;
  uint64_t exchanges_ = 0;
  int64_t last_used_micros_ = 0;
};

/// Pool behaviour knobs. Fixed at Context construction; a copy is
/// readable through SessionPool::config().
struct SessionPoolConfig {
  /// Idle sessions kept per host:port bucket. Also the auto bound of
  /// RequestParams::max_parallel_range_requests == 0: the vectored
  /// dispatcher bursts at most this many connections at one host, so
  /// the whole burst can be parked and recycled afterwards.
  size_t max_idle_per_host = 32;
  /// Idle sessions older than this are dropped at acquire time.
  int64_t max_idle_age_micros = 30'000'000;
};

/// §2.2 of the paper: "a hybrid solution based on a dynamic connection
/// pool with a thread-safe query dispatch system and a session recycling
/// mechanism", with "an aggressive usage of the HTTP KeepAlive feature
/// ... to maximize the re-utilization of the TCP connections and to
/// minimize the effect of the TCP slow start."
///
/// Buckets are keyed by host:port. Acquire pops the most recently used
/// idle session (LIFO keeps congestion windows warm); Release parks a
/// healthy keep-alive session back; Discard destroys a broken one. The
/// pool grows with the level of concurrency — the paper's §2.2 notes this
/// is the designed trade-off versus SPDY-style multiplexing.
///
/// Ownership: owned by the Context; sessions move out by unique_ptr on
/// Acquire and back in on Release, so exactly one owner exists at any
/// time. Thread-safe: yes (one internal mutex; no call blocks on the
/// network while holding it — fresh connects happen outside the lock).
class SessionPool {
 public:
  /// Counts into `counters` (the Context's table), and hands it on to
  /// the breaker registry.
  explicit SessionPool(
      SessionPoolConfig config = {},
      std::shared_ptr<IoCounters> counters = std::make_shared<IoCounters>());

  /// Gets a session to `uri`'s host — recycled if possible, freshly
  /// connected otherwise. Consults the host's circuit breaker first:
  /// while it is open the acquire fast-fails with a retryable
  /// kConnectionFailed ("circuit breaker open for <host:port>") without
  /// touching the network, so fail-over moves to another replica
  /// immediately. Connect failures feed the breaker here; exchange
  /// outcomes on the acquired session are reported by HttpClient.
  /// The connect timeout (params.connect_timeout_micros, <= 0 resolving
  /// to 15 s) and the recycled/fresh reader timeout are both capped by
  /// params.deadline when it is armed.
  Result<std::unique_ptr<Session>> Acquire(const Uri& uri,
                                           const RequestParams& params);

  /// Parks a healthy session for reuse. Sessions with unread buffered
  /// bytes (protocol desync) are destroyed instead.
  void Release(std::unique_ptr<Session> session);

  /// Destroys a broken session.
  void Discard(std::unique_ptr<Session> session);

  /// Drops every idle session.
  void Clear();

  /// Idle sessions currently parked (over all buckets).
  size_t IdleCount() const;

  /// Number of host:port buckets currently held. Drained buckets are
  /// erased eagerly, so this tracks hosts with parked sessions, not every
  /// host ever contacted.
  size_t BucketCount() const;

  const SessionPoolConfig& config() const { return config_; }

  /// The counter table this pool counts into: connections_opened,
  /// connections_reused and the pool_* lines. An acquire hit found a
  /// usable idle session, a miss found none (bucket empty, drained by
  /// concurrent acquirers, or everything aged out) and paid a fresh
  /// connect; the parallel vectored dispatcher bursts N acquires at one
  /// host, and hits/misses show how well the pool absorbs that burst.
  IoCounters& stats() { return *counters_; }

  /// The per-host circuit breakers living alongside the host buckets
  /// (one breaker per "host:port" key, shared by every request through
  /// this pool's Context).
  CircuitBreakerRegistry& breakers() { return breakers_; }
  const CircuitBreakerRegistry& breakers() const { return breakers_; }

 private:
  SessionPoolConfig config_;
  mutable Mutex mu_;
  std::unordered_map<std::string, std::vector<std::unique_ptr<Session>>>
      idle_ GUARDED_BY(mu_);
  std::shared_ptr<IoCounters> counters_;
  CircuitBreakerRegistry breakers_;
};

}  // namespace core
}  // namespace davix

#endif  // DAVIX_CORE_SESSION_POOL_H_
