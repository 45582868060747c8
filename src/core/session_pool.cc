#include "core/session_pool.h"

#include "common/clock.h"
#include "common/logging.h"
#include "net/socket_address.h"

namespace davix {
namespace core {

Session::Session(std::string key, net::TcpSocket socket)
    : key_(std::move(key)),
      socket_(std::make_unique<net::TcpSocket>(std::move(socket))),
      reader_(socket_.get()) {
  TouchLastUsed();
}

void Session::TouchLastUsed() { last_used_micros_ = MonotonicMicros(); }

SessionPool::SessionPool(SessionPoolConfig config,
                         std::shared_ptr<IoCounters> counters)
    : config_(config), counters_(counters), breakers_(std::move(counters)) {}

namespace {

// Connect budget when a caller zeroes RequestParams::connect_timeout_
// micros; resolving it here keeps tcp_socket.cc's 30 s fallback a
// never-reached last resort.
constexpr int64_t kDefaultConnectTimeoutMicros = 15'000'000;

// RequestParams breaker knobs use 0 = default, < 0 = disabled.
CircuitBreakerConfig BreakerConfigFrom(const RequestParams& params) {
  CircuitBreakerConfig config;
  if (params.breaker_failure_threshold != 0) {
    config.failure_threshold = params.breaker_failure_threshold;
  }
  if (params.breaker_cooldown_micros > 0) {
    config.cooldown_micros = params.breaker_cooldown_micros;
  }
  return config;
}

// Applies the request's timeouts to a session about to be handed out:
// the per-read timeout capped by the armed deadline, plus the absolute
// deadline itself so a response trickling within the per-read timeout
// still cannot outlive the caller's total budget. Recycled sessions get
// this too — they must not keep their previous owner's timeouts.
void ApplyReadBudget(Session& session, const RequestParams& params) {
  session.reader().set_timeout_micros(
      params.deadline.CapTimeout(params.operation_timeout_micros));
  session.reader().set_deadline_micros(params.deadline.absolute_micros());
}

}  // namespace

Result<std::unique_ptr<Session>> SessionPool::Acquire(
    const Uri& uri, const RequestParams& params) {
  std::string key = uri.HostPortKey();

  switch (breakers_.Admit(key, BreakerConfigFrom(params), MonotonicMicros())) {
    case CircuitBreaker::Decision::kFastFail:
      // Retryable and fail-over-eligible, so callers move on to another
      // replica without paying a connect attempt to a host known dead.
      return Status::ConnectionFailed("circuit breaker open for " + key);
    case CircuitBreaker::Decision::kAdmit:
    case CircuitBreaker::Decision::kProbe:
      break;
  }

  if (params.keep_alive) {
    MutexLock lock(mu_);
    auto it = idle_.find(key);
    if (it != idle_.end()) {
      std::vector<std::unique_ptr<Session>>& bucket = it->second;
      int64_t now = MonotonicMicros();
      // LIFO: most recently parked first, so recycled connections carry
      // the warmest congestion windows. Age out stale ones on the way.
      while (!bucket.empty()) {
        std::unique_ptr<Session> session = std::move(bucket.back());
        bucket.pop_back();
        if (now - session->last_used_micros() > config_.max_idle_age_micros) {
          counters_->pool_expired.fetch_add(1);
          continue;
        }
        if (bucket.empty()) idle_.erase(it);
        session->set_recycled(true);
        ApplyReadBudget(*session, params);
        counters_->connections_reused.fetch_add(1);
        counters_->pool_acquire_hits.fetch_add(1);
        return session;
      }
      // Drained (possibly by ageing every entry out): drop the bucket so
      // the map does not accumulate one empty vector per host ever seen.
      idle_.erase(it);
    }
  }

  // No reusable session: open a fresh connection. Only pooled (keep-
  // alive) acquires count as misses; with pooling off there is nothing
  // to hit.
  if (params.keep_alive) {
    counters_->pool_acquire_misses.fetch_add(1);
  }
  // Resolve the connect budget here rather than leaning on
  // tcp_socket.cc's 30 s last-resort default, and never let a connect
  // attempt spend more than the caller's remaining end-to-end budget.
  int64_t connect_timeout = params.connect_timeout_micros > 0
                                ? params.connect_timeout_micros
                                : kDefaultConnectTimeoutMicros;
  connect_timeout = params.deadline.CapTimeout(connect_timeout);
  Result<net::SocketAddress> address =
      net::SocketAddress::Resolve(uri.host(), uri.port());
  Result<net::TcpSocket> socket =
      address.ok() ? net::TcpSocket::Connect(*address, connect_timeout)
                   : Result<net::TcpSocket>(address.status());
  if (!socket.ok()) {
    breakers_.RecordFailure(key, MonotonicMicros());
    return socket.status().WithContext("connecting to " + key);
  }
  (void)socket->SetNoDelay(true);
  counters_->connections_opened.fetch_add(1);
  auto session = std::make_unique<Session>(key, std::move(*socket));
  ApplyReadBudget(*session, params);
  return session;
}

void SessionPool::Release(std::unique_ptr<Session> session) {
  if (session == nullptr) return;
  if (!session->socket().IsOpen() || session->reader().HasBuffered()) {
    // Unread bytes mean we lost framing sync; never recycle such a
    // connection.
    Discard(std::move(session));
    return;
  }
  session->TouchLastUsed();
  MutexLock lock(mu_);
  std::vector<std::unique_ptr<Session>>& bucket = idle_[session->key()];
  if (bucket.size() >= config_.max_idle_per_host) {
    counters_->pool_discarded.fetch_add(1);
    return;  // bucket full: drop (unique_ptr closes the socket)
  }
  bucket.push_back(std::move(session));
}

void SessionPool::Discard(std::unique_ptr<Session> session) {
  if (session == nullptr) return;
  counters_->pool_discarded.fetch_add(1);
  // unique_ptr destruction closes the socket.
}

void SessionPool::Clear() {
  MutexLock lock(mu_);
  size_t dropped = 0;
  for (auto& [key, bucket] : idle_) dropped += bucket.size();
  idle_.clear();
  counters_->pool_discarded.fetch_add(dropped);
}

size_t SessionPool::IdleCount() const {
  MutexLock lock(mu_);
  size_t total = 0;
  for (const auto& [key, bucket] : idle_) total += bucket.size();
  return total;
}

size_t SessionPool::BucketCount() const {
  MutexLock lock(mu_);
  return idle_.size();
}

}  // namespace core
}  // namespace davix
