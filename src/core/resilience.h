#ifndef DAVIX_CORE_RESILIENCE_H_
#define DAVIX_CORE_RESILIENCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/deadline.h"

namespace davix {
namespace core {

/// Shape of the exponential-backoff retry pacing; defaults resolve from
/// RequestParams (retry_delay_micros is the base, retry_backoff_max_micros
/// the cap).
struct BackoffConfig {
  /// Delay scale of attempt 0; attempt n draws from an envelope of
  /// base * multiplier^n.
  int64_t base_delay_micros = 20'000;
  /// Ceiling of the jitter envelope, whatever the attempt number.
  int64_t max_delay_micros = 1'000'000;
  /// Envelope growth per attempt.
  double multiplier = 2.0;
};

/// Full-jitter exponential backoff: attempt n sleeps a uniform draw from
/// [0, min(max_delay, base * multiplier^n)]. Full jitter decorrelates
/// clients that fail together — the synchronized flat-delay retry storm
/// is exactly what it replaces (src/core/http_client.cc's old fixed
/// 20 ms sleep). All randomness comes from the repository's seeded Rng,
/// so a fixed seed reproduces the exact delay sequence under test.
///
/// Thread-safe: no — one Backoff belongs to one retry loop. Create one
/// per HttpClient::Execute call, not per client.
class Backoff {
 public:
  Backoff(BackoffConfig config, uint64_t seed);

  /// The jittered delay for 0-based retry `attempt`. Deterministic for a
  /// given (seed, call sequence); consumes one Rng draw.
  int64_t NextDelayMicros(int attempt);

  /// Sleeps NextDelayMicros(attempt), capped by the deadline's remaining
  /// budget. Returns the micros actually slept. The concurrency lint
  /// forbids bare SleepForMicros in core retry paths: this (and
  /// SleepBudgeted) is the sanctioned way for a retry to pause.
  int64_t SleepWithJitter(int attempt, const Deadline& deadline);

 private:
  BackoffConfig config_;
  Rng rng_;
};

/// Sleeps `delay_micros` capped by the deadline's remaining budget (no
/// jitter — for server-dictated pauses such as Retry-After). Returns the
/// micros actually slept.
int64_t SleepBudgeted(int64_t delay_micros, const Deadline& deadline);

/// The stall watchdog's time budget for moving `bytes` at no less than
/// `min_throughput_bytes_per_sec`, plus a slack floor so tiny transfers
/// on a loaded machine are not misread as stalls. Returns 0 (disabled)
/// when the rate is 0.
int64_t StallBudgetMicros(uint64_t bytes, uint64_t min_throughput_bytes_per_sec);

/// Shape of one per-host circuit breaker; defaults resolve from
/// RequestParams (breaker_failure_threshold, breaker_cooldown_micros).
struct CircuitBreakerConfig {
  /// Consecutive transport failures that trip the breaker open.
  /// <= 0 disables the breaker entirely (every Admit admits).
  int failure_threshold = 4;
  /// How long an open breaker fast-fails before letting one probe
  /// through (the half-open state).
  int64_t cooldown_micros = 2'000'000;
};

/// Per-host circuit breaker: closed → open after `failure_threshold`
/// consecutive transport failures; open fast-fails every acquire (no
/// connect attempt, no socket) until `cooldown_micros` elapse; then
/// half-open lets exactly one probe through — its success closes the
/// breaker, its failure re-arms the cooldown. Callers pass an explicit
/// `now_micros` so the state machine is deterministic under test.
///
/// Thread-safe: yes — one internal mutex guards the state machine.
class CircuitBreaker {
 public:
  /// Observable breaker state at a point in time.
  enum class State { kClosed, kOpen, kHalfOpen };
  /// What an acquire attempt should do.
  enum class Decision { kAdmit, kProbe, kFastFail };

  explicit CircuitBreaker(CircuitBreakerConfig config) : config_(config) {}

  /// Consulted before connecting. kAdmit = closed, go ahead. kProbe =
  /// half-open and this caller won the probe slot (proceed; its outcome
  /// decides the breaker's fate). kFastFail = open, do not touch the
  /// network. A probe that never reports an outcome goes stale after
  /// another cooldown and the slot is handed out again.
  Decision Admit(int64_t now_micros);

  /// One successful exchange: closes the breaker. Returns true when this
  /// call closed an open/half-open breaker.
  bool RecordSuccess();

  /// One transport failure: grows the streak, (re-)opens at the
  /// threshold. Returns true when this call newly opened a closed
  /// breaker (re-arming an already-open one returns false).
  bool RecordFailure(int64_t now_micros);

  State state(int64_t now_micros) const;

 private:
  const CircuitBreakerConfig config_;
  mutable Mutex mu_;
  int consecutive_failures_ GUARDED_BY(mu_) = 0;
  bool open_ GUARDED_BY(mu_) = false;
  int64_t opened_at_micros_ GUARDED_BY(mu_) = 0;
  bool probe_in_flight_ GUARDED_BY(mu_) = false;
  int64_t probe_started_micros_ GUARDED_BY(mu_) = 0;
};

/// The per-host breaker table living alongside SessionPool's host
/// buckets: one CircuitBreaker per "host:port" key, created lazily on
/// first consult with that request's config (later config changes for an
/// existing host are ignored — document-per-host, not per-request).
/// Outcome feedback (RecordSuccess/RecordFailure) is a no-op for hosts
/// that never went through Admit.
///
/// Thread-safe: yes — one internal mutex guards the table; per-breaker
/// state has its own lock.
class CircuitBreakerRegistry {
 public:
  /// Counts breaker_* transitions into `counters` (the Context's table,
  /// handed on by its SessionPool).
  explicit CircuitBreakerRegistry(
      std::shared_ptr<IoCounters> counters = std::make_shared<IoCounters>())
      : counters_(std::move(counters)) {}

  /// Admission decision for `host_key`, creating the breaker on first
  /// use. A non-positive failure threshold bypasses the table entirely
  /// and admits. Counts fast-fails and probe handouts.
  CircuitBreaker::Decision Admit(const std::string& host_key,
                                 const CircuitBreakerConfig& config,
                                 int64_t now_micros);

  /// Outcome feedback; counts opens/closes.
  void RecordSuccess(const std::string& host_key);
  void RecordFailure(const std::string& host_key, int64_t now_micros);

  /// True when the host's breaker is open and not yet ready to probe —
  /// the state ReplicaSet ranks below quarantined-but-probing sources.
  bool OpenForHost(const std::string& host_key, int64_t now_micros) const;

  /// The host's breaker, if one exists (test/introspection hook).
  std::shared_ptr<CircuitBreaker> FindBreaker(
      const std::string& host_key) const;

  /// Drops every breaker (counters untouched).
  void Clear();

 private:
  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<CircuitBreaker>>
      breakers_ GUARDED_BY(mu_);
  std::shared_ptr<IoCounters> counters_;
};

}  // namespace core
}  // namespace davix

#endif  // DAVIX_CORE_RESILIENCE_H_
