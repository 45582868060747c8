#include "core/resilience.h"

#include <algorithm>
#include <cmath>

#include "common/clock.h"

namespace davix {
namespace core {

Backoff::Backoff(BackoffConfig config, uint64_t seed)
    : config_(config), rng_(seed) {
  if (config_.base_delay_micros < 0) config_.base_delay_micros = 0;
  if (config_.max_delay_micros < config_.base_delay_micros) {
    config_.max_delay_micros = config_.base_delay_micros;
  }
  if (config_.multiplier < 1.0) config_.multiplier = 1.0;
}

int64_t Backoff::NextDelayMicros(int attempt) {
  double envelope = static_cast<double>(config_.base_delay_micros) *
                    std::pow(config_.multiplier, std::max(0, attempt));
  int64_t cap = std::min<int64_t>(
      config_.max_delay_micros,
      envelope >= static_cast<double>(config_.max_delay_micros)
          ? config_.max_delay_micros
          : static_cast<int64_t>(envelope));
  if (cap <= 0) return 0;
  // Full jitter: uniform in [0, cap]. The draw happens even when the
  // deadline later truncates the sleep, so seeded sequences stay aligned
  // with the attempt number.
  return static_cast<int64_t>(rng_.Below(static_cast<uint64_t>(cap) + 1));
}

int64_t Backoff::SleepWithJitter(int attempt, const Deadline& deadline) {
  return SleepBudgeted(NextDelayMicros(attempt), deadline);
}

int64_t StallBudgetMicros(uint64_t bytes,
                          uint64_t min_throughput_bytes_per_sec) {
  if (min_throughput_bytes_per_sec == 0) return 0;
  // 200 ms slack floor: scheduling noise on a loaded machine must not
  // read as a stall for a chunk that is only a few KB.
  constexpr int64_t kSlackMicros = 200'000;
  return static_cast<int64_t>(bytes * 1'000'000 /
                              min_throughput_bytes_per_sec) +
         kSlackMicros;
}

int64_t SleepBudgeted(int64_t delay_micros, const Deadline& deadline) {
  if (delay_micros <= 0) return 0;
  if (deadline.armed()) {
    delay_micros = std::min(delay_micros, deadline.RemainingMicros());
    if (delay_micros <= 0) return 0;
  }
  SleepForMicros(delay_micros);
  return delay_micros;
}

CircuitBreaker::Decision CircuitBreaker::Admit(int64_t now_micros) {
  if (config_.failure_threshold <= 0) return Decision::kAdmit;
  MutexLock lock(mu_);
  if (!open_) return Decision::kAdmit;
  if (now_micros - opened_at_micros_ < config_.cooldown_micros) {
    return Decision::kFastFail;
  }
  // Half-open: one probe at a time. A probe whose outcome never came
  // back (its owner died mid-request) goes stale after another cooldown
  // so the breaker cannot wedge half-open forever.
  if (probe_in_flight_ &&
      now_micros - probe_started_micros_ < config_.cooldown_micros) {
    return Decision::kFastFail;
  }
  probe_in_flight_ = true;
  probe_started_micros_ = now_micros;
  return Decision::kProbe;
}

bool CircuitBreaker::RecordSuccess() {
  MutexLock lock(mu_);
  consecutive_failures_ = 0;
  probe_in_flight_ = false;
  if (!open_) return false;
  open_ = false;
  return true;
}

bool CircuitBreaker::RecordFailure(int64_t now_micros) {
  if (config_.failure_threshold <= 0) return false;
  MutexLock lock(mu_);
  ++consecutive_failures_;
  if (open_) {
    // A failed probe (or a straggling request that started before the
    // trip): re-arm the cooldown, keep the breaker open.
    opened_at_micros_ = now_micros;
    probe_in_flight_ = false;
    return false;
  }
  if (consecutive_failures_ < config_.failure_threshold) return false;
  open_ = true;
  opened_at_micros_ = now_micros;
  probe_in_flight_ = false;
  return true;
}

CircuitBreaker::State CircuitBreaker::state(int64_t now_micros) const {
  MutexLock lock(mu_);
  if (!open_) return State::kClosed;
  return now_micros - opened_at_micros_ >= config_.cooldown_micros
             ? State::kHalfOpen
             : State::kOpen;
}

CircuitBreaker::Decision CircuitBreakerRegistry::Admit(
    const std::string& host_key, const CircuitBreakerConfig& config,
    int64_t now_micros) {
  if (config.failure_threshold <= 0) return CircuitBreaker::Decision::kAdmit;
  std::shared_ptr<CircuitBreaker> breaker;
  {
    MutexLock lock(mu_);
    std::shared_ptr<CircuitBreaker>& slot = breakers_[host_key];
    if (slot == nullptr) slot = std::make_shared<CircuitBreaker>(config);
    breaker = slot;
  }
  CircuitBreaker::Decision decision = breaker->Admit(now_micros);
  if (decision == CircuitBreaker::Decision::kFastFail) {
    counters_->breaker_fast_fails.fetch_add(1);
  } else if (decision == CircuitBreaker::Decision::kProbe) {
    counters_->breaker_half_open_probes.fetch_add(1);
  }
  return decision;
}

void CircuitBreakerRegistry::RecordSuccess(const std::string& host_key) {
  std::shared_ptr<CircuitBreaker> breaker = FindBreaker(host_key);
  if (breaker != nullptr && breaker->RecordSuccess()) {
    counters_->breaker_closes.fetch_add(1);
  }
}

void CircuitBreakerRegistry::RecordFailure(const std::string& host_key,
                                           int64_t now_micros) {
  std::shared_ptr<CircuitBreaker> breaker = FindBreaker(host_key);
  if (breaker != nullptr && breaker->RecordFailure(now_micros)) {
    counters_->breaker_opens.fetch_add(1);
  }
}

bool CircuitBreakerRegistry::OpenForHost(const std::string& host_key,
                                         int64_t now_micros) const {
  std::shared_ptr<CircuitBreaker> breaker = FindBreaker(host_key);
  return breaker != nullptr &&
         breaker->state(now_micros) == CircuitBreaker::State::kOpen;
}

std::shared_ptr<CircuitBreaker> CircuitBreakerRegistry::FindBreaker(
    const std::string& host_key) const {
  MutexLock lock(mu_);
  auto it = breakers_.find(host_key);
  return it == breakers_.end() ? nullptr : it->second;
}

void CircuitBreakerRegistry::Clear() {
  MutexLock lock(mu_);
  breakers_.clear();
}

}  // namespace core
}  // namespace davix
