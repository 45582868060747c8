#include "netsim/shaper.h"

#include <algorithm>

namespace davix {
namespace netsim {

ConnectionShaper::ConnectionShaper(LinkProfile profile)
    : profile_(std::move(profile)), cwnd_bytes_(profile_.init_cwnd_bytes) {}

ConnectionShaper::ExchangePlan ConnectionShaper::PlanExchange(
    int64_t request_bytes, int64_t response_bytes) {
  ExchangePlan plan;
  if (profile_.IsNullLink()) return plan;
  if (!handshake_done_) {
    plan.latency_micros +=
        profile_.connect_handshake_rtts * profile_.rtt_micros;
    handshake_done_ = true;
  }
  plan.latency_micros += profile_.rtt_micros;  // up + down propagation
  if (profile_.bandwidth_bytes_per_sec > 0) {
    plan.bandwidth_micros +=
        request_bytes * 1'000'000 / profile_.bandwidth_bytes_per_sec;
  }
  plan.bandwidth_micros += TransferMicros(profile_, response_bytes,
                                          &cwnd_bytes_);
  return plan;
}

int64_t ConnectionShaper::TransferMicros(const LinkProfile& profile,
                                         int64_t bytes, int64_t* cwnd) {
  if (bytes <= 0) return 0;
  int64_t delay = 0;
  int64_t remaining = bytes;
  int64_t window = std::max<int64_t>(1, *cwnd);
  while (remaining > 0) {
    int64_t burst = std::min(remaining, window);
    if (profile.bandwidth_bytes_per_sec > 0) {
      delay += burst * 1'000'000 / profile.bandwidth_bytes_per_sec;
    }
    remaining -= burst;
    if (remaining > 0) {
      // Wait for the ACK of this window before opening the next one.
      delay += profile.rtt_micros;
      window = std::min(window * 2, profile.max_cwnd_bytes);
    }
  }
  *cwnd = window;
  return delay;
}

}  // namespace netsim
}  // namespace davix
