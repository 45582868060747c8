#ifndef DAVIX_NETSIM_SHAPER_H_
#define DAVIX_NETSIM_SHAPER_H_

#include <cstdint>

#include "netsim/link_profile.h"

namespace davix {
namespace netsim {

/// Per-connection TCP behaviour model.
///
/// A server owns one ConnectionShaper per accepted connection and delays
/// each response by the plan this class computes, turning loopback
/// sockets into a deterministic simulation of a wide-area TCP connection:
///
///  - connection establishment costs `connect_handshake_rtts` RTTs,
///  - each exchange costs one RTT of propagation (half up, half down),
///    plus serialisation of the request and of the response, the latter
///    sent in congestion-window-sized bursts with one RTT between bursts,
///  - the congestion window starts at `init_cwnd_bytes`, doubles per burst
///    (slow start) and is capped at `max_cwnd_bytes`,
///  - the window persists across requests on the same connection, which is
///    precisely the benefit of HTTP keep-alive / session recycling that
///    §2.2 of the paper exploits.
///
/// All methods only do arithmetic; the caller decides when to sleep or
/// arm a timer. That keeps the model unit-testable with no wall-clock
/// dependence.
class ConnectionShaper {
 public:
  explicit ConnectionShaper(LinkProfile profile);

  /// Current congestion window in bytes.
  int64_t cwnd_bytes() const { return cwnd_bytes_; }

  /// Models the transfer time (µs) of `bytes` on `profile` for a
  /// connection whose current window is `cwnd` (updated in place).
  /// Exposed for tests and for client-side planning.
  static int64_t TransferMicros(const LinkProfile& profile, int64_t bytes,
                                int64_t* cwnd);

  /// Delay decomposition for one request/response exchange. The latency
  /// component models propagation (and the one-time handshake):
  /// concurrent exchanges on a multiplexed connection overlap it. The
  /// bandwidth component models serialisation on the shared link: the
  /// caller must serialise it (e.g. sleep while holding the connection's
  /// write lock). A caller with one exchange in flight charges the sum.
  struct ExchangePlan {
    int64_t latency_micros = 0;
    int64_t bandwidth_micros = 0;
  };

  /// Computes the plan for an exchange and advances the window state.
  /// Not thread-safe; callers serialise access per connection.
  ExchangePlan PlanExchange(int64_t request_bytes, int64_t response_bytes);

 private:
  LinkProfile profile_;
  int64_t cwnd_bytes_;
  bool handshake_done_ = false;
};

}  // namespace netsim
}  // namespace davix

#endif  // DAVIX_NETSIM_SHAPER_H_
