#ifndef DAVIX_MUXHTTP_MUX_H_
#define DAVIX_MUXHTTP_MUX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "httpd/router.h"
#include "muxhttp/frame.h"
#include "net/frame_server.h"
#include "netsim/fault_injector.h"
#include "netsim/link_profile.h"

namespace davix {
namespace muxhttp {

/// Listener knobs of the multiplexed server; port 0 = ephemeral.
struct MuxServerConfig {
  uint16_t port = 0;
  netsim::LinkProfile link = netsim::LinkProfile::Loopback();
  int64_t idle_timeout_micros = 30'000'000;
  /// Concurrent exchanges per connection before new streams are refused
  /// with RST kRefusedStream (the client retries on another connection).
  size_t max_streams_per_connection = 128;
  /// Body bytes per DATA frame; 0 = kMuxDataChunkBytes. Small chunks
  /// make interleaving visible (each chunk releases the write lock).
  size_t data_chunk_bytes = 0;
  /// Optional fault injection, evaluated per completed request against
  /// the request target. Supports kRefuseConnection (drop the whole
  /// connection), kServerError / kRetryAfter (503 on the stream),
  /// kStall (sleep, then drop the connection), kTruncateBody (send the
  /// head and half the DATA frames, then drop the connection).
  std::shared_ptr<netsim::FaultInjector> faults;
};

/// Monotonic server-side counters (thread-safe).
struct MuxServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> requests_handled{0};
  /// RST kRefusedStream sent: the per-connection stream limit was hit.
  std::atomic<uint64_t> streams_refused{0};
  /// RST kProtocolError sent for per-stream violations.
  std::atomic<uint64_t> streams_reset{0};
  /// Client RST kCancelled honored (remaining DATA frames suppressed).
  std::atomic<uint64_t> streams_cancelled{0};
};

/// Server side of the framed mux protocol (muxhttp/frame.h): decodes
/// interleaved request streams, dispatches each completed request to
/// the same Router type the plain HTTP server uses (so a DavHandler
/// serves both protocols), and answers out of order — responses are
/// chunked into DATA frames that interleave across streams, so a large
/// response never head-of-line blocks a small one. A protocol layer
/// over net::FrameServer.
///
/// Thread-safe: yes — Stop() may be called concurrently from any number
/// of threads; each returns only once teardown has completed.
class MuxServer {
 public:
  static Result<std::unique_ptr<MuxServer>> Start(
      MuxServerConfig config, std::shared_ptr<httpd::Router> router);

  MuxServer(const MuxServer&) = delete;
  MuxServer& operator=(const MuxServer&) = delete;

  void Stop() { core_->Stop(); }
  uint16_t port() const { return core_->port(); }
  /// Plain http:// URL — the mux protocol is an alternative transport
  /// for the same namespace, selected by RequestParams::transport.
  std::string BaseUrl() const;
  MuxServerStats& stats() { return stats_; }

 private:
  MuxServer(MuxServerConfig config, std::shared_ptr<httpd::Router> router);

  /// Reads one connection's frames until it ends; each request is
  /// answered on a worker. `active_exchanges` counts the connection's
  /// requests answered or in flight on its workers.
  void Serve(net::FrameConnection& conn,
             std::atomic<int64_t>& active_exchanges);
  void Answer(net::FrameConnection& conn, uint32_t stream_id,
              http::HttpRequest request, int64_t request_bytes);

  MuxServerConfig config_;
  std::shared_ptr<httpd::Router> router_;
  MuxServerStats stats_;
  /// Declared last: destroyed (stopped) first, while the members its
  /// connection threads use are still alive.
  std::unique_ptr<net::FrameServer> core_;
};

}  // namespace muxhttp
}  // namespace davix

#endif  // DAVIX_MUXHTTP_MUX_H_
