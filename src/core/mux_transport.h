#ifndef DAVIX_CORE_MUX_TRANSPORT_H_
#define DAVIX_CORE_MUX_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/uri.h"
#include "core/request_params.h"
#include "http/message.h"
#include "muxhttp/frame.h"
#include "net/demux_connection.h"

namespace davix {
namespace core {

/// Counters of the mux transport (thread-safe; mirrored into
/// IoCounters by Context::SnapshotCounters).
struct MuxTransportStats {
  std::atomic<uint64_t> connections_opened{0};
  /// Connections torn down by read errors / protocol violations.
  std::atomic<uint64_t> connections_lost{0};
  std::atomic<uint64_t> streams_opened{0};
  /// Streams that ended in a per-stream error (peer RST, malformed
  /// response, local deadline cancel).
  std::atomic<uint64_t> streams_reset{0};
  /// Execute calls that had to wait for a stream slot because every
  /// connection to the host was saturated and the per-host connection
  /// limit was reached.
  std::atomic<uint64_t> backpressure_waits{0};
};

/// One framed client connection carrying many concurrent streams
/// (muxhttp/frame.h): the mux protocol over net::DemuxConnection, which
/// owns the socket, the reader thread and the streams in flight. Frames
/// read are fed to a MuxStreamAssembler; each requester waits on its own
/// stream's completion until the response arrives, the stream fails, or
/// its deadline expires (expiry sends RST kCancelled so the server stops
/// streaming).
///
/// Thread-safe: yes — any number of threads may run exchanges
/// concurrently. demux_mu_ is a leaf lock.
class MuxConnection {
 public:
  /// Connects to `url`'s host (connect timeout from `params`, capped by
  /// its deadline) and starts the reader thread.
  static Result<std::shared_ptr<MuxConnection>> Connect(
      const Uri& url, const RequestParams& params);

  MuxConnection(const MuxConnection&) = delete;
  MuxConnection& operator=(const MuxConnection&) = delete;

  /// A reserved stream slot: its id, and the response it resolves to.
  struct Stream {
    /// 0 (never a valid id): no slot was reserved.
    uint32_t id = 0;
    std::future<Result<http::HttpResponse>> response;
  };

  /// Reserves a stream slot and allocates its id. Returns id 0 when the
  /// connection is dead or already carries `max_streams` exchanges — the
  /// caller then tries another connection or waits. A reserved slot MUST
  /// be consumed by FinishExchange.
  Stream TryBeginStream(size_t max_streams, bool head_request);

  /// Sends `request` on `stream` (from TryBeginStream) and blocks until
  /// the response arrives, the stream fails, or the wait budget —
  /// operation_timeout_micros capped by the armed deadline — runs out.
  /// Expiry cancels the stream on the wire (RST kCancelled) and returns
  /// kTimeout. Connection loss fails with a retryable kConnectionReset.
  Result<http::HttpResponse> FinishExchange(Stream stream,
                                            const http::HttpRequest& request,
                                            const RequestParams& params,
                                            MuxTransportStats* stats);

  bool alive() const { return connection_->alive(); }
  size_t active_streams() const { return connection_->in_flight(); }

  /// Fails every in-flight stream and closes the socket. Idempotent.
  void Shutdown(const Status& reason) { connection_->Shutdown(reason); }

 private:
  using Demux = net::DemuxConnection<http::HttpResponse>;

  MuxConnection() = default;

  /// The connection's ReadFn: reads one frame and feeds it to the
  /// assembler.
  Result<std::optional<Demux::Delivery>> ReadResponse(
      net::BufferedReader* reader);

  /// The demux state machine, fed by the reader and registered into by
  /// requesters (ExpectStream / Forget).
  Mutex demux_mu_;
  muxhttp::MuxStreamAssembler assembler_ GUARDED_BY(demux_mu_){
      muxhttp::MuxStreamAssembler::Mode::kResponse};

  /// Declared last, so it is destroyed (its reader joined) before the
  /// assembler that reader feeds.
  std::unique_ptr<Demux> connection_;
};

/// The client-side mux transport: per-host buckets of a few shared
/// MuxConnections, each multiplexing up to
/// RequestParams::mux_max_streams_per_connection concurrent exchanges.
/// Execute picks the least-loaded live connection with a free stream
/// slot, opens a new connection while under the per-host limit
/// (mux_max_connections_per_host), and otherwise blocks until a slot
/// frees up — bounded connection count is the point of the transport.
///
/// Ownership: owned by the Context (lazily, like the dispatcher pool);
/// HttpClient::ExecuteOnce routes exchanges here when
/// RequestParams::transport == TransportKind::kMux.
///
/// Thread-safe: yes.
class MuxTransport {
 public:
  MuxTransport() = default;
  ~MuxTransport();

  MuxTransport(const MuxTransport&) = delete;
  MuxTransport& operator=(const MuxTransport&) = delete;

  /// Runs one exchange over a mux connection to `url`'s host. The
  /// request must be fully built (headers, body); `head_request` marks
  /// HEAD so a bodyless response with Content-Length is accepted.
  Result<http::HttpResponse> Execute(const Uri& url,
                                     const http::HttpRequest& request,
                                     bool head_request,
                                     const RequestParams& params);

  /// Live connections to `host_key` ("host:port") right now — the
  /// bounded-connection assertion hook for tests and benches.
  size_t ConnectionCount(const std::string& host_key) const;

  /// Live connections across all hosts.
  size_t TotalConnections() const;

  /// Shuts down and drops every connection (in-flight exchanges fail
  /// with kCancelled).
  void Clear();

  MuxTransportStats& stats() { return stats_; }

 private:
  struct Bucket {
    std::vector<std::shared_ptr<MuxConnection>> connections;
    /// Connects in flight, counted toward the per-host limit so a burst
    /// of first requests cannot overshoot it.
    size_t connecting = 0;
  };

  mutable Mutex mu_;
  CondVar cv_;
  std::unordered_map<std::string, Bucket> buckets_ GUARDED_BY(mu_);
  MuxTransportStats stats_;
};

}  // namespace core
}  // namespace davix

#endif  // DAVIX_CORE_MUX_TRANSPORT_H_
