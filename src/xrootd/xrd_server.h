#ifndef DAVIX_XROOTD_XRD_SERVER_H_
#define DAVIX_XROOTD_XRD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "httpd/object_store.h"
#include "net/frame_server.h"
#include "netsim/fault_injector.h"
#include "netsim/link_profile.h"
#include "xrootd/frame.h"

namespace davix {
namespace xrootd {

/// Configuration of the xrootd-like data server.
struct XrdServerConfig {
  uint16_t port = 0;
  netsim::LinkProfile link = netsim::LinkProfile::Loopback();
  uint64_t fault_seed = 1;
  int64_t idle_timeout_micros = 30'000'000;
  /// Extra round trips consumed by the login/auth handshake on top of the
  /// TCP handshake. The paper's LAN result (HTTP 0.7 % faster) reflects
  /// the heavier connection setup of the HPC protocol.
  int64_t login_rtts = 2;
};

/// Monotonic server-side counters (thread-safe).
struct XrdServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> requests_handled{0};
  std::atomic<uint64_t> read_requests{0};
  std::atomic<uint64_t> readv_requests{0};
  std::atomic<uint64_t> ranges_served{0};
  std::atomic<uint64_t> bytes_served{0};
};

/// Baseline data server speaking the framed protocol of frame.h.
///
/// Requests from one connection are decoded by a reader loop and executed
/// by the connection's pool tasks, so responses can overlap and complete
/// out of order — the protocol-level multiplexing (no head-of-line
/// blocking) that §2.2 credits XRootD with. Traffic shaping splits each
/// exchange into an overlappable latency part and a serialised bandwidth
/// part. A protocol layer over net::FrameServer.
///
/// Serves objects from the same ObjectStore type as the HTTP server, so
/// benchmarks can point both protocols at identical content.
///
/// Thread-safe: yes — Stop() may be called concurrently from any number
/// of threads; each returns only once teardown has completed.
class XrdServer {
 public:
  static Result<std::unique_ptr<XrdServer>> Start(
      XrdServerConfig config, std::shared_ptr<httpd::ObjectStore> store);

  XrdServer(const XrdServer&) = delete;
  XrdServer& operator=(const XrdServer&) = delete;

  void Stop() { core_->Stop(); }

  uint16_t port() const { return core_->port(); }
  /// "root://127.0.0.1:<port>".
  std::string BaseUrl() const;

  XrdServerStats& stats() { return stats_; }
  netsim::FaultInjector& faults() { return faults_; }

 private:
  struct OpenFiles;
  struct Reply;

  XrdServer(XrdServerConfig config, std::shared_ptr<httpd::ObjectStore> store);

  /// Reads one connection's frames until it ends; each request is
  /// answered on a worker.
  void Serve(net::FrameConnection& conn, OpenFiles& files);
  Reply Answer(OpenFiles& files, const Frame& frame);

  XrdServerConfig config_;
  std::shared_ptr<httpd::ObjectStore> store_;
  netsim::FaultInjector faults_;
  XrdServerStats stats_;
  /// Declared last: destroyed (stopped) first, while the members its
  /// connection threads use are still alive.
  std::unique_ptr<net::FrameServer> core_;
};

}  // namespace xrootd
}  // namespace davix

#endif  // DAVIX_XROOTD_XRD_SERVER_H_
