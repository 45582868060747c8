#ifndef DAVIX_XROOTD_XRD_CLIENT_H_
#define DAVIX_XROOTD_XRD_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "http/range.h"
#include "net/demux_connection.h"
#include "xrootd/frame.h"

namespace davix {
namespace xrootd {

/// Transport timeouts of the xrootd-like client.
struct XrdClientConfig {
  int64_t connect_timeout_micros = 15'000'000;
  int64_t operation_timeout_micros = 120'000'000;
};

/// Result of Open: server-side handle plus file size.
struct OpenInfo {
  uint32_t handle = 0;
  uint64_t size = 0;
};

/// Asynchronous multiplexing client for the xrootd-like protocol.
///
/// One TCP connection carries any number of outstanding requests, keyed
/// by a u16 stream id; net::DemuxConnection's reader thread completes
/// them as responses arrive (in any order). This is the baseline
/// architecture the paper compares davix against: "parallel asynchronous
/// data access on top of its own I/O multiplexing".
///
/// Thread-safe: yes — all calls may come from any thread.
class XrdClient {
 public:
  /// Connects and starts the reader thread. Each socket read waits at
  /// most `config.operation_timeout_micros`; a read that times out fails
  /// the connection.
  static Result<std::unique_ptr<XrdClient>> Connect(
      const std::string& host, uint16_t port, XrdClientConfig config = {});

  /// Resolves every request still in flight with kCancelled.
  ~XrdClient() = default;

  XrdClient(const XrdClient&) = delete;
  XrdClient& operator=(const XrdClient&) = delete;

  /// Login handshake; must be the first call (the real protocol
  /// requires it, and it is where the connection-setup RTTs go).
  Status Login();

  Result<OpenInfo> Open(const std::string& path);
  Result<uint64_t> StatSize(const std::string& path);
  Status Close(uint32_t handle);

  /// Synchronous positional read.
  Result<std::string> Read(uint32_t handle, uint64_t offset, uint32_t length);

  /// Asynchronous positional read; the future resolves when the response
  /// frame arrives.
  std::future<Result<std::string>> ReadAsync(uint32_t handle, uint64_t offset,
                                             uint32_t length);

  /// Synchronous vectored read (one kReadVector frame, one round trip).
  /// results[i] holds ranges[i]'s bytes, truncated at EOF.
  Result<std::vector<std::string>> ReadVector(
      uint32_t handle, const std::vector<http::ByteRange>& ranges);

  /// Asynchronous vectored read. The future resolves to the raw response
  /// payload; decode it with DecodeReadVectorResponse (declared below)
  /// once ready. Raw form keeps the reader thread free of copies.
  std::future<Result<std::string>> ReadVectorRawAsync(
      uint32_t handle, const std::vector<http::ByteRange>& ranges);

  /// True until the connection dies; afterwards every call fails fast.
  bool IsAlive() const { return connection_->alive(); }

  /// Frames sent (== round trips consumed, since each request frame
  /// yields one response frame).
  uint64_t requests_sent() const {
    return requests_sent_.load(std::memory_order_relaxed);
  }

 private:
  XrdClient() = default;

  /// Sends one request frame. The future resolves to `decode` of the
  /// response frame, or to the error that ended the exchange.
  template <typename T>
  std::future<Result<T>> Submit(Opcode opcode, uint64_t arg,
                                std::string payload,
                                Result<T> (*decode)(Frame frame));

  std::atomic<uint64_t> requests_sent_{0};
  std::unique_ptr<net::DemuxConnection<Frame>> connection_;
};

/// Slices a kReadVector response payload back into per-range strings.
Result<std::vector<std::string>> DecodeReadVectorResponse(
    std::string_view payload, size_t range_count);

}  // namespace xrootd
}  // namespace davix

#endif  // DAVIX_XROOTD_XRD_CLIENT_H_
