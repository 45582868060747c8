#ifndef DAVIX_NET_FRAME_SERVER_H_
#define DAVIX_NET_FRAME_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "net/buffered_reader.h"
#include "net/poller.h"
#include "net/tcp_socket.h"
#include "netsim/shaper.h"

namespace davix {
namespace net {

/// Workers per connection: the server-side concurrency one client's
/// multiplexed exchanges get, under either framed protocol.
constexpr size_t kWorkersPerConnection = 8;

/// One accepted connection of a FrameServer, as its protocol sees it:
/// the reader its frames arrive on, the workers that answer them, and
/// the one shaped, serialised way to write frames back.
///
/// Thread-safe: reader() belongs to the connection's thread; the rest
/// may be called from any thread. shaper_mu_ is a leaf lock; cancel_mu_
/// is taken alone or inside write_mu_.
class FrameConnection {
 public:
  FrameConnection(TcpSocket* socket, const netsim::LinkProfile& link,
                  int64_t idle_timeout_micros)
      : socket_(socket),
        reader_(socket, idle_timeout_micros),
        shaper_(link),
        workers_(kWorkersPerConnection) {}
  FrameConnection(const FrameConnection&) = delete;
  FrameConnection& operator=(const FrameConnection&) = delete;

  BufferedReader* reader() { return &reader_; }

  /// Runs `task` on one of the connection's workers; false once the
  /// connection is being torn down.
  bool Submit(std::function<void()> task) {
    return workers_.Submit(std::move(task));
  }

  /// Answers one exchange of stream `stream_id` (its request took
  /// `request_bytes`) with `frames`, shaped on the link: the latency
  /// (plus `extra_latency_micros`) is slept outside any lock, so
  /// concurrent exchanges overlap it; each frame then pays its share of
  /// the bandwidth time under the write lock, so the wire is serialised
  /// while other streams' frames slot in between. Stops at a cancel, a
  /// broken connection, or after `write_limit` frames (a truncated body
  /// the plan still charges in full).
  void Send(uint32_t stream_id, std::span<const std::string> frames,
            int64_t request_bytes, int64_t extra_latency_micros = 0,
            size_t write_limit = SIZE_MAX);

  /// Writes one frame at once, unshaped and uncancellable (a reset).
  void Write(std::string_view frame);

  /// Suppresses the frames of stream `stream_id` that Send has yet to
  /// write; the first of them consumes the cancel.
  void Cancel(uint32_t stream_id);

  /// Shuts both directions down: the next read fails, and every write.
  void Drop();

 private:
  friend class FrameServer;

  /// The only write to the socket. A failed write marks the connection
  /// broken before the lock is released, so no later frame follows a
  /// torn one onto the wire.
  void WriteLocked(std::string_view frame) REQUIRES(write_mu_);

  TcpSocket* const socket_;
  BufferedReader reader_;
  Mutex shaper_mu_;
  netsim::ConnectionShaper shaper_ GUARDED_BY(shaper_mu_);
  Mutex write_mu_;
  bool broken_ GUARDED_BY(write_mu_) = false;
  /// A lock of its own: a sender re-takes write_mu_ the moment it drops
  /// it, so a Cancel queued there would wait out the stream it cancels.
  Mutex cancel_mu_;
  std::unordered_set<uint32_t> cancelled_ GUARDED_BY(cancel_mu_);
  /// Declared last: destroyed first, so the workers are joined while
  /// everything their tasks use is still alive.
  ThreadPool workers_;
};

/// The server half of the framed protocols (muxhttp::MuxServer,
/// xrootd::XrdServer) and the server-side twin of DemuxConnection: a
/// listener, an accept thread, and one thread per connection, joined as
/// soon as its connection ends. A protocol supplies only a function that
/// reads frames off FrameConnection::reader() until the connection ends
/// and answers each one, on the reader or on a worker, through Send.
///
/// Thread-safe: yes — Stop() may be called concurrently from any number
/// of threads; each returns only once teardown has completed. stop_mu_
/// is taken before mu_.
class FrameServer {
 public:
  /// Listens on 127.0.0.1:`port` (0 = ephemeral) and serves each
  /// accepted connection on a thread of its own: a value-initialised
  /// State, then `serve(conn, state)`. The State is shared with the
  /// tasks `serve` submits and destroyed only after the last of them.
  template <typename State>
  static Result<std::unique_ptr<FrameServer>> Start(
      uint16_t port, const netsim::LinkProfile& link,
      int64_t idle_timeout_micros,
      std::function<void(FrameConnection&, State&)> serve) {
    return Launch(port, link, idle_timeout_micros,
                  [serve = std::move(serve)](FrameConnection& conn) {
                    State state{};
                    serve(conn, state);
                    conn.workers_.Shutdown();
                  });
  }

  ~FrameServer() { Stop(); }
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Stops accepting, shuts every connection down and joins every
  /// thread, tasks included.
  void Stop();

  uint16_t port() const { return listener_.port(); }

 private:
  using Handler = std::function<void(FrameConnection&)>;

  FrameServer(const netsim::LinkProfile& link, int64_t idle_timeout_micros,
              Handler handler)
      : link_(link), idle_timeout_micros_(idle_timeout_micros),
        handler_(std::move(handler)) {}
  static Result<std::unique_ptr<FrameServer>> Launch(
      uint16_t port, const netsim::LinkProfile& link,
      int64_t idle_timeout_micros, Handler handler);

  void AcceptLoop();
  void Serve(TcpSocket socket);

  const netsim::LinkProfile link_;
  const int64_t idle_timeout_micros_;
  const Handler handler_;
  TcpListener listener_;
  /// Wakes the accept thread: a connection to accept, a thread to join,
  /// or Stop.
  Poller poller_;
  std::atomic<bool> stopping_{false};

  Mutex mu_;
  /// Connection threads by socket descriptor, for Stop to shut down.
  std::unordered_map<int, std::thread> connections_ GUARDED_BY(mu_);
  /// Threads whose connection ended, for the accept thread to join.
  std::vector<std::thread> finished_ GUARDED_BY(mu_);

  /// Serialises Stop() callers.
  Mutex stop_mu_;
  std::thread accept_thread_ GUARDED_BY(stop_mu_);
};

}  // namespace net
}  // namespace davix

#endif  // DAVIX_NET_FRAME_SERVER_H_
