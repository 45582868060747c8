#ifndef DAVIX_NET_DEMUX_CONNECTION_H_
#define DAVIX_NET_DEMUX_CONNECTION_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/mutex.h"
#include "common/status.h"
#include "net/buffered_reader.h"
#include "net/tcp_socket.h"

namespace davix {
namespace net {

/// Resolves `host`, connects within `timeout_micros` and disables Nagle:
/// the dial of both multiplexed clients.
Result<TcpSocket> DialNoDelay(const std::string& host, uint16_t port,
                              int64_t timeout_micros);

/// Shuts both directions of `socket` down, which wakes a thread blocked
/// reading it. The descriptor stays open until the socket is destroyed.
void ShutdownBoth(TcpSocket* socket);

/// One client connection carrying many concurrent exchanges, each keyed
/// by a stream id: the client half of §2.2's "parallel asynchronous data
/// access on top of its own I/O multiplexing". core::MuxConnection
/// (framed HTTP) and xrootd::XrdClient are protocol layers over it.
///
/// The connection owns the socket, a reader thread, stream-id allocation
/// and the table of exchanges in flight. The protocol supplies the rest:
/// a ReadFn that reads one message off the wire and names the stream it
/// completes, and the request bytes it hands to Send.
///
/// Every exchange that Begin registers ends exactly once. The reader
/// resolves it with its message, FailAll resolves it with the
/// connection's error, or Cancel withdraws it and its caller decides the
/// outcome. A completion runs on the thread that claimed it (the reader,
/// a failed sender, or Shutdown's caller), never under a lock of this
/// class.
///
/// Thread-safe: yes. mu_ and write_mu_ are leaf locks; no code path holds
/// both.
template <typename Message>
class DemuxConnection {
 public:
  /// Resolves one exchange: its message, or the error that ended it.
  using Completion = std::function<void(Result<Message>)>;

  /// One message read off the wire, for stream `stream_id`.
  struct Delivery {
    uint32_t stream_id = 0;
    Result<Message> message;
  };

  /// Reads one message. An error is fatal to the connection: every
  /// exchange in flight fails with it. nullopt means the bytes read
  /// completed no exchange yet.
  using ReadFn =
      std::function<Result<std::optional<Delivery>>(BufferedReader*)>;

  /// Takes over `socket` and starts the reader thread. Each socket read
  /// waits at most `read_timeout_micros` (0 = no limit). Stream ids run
  /// from 1 to `max_stream_id`, then wrap.
  DemuxConnection(TcpSocket socket, int64_t read_timeout_micros,
                  uint32_t max_stream_id, ReadFn read)
      : socket_(std::move(socket)),
        reader_(&socket_, read_timeout_micros),
        max_stream_id_(max_stream_id),
        read_(std::move(read)),
        reader_thread_([this] { ReaderLoop(); }) {}

  /// Fails what is still in flight with kCancelled and joins the reader.
  ~DemuxConnection() {
    Shutdown(Status::Cancelled("connection closed"));
    reader_thread_.join();
  }

  DemuxConnection(const DemuxConnection&) = delete;
  DemuxConnection& operator=(const DemuxConnection&) = delete;

  /// Registers `done` under a stream id that is not in flight and returns
  /// the id; the caller then sends the request with Send. Returns 0 (never
  /// an id) when the connection is dead or already carries
  /// `max_in_flight` exchanges; `done` is then dropped uncalled.
  uint32_t Begin(Completion done, size_t max_in_flight = SIZE_MAX) {
    MutexLock lock(mu_);
    if (!alive() ||
        in_flight_.size() >= std::min<size_t>(max_in_flight, max_stream_id_)) {
      return 0;
    }
    uint32_t id = next_id_;
    while (in_flight_.count(id) > 0) id = id == max_stream_id_ ? 1 : id + 1;
    next_id_ = id == max_stream_id_ ? 1 : id + 1;
    in_flight_.emplace(id, std::move(done));
    return id;
  }

  /// Writes one request's bytes, in order, with no other request's bytes
  /// between them. A failed write leaves the byte stream unusable, so it
  /// fails the connection: every exchange in flight, the sender's own
  /// included, resolves with kConnectionReset.
  Status Send(std::span<const std::string> pieces) {
    Status status;
    {
      MutexLock lock(write_mu_);
      status = WriteLocked(pieces);
    }
    if (!status.ok()) {
      FailAll(Status::ConnectionReset("send failed: " + status.message()));
    }
    return status;
  }

  /// Withdraws stream `id`'s completion. True: it was still in flight, it
  /// will never run, and the caller owns the exchange's outcome. False:
  /// the reader or FailAll claimed it first, and it runs (or ran) with the
  /// exchange's outcome.
  bool Cancel(uint32_t id) { return static_cast<bool>(Claim(id)); }

  /// Marks the connection dead, fails every exchange in flight with
  /// `reason`, and shuts the socket down so the reader exits. Idempotent.
  void Shutdown(const Status& reason) {
    FailAll(reason);
    ShutdownBoth(&socket_);
  }

  bool alive() const { return alive_.load(std::memory_order_acquire); }

  /// Exchanges registered and not yet resolved or withdrawn.
  size_t in_flight() const {
    MutexLock lock(mu_);
    return in_flight_.size();
  }

 private:
  void ReaderLoop() {
    while (true) {
      Result<std::optional<Delivery>> next = read_(&reader_);
      if (!next.ok()) {
        // After Shutdown this finds nothing in flight: those exchanges
        // already ended with Shutdown's reason.
        FailAll(next.status());
        ShutdownBoth(&socket_);
        return;
      }
      if (!next->has_value()) continue;
      Delivery& delivery = **next;
      // No completion: the stream was cancelled locally; drop it.
      if (Completion done = Claim(delivery.stream_id)) {
        done(std::move(delivery.message));
      }
    }
  }

  /// Removes and returns stream `id`'s completion (empty when none).
  Completion Claim(uint32_t id) {
    MutexLock lock(mu_);
    auto it = in_flight_.find(id);
    if (it == in_flight_.end()) return nullptr;
    Completion done = std::move(it->second);
    in_flight_.erase(it);
    return done;
  }

  /// Marks the connection dead and resolves every exchange in flight with
  /// `reason`. Safe from any thread.
  void FailAll(const Status& reason) {
    std::unordered_map<uint32_t, Completion> orphans;
    {
      MutexLock lock(mu_);
      alive_.store(false, std::memory_order_release);
      orphans.swap(in_flight_);
    }
    for (auto& [id, done] : orphans) done(reason);
  }

  /// The only write to the socket. A failed write marks the connection
  /// dead before the lock is released, so no later request follows a
  /// torn one onto the wire.
  Status WriteLocked(std::span<const std::string> pieces) REQUIRES(write_mu_) {
    if (!alive()) return Status::ConnectionReset("connection is closed");
    for (const std::string& piece : pieces) {
      Status status = socket_.WriteAll(piece);
      if (!status.ok()) {
        alive_.store(false, std::memory_order_release);
        return status;
      }
    }
    return Status::OK();
  }

  TcpSocket socket_;
  BufferedReader reader_;  // reader thread only
  const uint32_t max_stream_id_;
  const ReadFn read_;
  std::atomic<bool> alive_{true};

  mutable Mutex mu_;
  std::unordered_map<uint32_t, Completion> in_flight_ GUARDED_BY(mu_);
  uint32_t next_id_ GUARDED_BY(mu_) = 1;

  Mutex write_mu_;

  /// Declared last: starts once every member above is initialised.
  std::thread reader_thread_;
};

}  // namespace net
}  // namespace davix

#endif  // DAVIX_NET_DEMUX_CONNECTION_H_
