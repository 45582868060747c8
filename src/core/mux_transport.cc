#include "core/mux_transport.h"

#include <algorithm>
#include <chrono>

namespace davix {
namespace core {
namespace {

// Defaults behind the 0 = auto convention of the RequestParams knobs.
constexpr size_t kDefaultMaxConnectionsPerHost = 2;
constexpr size_t kDefaultMaxStreamsPerConnection = 64;
// Re-check interval of a backpressure or dial wait: waiters are
// notified on every completed exchange and dial, the poll only covers
// lost wakeups.
constexpr int64_t kWaitPollMicros = 5'000;

}  // namespace

// ---------------------------------------------------------- MuxConnection

Result<std::shared_ptr<MuxConnection>> MuxConnection::Connect(
    const Uri& url, const RequestParams& params) {
  DAVIX_ASSIGN_OR_RETURN(
      net::TcpSocket socket,
      net::DialNoDelay(url.host(), url.port(),
                       params.deadline.CapTimeout(params.connect_timeout_micros)));
  std::shared_ptr<MuxConnection> conn(new MuxConnection());
  // No per-read timeout on the shared reader: response pacing is each
  // requester's business (its own deadline-bounded wait), and a stuck
  // connection is unwedged by Shutdown closing the socket.
  conn->connection_ = std::make_unique<Demux>(
      std::move(socket), 0, UINT32_MAX,
      [c = conn.get()](net::BufferedReader* reader) {
        return c->ReadResponse(reader);
      });
  return conn;
}

Result<std::optional<MuxConnection::Demux::Delivery>>
MuxConnection::ReadResponse(net::BufferedReader* reader) {
  Result<muxhttp::MuxFrame> frame = muxhttp::ReadMuxFrame(reader);
  if (!frame.ok()) {
    return Status::ConnectionReset("mux connection lost: " +
                                   frame.status().message());
  }
  Result<std::optional<muxhttp::MuxStreamAssembler::Event>> event =
      [this, &frame] {
        MutexLock lock(demux_mu_);
        return assembler_.OnFrame(std::move(*frame));
      }();
  if (!event.ok()) {
    // Connection-fatal violation: framing sync is gone, every stream
    // dies retryably and the socket is closed so the server notices.
    return Status::ConnectionReset("mux protocol violation: " +
                                   event.status().message());
  }
  if (!event->has_value()) return std::optional<Demux::Delivery>();
  muxhttp::MuxStreamAssembler::Event& ev = **event;
  if (ev.response.has_value()) {
    return std::optional<Demux::Delivery>(
        Demux::Delivery{ev.stream_id, std::move(*ev.response)});
  }
  return std::optional<Demux::Delivery>(Demux::Delivery{
      ev.stream_id,
      ev.stream_error.value_or(
          Status::Internal("mux event carried no response"))});
}

MuxConnection::Stream MuxConnection::TryBeginStream(size_t max_streams,
                                                    bool head_request) {
  auto promise =
      std::make_shared<std::promise<Result<http::HttpResponse>>>();
  Stream stream;
  stream.id = connection_->Begin(
      [promise](Result<http::HttpResponse> response) {
        promise->set_value(std::move(response));
      },
      std::max<size_t>(max_streams, 1));
  if (stream.id == 0) return stream;
  stream.response = promise->get_future();
  MutexLock lock(demux_mu_);
  assembler_.ExpectStream(stream.id, head_request);
  return stream;
}

Result<http::HttpResponse> MuxConnection::FinishExchange(
    Stream stream, const http::HttpRequest& request,
    const RequestParams& params, IoCounters* counters) {
  std::vector<std::string> wire;
  for (const muxhttp::MuxFrame& frame : muxhttp::FrameMessage(
           stream.id, request.SerializeHead(request.body.size()),
           request.body)) {
    wire.push_back(muxhttp::SerializeMuxFrame(frame));
  }
  // A failed send fails every stream on the connection, this one too.
  (void)connection_->Send(wire);

  int64_t budget = params.deadline.CapTimeout(params.operation_timeout_micros);
  if (budget > 0 &&
      stream.response.wait_for(std::chrono::microseconds(budget)) ==
          std::future_status::timeout &&
      connection_->Cancel(stream.id)) {
    // Deadline expired mid-stream and the response is ours to drop:
    // release the demux slot first so frames racing in are dropped, then
    // tell the server to stop streaming (best effort).
    {
      MutexLock lock(demux_mu_);
      assembler_.Forget(stream.id);
    }
    std::string rst = muxhttp::SerializeMuxFrame(
        stream.id, muxhttp::MuxFrameType::kRst, 0,
        muxhttp::MakeRstPayload(muxhttp::MuxRstCode::kCancelled,
                                "deadline expired"));
    (void)connection_->Send({&rst, 1});
    counters->mux_streams_reset.fetch_add(1);
    return Status::Timeout("mux response deadline exceeded on stream " +
                           std::to_string(stream.id));
  }
  // Either no budget, or the reader claimed the stream before Cancel
  // could: its one outcome is already set or about to be.
  Result<http::HttpResponse> response = stream.response.get();
  if (!response.ok()) counters->mux_streams_reset.fetch_add(1);
  return response;
}

// ----------------------------------------------------------- MuxTransport

MuxTransport::~MuxTransport() { Clear(); }

void MuxTransport::Clear() {
  std::unordered_map<std::string, Bucket> buckets;
  {
    MutexLock lock(mu_);
    buckets.swap(buckets_);
  }
  for (auto& [key, bucket] : buckets) {
    for (std::shared_ptr<MuxConnection>& conn : bucket.connections) {
      conn->Shutdown(Status::Cancelled("mux transport cleared"));
    }
  }
  cv_.NotifyAll();
}

size_t MuxTransport::ConnectionCount(const std::string& host_key) const {
  MutexLock lock(mu_);
  auto it = buckets_.find(host_key);
  if (it == buckets_.end()) return 0;
  size_t alive = 0;
  for (const std::shared_ptr<MuxConnection>& conn : it->second.connections) {
    if (conn->alive()) ++alive;
  }
  return alive;
}

size_t MuxTransport::TotalConnections() const {
  MutexLock lock(mu_);
  size_t alive = 0;
  for (const auto& [key, bucket] : buckets_) {
    for (const std::shared_ptr<MuxConnection>& conn : bucket.connections) {
      if (conn->alive()) ++alive;
    }
  }
  return alive;
}

Result<http::HttpResponse> MuxTransport::Execute(
    const Uri& url, const http::HttpRequest& request, bool head_request,
    const RequestParams& params) {
  const std::string key = url.HostPortKey();
  const size_t max_connections = params.mux_max_connections_per_host > 0
                                     ? params.mux_max_connections_per_host
                                     : kDefaultMaxConnectionsPerHost;
  const size_t max_streams = params.mux_max_streams_per_connection > 0
                                 ? params.mux_max_streams_per_connection
                                 : kDefaultMaxStreamsPerConnection;

  while (true) {
    std::shared_ptr<MuxConnection> conn;
    MuxConnection::Stream stream;
    bool should_connect = false;
    {
      MutexLock lock(mu_);
      Bucket& bucket = buckets_[key];
      std::vector<std::shared_ptr<MuxConnection>>& conns =
          bucket.connections;
      for (size_t i = 0; i < conns.size();) {
        if (!conns[i]->alive()) {
          counters_->mux_connections_lost.fetch_add(1);
          conns.erase(conns.begin() + static_cast<ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
      std::shared_ptr<MuxConnection> best;
      for (const std::shared_ptr<MuxConnection>& candidate : conns) {
        if (candidate->active_streams() >= max_streams) continue;
        if (best == nullptr ||
            candidate->active_streams() < best->active_streams()) {
          best = candidate;
        }
      }
      if (best != nullptr) {
        stream = best->TryBeginStream(max_streams, head_request);
        if (stream.id != 0) conn = best;
      }
      if (conn == nullptr) {
        // Each dial in flight brings max_streams slots, its dialer's
        // included. A burst fills them before it dials again, so k first
        // requests open ceil(k / max_streams) connections.
        const bool await_dial =
            bucket.dial_claims < bucket.connecting * max_streams;
        if (!await_dial &&
            conns.size() + bucket.connecting < max_connections) {
          ++bucket.connecting;
          ++bucket.dial_claims;
          should_connect = true;
        } else {
          // Wait for a dial in flight to land, or, with every connection
          // saturated and the host at its connection budget, for a slot:
          // the bounded-connection trade-off §2.2 weighs against pooled
          // HTTP/1.1. Only the latter is backpressure.
          if (params.deadline.Expired()) {
            return Status::Timeout(
                std::string("deadline exceeded waiting for a mux ") +
                (await_dial ? "connection" : "stream slot") + " to " + key);
          }
          const uint64_t dials_seen = bucket.dials_done;
          if (await_dial) {
            ++bucket.dial_claims;
          } else {
            counters_->mux_backpressure_waits.fetch_add(1);
          }
          int64_t wait = std::min(kWaitPollMicros,
                                  params.deadline.armed()
                                      ? params.deadline.RemainingMicros()
                                      : kWaitPollMicros);
          (void)cv_.WaitFor(
              mu_, std::max<int64_t>(wait, 1'000),
              [this, &key, await_dial, dials_seen, max_connections,
               max_streams]() REQUIRES(mu_) {
                auto it = buckets_.find(key);
                if (it == buckets_.end()) return true;
                const Bucket& b = it->second;
                if (await_dial) return b.dials_done != dials_seen;
                if (b.connections.size() + b.connecting < max_connections) {
                  return true;
                }
                for (const std::shared_ptr<MuxConnection>& c :
                     b.connections) {
                  if (!c->alive() || c->active_streams() < max_streams) {
                    return true;
                  }
                }
                return false;
              });
          if (await_dial) {
            auto it = buckets_.find(key);
            if (it != buckets_.end() && it->second.dial_claims > 0) {
              --it->second.dial_claims;
            }
          }
          continue;
        }
      }
    }

    if (should_connect) {
      Result<std::shared_ptr<MuxConnection>> attempt =
          MuxConnection::Connect(url, params);
      MutexLock lock(mu_);
      Bucket& bucket = buckets_[key];
      if (bucket.connecting > 0) --bucket.connecting;
      if (bucket.dial_claims > 0) --bucket.dial_claims;
      // Landed or failed, the dial wakes its waiters: they take its
      // slots, or dial again.
      ++bucket.dials_done;
      cv_.NotifyAll();
      if (!attempt.ok()) return attempt.status();
      conn = *attempt;
      bucket.connections.push_back(conn);
      counters_->mux_connections_opened.fetch_add(1);
      stream = conn->TryBeginStream(max_streams, head_request);
      if (stream.id == 0) continue;  // raced to saturation; go around
    }

    counters_->mux_streams_opened.fetch_add(1);
    Result<http::HttpResponse> result = conn->FinishExchange(
        std::move(stream), request, params, counters_.get());
    // A completed exchange frees a stream slot: wake backpressure
    // waiters.
    cv_.NotifyAll();
    return result;
  }
}

}  // namespace core
}  // namespace davix
