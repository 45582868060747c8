#include "muxhttp/mux.h"

#include <vector>

#include "common/clock.h"

namespace davix {
namespace muxhttp {

MuxServer::MuxServer(MuxServerConfig config,
                     std::shared_ptr<httpd::Router> router)
    : config_(std::move(config)), router_(std::move(router)) {}

Result<std::unique_ptr<MuxServer>> MuxServer::Start(
    MuxServerConfig config, std::shared_ptr<httpd::Router> router) {
  std::unique_ptr<MuxServer> server(
      new MuxServer(std::move(config), std::move(router)));
  if (server->config_.max_streams_per_connection == 0) {
    server->config_.max_streams_per_connection = 128;
  }
  if (server->config_.data_chunk_bytes == 0) {
    server->config_.data_chunk_bytes = kMuxDataChunkBytes;
  }
  DAVIX_ASSIGN_OR_RETURN(
      server->core_,
      net::FrameServer::Start<std::atomic<int64_t>>(
          server->config_.port, server->config_.link,
          server->config_.idle_timeout_micros,
          [s = server.get()](net::FrameConnection& conn,
                             std::atomic<int64_t>& active_exchanges) {
            s->Serve(conn, active_exchanges);
          }));
  return server;
}

std::string MuxServer::BaseUrl() const {
  return "http://127.0.0.1:" + std::to_string(port());
}

void MuxServer::Serve(net::FrameConnection& conn,
                      std::atomic<int64_t>& active_exchanges) {
  stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  MuxStreamAssembler assembler(MuxStreamAssembler::Mode::kRequest);
  while (true) {
    Result<MuxFrame> frame = ReadMuxFrame(conn.reader());
    if (!frame.ok()) return;
    int64_t request_bytes =
        static_cast<int64_t>(kMuxFrameHeaderSize + frame->payload.size());

    // A client RST is a cancel: record it so workers already streaming
    // the response stop at the next frame boundary, and let the
    // assembler drop any half-received request state.
    if (frame->type == MuxFrameType::kRst) {
      Result<MuxRstInfo> rst = ParseMuxRstPayload(frame->payload);
      if (rst.ok() && rst->code == MuxRstCode::kCancelled) {
        conn.Cancel(frame->stream_id);
        stats_.streams_cancelled.fetch_add(1, std::memory_order_relaxed);
      }
      (void)assembler.OnFrame(std::move(*frame));
      continue;
    }

    Result<std::optional<MuxStreamAssembler::Event>> event =
        assembler.OnFrame(std::move(*frame));
    if (!event.ok()) return;  // framing sync lost: drop the connection
    if (!event->has_value()) continue;
    MuxStreamAssembler::Event& ev = **event;
    if (ev.stream_error.has_value()) {
      stats_.streams_reset.fetch_add(1, std::memory_order_relaxed);
      conn.Write(SerializeMuxFrame(
          ev.stream_id, MuxFrameType::kRst, 0,
          MakeRstPayload(MuxRstCode::kProtocolError,
                         ev.stream_error->message())));
      continue;
    }
    if (!ev.request.has_value()) continue;

    if (active_exchanges.load(std::memory_order_relaxed) >=
        static_cast<int64_t>(config_.max_streams_per_connection)) {
      stats_.streams_refused.fetch_add(1, std::memory_order_relaxed);
      conn.Write(SerializeMuxFrame(
          ev.stream_id, MuxFrameType::kRst, 0,
          MakeRstPayload(MuxRstCode::kRefusedStream, "stream limit reached")));
      continue;
    }
    stats_.requests_handled.fetch_add(1, std::memory_order_relaxed);
    active_exchanges.fetch_add(1, std::memory_order_relaxed);
    if (!conn.Submit([this, &conn, &active_exchanges,
                      stream_id = ev.stream_id,
                      request = std::move(*ev.request),
                      request_bytes]() mutable {
          Answer(conn, stream_id, std::move(request), request_bytes);
          active_exchanges.fetch_sub(1, std::memory_order_relaxed);
        })) {
      return;
    }
  }
}

void MuxServer::Answer(net::FrameConnection& conn, uint32_t stream_id,
                       http::HttpRequest request, int64_t request_bytes) {
  netsim::FaultRule fault;
  if (config_.faults != nullptr) {
    std::string path = request.target.substr(0, request.target.find('?'));
    fault = config_.faults->Decide(path);
  }
  http::HttpResponse response;
  switch (fault.action) {
    case netsim::FaultAction::kStall:
      SleepForMicros(fault.stall_micros);
      [[fallthrough]];
    case netsim::FaultAction::kRefuseConnection:
      conn.Drop();
      return;
    case netsim::FaultAction::kServerError:
    case netsim::FaultAction::kRetryAfter:
      response.status_code = 503;
      response.body = "injected fault\n";
      if (fault.action == netsim::FaultAction::kRetryAfter) {
        response.headers.Set("Retry-After",
                             std::to_string(fault.retry_after_seconds));
      }
      break;
    default:
      router_->Dispatch(request, &response);
      break;
  }
  response.headers.Set("Server", "davix-muxhttp/2.0");
  std::vector<MuxFrame> message =
      FrameMessage(stream_id, response.SerializeHead(response.body.size()),
                   response.body, config_.data_chunk_bytes);
  std::vector<std::string> frames;
  for (MuxFrame& frame : message) {
    frames.push_back(SerializeMuxFrame(frame));
    std::string().swap(frame.payload);  // one copy of the body at a time
  }
  // A truncated body is the head plus half the DATA frames, then the
  // connection dies: the client sees a reset mid-body, never a short
  // "complete" response.
  bool truncate = fault.action == netsim::FaultAction::kTruncateBody;
  conn.Send(stream_id, frames, request_bytes, 0,
            truncate ? 1 + (frames.size() - 1) / 2 : SIZE_MAX);
  if (truncate) conn.Drop();
}

}  // namespace muxhttp
}  // namespace davix
