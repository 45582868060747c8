#include "xrootd/xrd_server.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "common/mutex.h"

namespace davix {
namespace xrootd {

/// One connection's open-file table, shared by its workers.
///
/// Thread-safe: yes — `mu` guards the table and the handle counter.
struct XrdServer::OpenFiles {
  Mutex mu;
  std::unordered_map<uint32_t, std::shared_ptr<const httpd::StoredObject>>
      by_handle GUARDED_BY(mu);
  uint32_t next_handle GUARDED_BY(mu) = 1;

  std::shared_ptr<const httpd::StoredObject> Find(uint32_t handle) {
    MutexLock lock(mu);
    auto it = by_handle.find(handle);
    return it == by_handle.end() ? nullptr : it->second;
  }
};

/// One request's response frame, before shaping.
struct XrdServer::Reply {
  RespStatus status = RespStatus::kOk;
  uint64_t arg = 0;
  std::string payload;
  /// Latency on top of the link's plan (the login handshake's).
  int64_t extra_latency_micros = 0;
};

XrdServer::XrdServer(XrdServerConfig config,
                     std::shared_ptr<httpd::ObjectStore> store)
    : config_(std::move(config)),
      store_(std::move(store)),
      faults_(config_.fault_seed) {}

Result<std::unique_ptr<XrdServer>> XrdServer::Start(
    XrdServerConfig config, std::shared_ptr<httpd::ObjectStore> store) {
  std::unique_ptr<XrdServer> server(
      new XrdServer(std::move(config), std::move(store)));
  DAVIX_ASSIGN_OR_RETURN(
      server->core_,
      net::FrameServer::Start<OpenFiles>(
          server->config_.port, server->config_.link,
          server->config_.idle_timeout_micros,
          [s = server.get()](net::FrameConnection& conn, OpenFiles& files) {
            s->Serve(conn, files);
          }));
  DAVIX_LOG(kInfo) << "xrd server listening on port " << server->port();
  return server;
}

std::string XrdServer::BaseUrl() const {
  return "root://127.0.0.1:" + std::to_string(port());
}

void XrdServer::Serve(net::FrameConnection& conn, OpenFiles& files) {
  stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  while (true) {
    Result<Frame> frame = ReadFrame(conn.reader());
    if (!frame.ok()) return;
    if (faults_.server_down()) return;
    stats_.requests_handled.fetch_add(1, std::memory_order_relaxed);
    if (!conn.Submit([this, &conn, &files, frame = std::move(*frame)] {
          Reply reply = Answer(files, frame);
          FrameHeader header;
          header.stream_id = frame.header.stream_id;
          header.opcode = static_cast<uint16_t>(reply.status);
          header.arg = reply.arg;
          std::string wire = SerializeFrame(header, reply.payload);
          conn.Send(header.stream_id, {&wire, 1},
                    static_cast<int64_t>(kFrameHeaderSize +
                                         frame.payload.size()),
                    reply.extra_latency_micros);
          stats_.bytes_served.fetch_add(wire.size(),
                                        std::memory_order_relaxed);
        })) {
      return;
    }
  }
}

XrdServer::Reply XrdServer::Answer(OpenFiles& files, const Frame& frame) {
  switch (static_cast<Opcode>(frame.header.opcode)) {
    case Opcode::kLogin:
      // The login/auth handshake costs extra round trips; that is the
      // connection-setup weight HPC protocols carry (§3: HTTP is
      // marginally faster on LAN).
      return {RespStatus::kOk, 0, "",
              config_.login_rtts * config_.link.rtt_micros};
    case Opcode::kOpen: {
      netsim::FaultRule fault = faults_.Decide(frame.payload);
      if (fault.action != netsim::FaultAction::kNone) {
        return {RespStatus::kError, 0, "injected fault"};
      }
      Result<std::shared_ptr<const httpd::StoredObject>> object =
          store_->Get(frame.payload);
      if (!object.ok()) {
        return {RespStatus::kNotFound, 0, object.status().ToString()};
      }
      uint32_t handle;
      {
        MutexLock lock(files.mu);
        handle = files.next_handle++;
        files.by_handle[handle] = *object;
      }
      std::string payload;
      AppendU64(&payload, (*object)->data.size());
      return {RespStatus::kOk, handle, std::move(payload)};
    }
    case Opcode::kStat: {
      Result<httpd::ObjectMeta> meta = store_->Stat(frame.payload);
      if (!meta.ok()) {
        return {RespStatus::kNotFound, 0, meta.status().ToString()};
      }
      std::string payload;
      AppendU64(&payload, meta->size);
      return {RespStatus::kOk, 0, std::move(payload)};
    }
    case Opcode::kRead: {
      Result<std::pair<uint32_t, uint32_t>> decoded =
          DecodeReadPayload(frame.payload);
      if (!decoded.ok()) {
        return {RespStatus::kBadRequest, 0, decoded.status().ToString()};
      }
      auto [handle, length] = *decoded;
      uint64_t offset = frame.header.arg;
      std::shared_ptr<const httpd::StoredObject> object = files.Find(handle);
      if (object == nullptr) return {RespStatus::kBadRequest, 0, "bad handle"};
      stats_.read_requests.fetch_add(1, std::memory_order_relaxed);
      std::string data;
      if (offset < object->data.size()) {
        data = object->data.substr(
            offset, std::min<uint64_t>(length, object->data.size() - offset));
      }
      return {RespStatus::kOk, offset, std::move(data)};
    }
    case Opcode::kReadVector: {
      auto decoded = DecodeReadVectorPayload(frame.payload);
      if (!decoded.ok()) {
        return {RespStatus::kBadRequest, 0, decoded.status().ToString()};
      }
      auto& [handle, ranges] = *decoded;
      std::shared_ptr<const httpd::StoredObject> object = files.Find(handle);
      if (object == nullptr) return {RespStatus::kBadRequest, 0, "bad handle"};
      stats_.readv_requests.fetch_add(1, std::memory_order_relaxed);
      stats_.ranges_served.fetch_add(ranges.size(), std::memory_order_relaxed);
      // Response: per range, u32 actual length then the bytes
      // (ranges past EOF come back shorter, like preadv).
      std::string payload;
      for (const http::ByteRange& r : ranges) {
        uint64_t avail =
            r.offset < object->data.size()
                ? std::min<uint64_t>(r.length, object->data.size() - r.offset)
                : 0;
        AppendU32(&payload, static_cast<uint32_t>(avail));
        payload.append(object->data, r.offset, avail);
      }
      return {RespStatus::kOk, 0, std::move(payload)};
    }
    case Opcode::kClose:
      if (frame.payload.size() == 4) {
        uint32_t handle = ReadU32(frame.payload.data());
        MutexLock lock(files.mu);
        files.by_handle.erase(handle);
      }
      return {RespStatus::kOk, 0, ""};
  }
  return {RespStatus::kBadRequest, 0, "unknown opcode"};
}

}  // namespace xrootd
}  // namespace davix
