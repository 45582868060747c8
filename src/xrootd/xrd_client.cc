#include "xrootd/xrd_client.h"

#include <optional>
#include <utility>

namespace davix {
namespace xrootd {

namespace {

using Demux = net::DemuxConnection<Frame>;

/// The mapping from response status to Status: an error frame resolves
/// its stream with the matching error.
Result<Frame> Checked(Frame frame) {
  switch (static_cast<RespStatus>(frame.header.opcode)) {
    case RespStatus::kOk:
      return frame;
    case RespStatus::kNotFound:
      return Status::NotFound(frame.payload);
    case RespStatus::kBadRequest:
      return Status::InvalidArgument(frame.payload);
    default:
      return Status::RemoteError(frame.payload);
  }
}

/// The connection's ReadFn: every response frame completes its stream.
Result<std::optional<Demux::Delivery>> ReadResponse(
    net::BufferedReader* reader) {
  Result<Frame> frame = ReadFrame(reader);
  if (!frame.ok()) return frame.status().WithContext("xrd connection lost");
  uint32_t stream_id = frame->header.stream_id;
  return std::optional<Demux::Delivery>(
      Demux::Delivery{stream_id, Checked(std::move(*frame))});
}

Result<std::string> PayloadOf(Frame frame) { return std::move(frame.payload); }

Result<OpenInfo> OpenInfoOf(Frame frame) {
  if (frame.payload.size() != 8) {
    return Status::ProtocolError("bad open response payload");
  }
  OpenInfo info;
  info.handle = static_cast<uint32_t>(frame.header.arg);
  info.size = ReadU64(frame.payload.data());
  return info;
}

Result<uint64_t> SizeOf(Frame frame) {
  if (frame.payload.size() != 8) {
    return Status::ProtocolError("bad stat response payload");
  }
  return ReadU64(frame.payload.data());
}

}  // namespace

Result<std::unique_ptr<XrdClient>> XrdClient::Connect(const std::string& host,
                                                      uint16_t port,
                                                      XrdClientConfig config) {
  DAVIX_ASSIGN_OR_RETURN(
      net::TcpSocket socket,
      net::DialNoDelay(host, port, config.connect_timeout_micros));
  std::unique_ptr<XrdClient> client(new XrdClient());
  client->connection_ = std::make_unique<Demux>(
      std::move(socket), config.operation_timeout_micros, UINT16_MAX,
      ReadResponse);
  return client;
}

template <typename T>
std::future<Result<T>> XrdClient::Submit(Opcode opcode, uint64_t arg,
                                         std::string payload,
                                         Result<T> (*decode)(Frame frame)) {
  auto promise = std::make_shared<std::promise<Result<T>>>();
  std::future<Result<T>> future = promise->get_future();
  uint32_t stream_id =
      connection_->Begin([promise, decode](Result<Frame> frame) {
        promise->set_value(frame.ok() ? decode(std::move(*frame))
                                      : Result<T>(frame.status()));
      });
  if (stream_id == 0) {
    promise->set_value(Status::ConnectionReset("xrd client not connected"));
    return future;
  }
  FrameHeader header;
  header.stream_id = static_cast<uint16_t>(stream_id);
  header.opcode = static_cast<uint16_t>(opcode);
  header.arg = arg;
  std::string wire = SerializeFrame(header, payload);
  // Counted before the write, so a response can never overtake its
  // count. A failed send resolves the future through the connection.
  requests_sent_.fetch_add(1, std::memory_order_relaxed);
  if (!connection_->Send({&wire, 1}).ok()) {
    requests_sent_.fetch_sub(1, std::memory_order_relaxed);
  }
  return future;
}

Status XrdClient::Login() {
  return Submit(Opcode::kLogin, 0, "", PayloadOf).get().status();
}

Result<OpenInfo> XrdClient::Open(const std::string& path) {
  Result<OpenInfo> info = Submit(Opcode::kOpen, 0, path, OpenInfoOf).get();
  DAVIX_RETURN_IF_ERROR(info.status().WithContext("open " + path));
  return info;
}

Result<uint64_t> XrdClient::StatSize(const std::string& path) {
  Result<uint64_t> size = Submit(Opcode::kStat, 0, path, SizeOf).get();
  DAVIX_RETURN_IF_ERROR(size.status().WithContext("stat " + path));
  return size;
}

Status XrdClient::Close(uint32_t handle) {
  std::string payload;
  AppendU32(&payload, handle);
  return Submit(Opcode::kClose, 0, std::move(payload), PayloadOf)
      .get()
      .status();
}

Result<std::string> XrdClient::Read(uint32_t handle, uint64_t offset,
                                    uint32_t length) {
  return ReadAsync(handle, offset, length).get();
}

std::future<Result<std::string>> XrdClient::ReadAsync(uint32_t handle,
                                                      uint64_t offset,
                                                      uint32_t length) {
  return Submit(Opcode::kRead, offset, EncodeReadPayload(handle, length),
                PayloadOf);
}

Result<std::vector<std::string>> XrdClient::ReadVector(
    uint32_t handle, const std::vector<http::ByteRange>& ranges) {
  Result<std::string> raw = ReadVectorRawAsync(handle, ranges).get();
  DAVIX_RETURN_IF_ERROR(raw.status());
  return DecodeReadVectorResponse(*raw, ranges.size());
}

std::future<Result<std::string>> XrdClient::ReadVectorRawAsync(
    uint32_t handle, const std::vector<http::ByteRange>& ranges) {
  return Submit(Opcode::kReadVector, 0,
                EncodeReadVectorPayload(handle, ranges), PayloadOf);
}

Result<std::vector<std::string>> DecodeReadVectorResponse(
    std::string_view payload, size_t range_count) {
  std::vector<std::string> out;
  out.reserve(range_count);
  size_t pos = 0;
  for (size_t i = 0; i < range_count; ++i) {
    if (pos + 4 > payload.size()) {
      return Status::ProtocolError("truncated readv response");
    }
    uint32_t len = ReadU32(payload.data() + pos);
    pos += 4;
    if (pos + len > payload.size()) {
      return Status::ProtocolError("readv response overruns payload");
    }
    out.emplace_back(payload.substr(pos, len));
    pos += len;
  }
  if (pos != payload.size()) {
    return Status::ProtocolError("readv response has trailing bytes");
  }
  return out;
}

}  // namespace xrootd
}  // namespace davix
