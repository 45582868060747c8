#include "root/transport_adapters.h"

#include <algorithm>

namespace davix {
namespace root {

Result<std::unique_ptr<DavixRandomAccessFile>> DavixRandomAccessFile::Open(
    core::Context* context, const std::string& url,
    core::RequestParams params) {
  DAVIX_ASSIGN_OR_RETURN(core::DavFile file,
                         core::DavFile::Make(context, url));
  DAVIX_ASSIGN_OR_RETURN(core::OpenedFile opened,
                         file.Open(kOpenHeadBytes, params));
  return std::unique_ptr<DavixRandomAccessFile>(new DavixRandomAccessFile(
      std::move(file), std::move(params), std::move(opened)));
}

Result<std::string> DavixRandomAccessFile::PRead(uint64_t offset,
                                                 uint64_t length) {
  if (offset >= size_) return std::string();
  length = std::min(length, size_ - offset);
  if (offset + length <= head_.size()) return head_.substr(offset, length);
  return file_.ReadPartial(offset, length, params_);
}

Result<std::vector<std::string>> DavixRandomAccessFile::PReadVec(
    const std::vector<http::ByteRange>& ranges) {
  return file_.ReadPartialVec(ranges, params_);
}

namespace {

/// Async token wrapping a dispatcher-scheduled ReadPartialVec. The
/// owning DavixRandomAccessFile must stay alive until Wait() returns
/// (the TreeCache drains every pending token before teardown).
class DavixPendingVecRead : public PendingVecRead {
 public:
  explicit DavixPendingVecRead(
      std::future<Result<std::vector<std::string>>> future)
      : future_(std::move(future)) {}

  Result<std::vector<std::string>> Wait() override { return future_.get(); }

 private:
  std::future<Result<std::vector<std::string>>> future_;
};

}  // namespace

std::unique_ptr<PendingVecRead> DavixRandomAccessFile::PReadVecAsync(
    const std::vector<http::ByteRange>& ranges) {
  return std::make_unique<DavixPendingVecRead>(
      file_.ReadPartialVecAsync(ranges, params_));
}

Result<std::unique_ptr<XrdRandomAccessFile>> XrdRandomAccessFile::Open(
    xrootd::XrdClient* client, const std::string& path) {
  DAVIX_ASSIGN_OR_RETURN(xrootd::OpenInfo info, client->Open(path));
  return std::unique_ptr<XrdRandomAccessFile>(
      new XrdRandomAccessFile(client, info.handle, info.size));
}

XrdRandomAccessFile::~XrdRandomAccessFile() {
  if (client_->IsAlive()) (void)client_->Close(handle_);
}

Result<std::string> XrdRandomAccessFile::PRead(uint64_t offset,
                                               uint64_t length) {
  if (offset >= size_) return std::string();
  length = std::min(length, size_ - offset);
  return client_->Read(handle_, offset, static_cast<uint32_t>(length));
}

Result<std::vector<std::string>> XrdRandomAccessFile::PReadVec(
    const std::vector<http::ByteRange>& ranges) {
  return client_->ReadVector(handle_, ranges);
}

namespace {

/// Async token wrapping an in-flight kReadVector frame.
class XrdPendingVecRead : public PendingVecRead {
 public:
  XrdPendingVecRead(std::future<Result<std::string>> raw, size_t count)
      : raw_(std::move(raw)), count_(count) {}

  Result<std::vector<std::string>> Wait() override {
    Result<std::string> payload = raw_.get();
    DAVIX_RETURN_IF_ERROR(payload.status());
    return xrootd::DecodeReadVectorResponse(*payload, count_);
  }

 private:
  std::future<Result<std::string>> raw_;
  size_t count_;
};

}  // namespace

std::unique_ptr<PendingVecRead> XrdRandomAccessFile::PReadVecAsync(
    const std::vector<http::ByteRange>& ranges) {
  return std::make_unique<XrdPendingVecRead>(
      client_->ReadVectorRawAsync(handle_, ranges), ranges.size());
}

}  // namespace root
}  // namespace davix
