#ifndef DAVIX_ROOT_TRANSPORT_ADAPTERS_H_
#define DAVIX_ROOT_TRANSPORT_ADAPTERS_H_

#include <memory>
#include <string>

#include "core/context.h"
#include "core/dav_file.h"
#include "core/request_params.h"
#include "root/random_access_file.h"
#include "xrootd/xrd_client.h"

namespace davix {
namespace root {

/// RandomAccessFile over davix (HTTP) — the TDavixFile role.
///
/// Vectored reads become §2.3 multi-range queries. SupportsAsyncVec() is
/// true: PReadVecAsync schedules the same parallel ReadPartialVec
/// dispatch on the Context's dispatcher pool, so the TreeCache can
/// overlap the next cluster's fetch with decompression and compute —
/// closing the Figure 4 WAN gap the paper's synchronous davix exposed.
class DavixRandomAccessFile : public RandomAccessFile {
 public:
  /// Opens the remote file with one ranged GET of its first
  /// kOpenHeadBytes (DavFile::Open), which gives its size. The file
  /// keeps those bytes: a PRead that falls inside them is served from
  /// memory, so TreeReader::Open costs no further request for a tree
  /// whose index fits the head. `context` must outlive the returned
  /// object.
  static Result<std::unique_ptr<DavixRandomAccessFile>> Open(
      core::Context* context, const std::string& url,
      core::RequestParams params = {});

  uint64_t Size() const override { return size_; }
  /// Served from the open's head bytes when [offset, offset + length)
  /// lies inside them; a single-range GET otherwise.
  Result<std::string> PRead(uint64_t offset, uint64_t length) override;
  Result<std::vector<std::string>> PReadVec(
      const std::vector<http::ByteRange>& ranges) override;
  bool SupportsAsyncVec() const override { return true; }
  std::unique_ptr<PendingVecRead> PReadVecAsync(
      const std::vector<http::ByteRange>& ranges) override;

 private:
  DavixRandomAccessFile(core::DavFile file, core::RequestParams params,
                        core::OpenedFile opened)
      : file_(std::move(file)),
        params_(std::move(params)),
        size_(opened.info.size),
        head_(std::move(opened.head)) {}

  core::DavFile file_;
  core::RequestParams params_;
  uint64_t size_;
  /// The file's first bytes as the open fetched them; read-only.
  std::string head_;
};

/// RandomAccessFile over the xrootd-like protocol — the TXNetFile role.
///
/// Vectored reads are single kReadVector frames; SupportsAsyncVec() is
/// true, enabling the TreeCache's overlapped (sliding-window) prefetch.
class XrdRandomAccessFile : public RandomAccessFile {
 public:
  /// Opens `path` on an already-logged-in client. `client` must outlive
  /// the returned object, which closes the handle on destruction.
  static Result<std::unique_ptr<XrdRandomAccessFile>> Open(
      xrootd::XrdClient* client, const std::string& path);

  ~XrdRandomAccessFile() override;

  uint64_t Size() const override { return size_; }
  Result<std::string> PRead(uint64_t offset, uint64_t length) override;
  Result<std::vector<std::string>> PReadVec(
      const std::vector<http::ByteRange>& ranges) override;
  bool SupportsAsyncVec() const override { return true; }
  std::unique_ptr<PendingVecRead> PReadVecAsync(
      const std::vector<http::ByteRange>& ranges) override;

 private:
  XrdRandomAccessFile(xrootd::XrdClient* client, uint32_t handle,
                      uint64_t size)
      : client_(client), handle_(handle), size_(size) {}

  xrootd::XrdClient* client_;
  uint32_t handle_;
  uint64_t size_;
};

}  // namespace root
}  // namespace davix

#endif  // DAVIX_ROOT_TRANSPORT_ADAPTERS_H_
