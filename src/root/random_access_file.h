#ifndef DAVIX_ROOT_RANDOM_ACCESS_FILE_H_
#define DAVIX_ROOT_RANDOM_ACCESS_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "http/range.h"

namespace davix {
namespace root {

/// Bytes of the file head a remote open fetches with its one request,
/// and the length of TreeReader::Open's first read, so that one read is
/// served from the open's bytes. Sized so the whole open response (head
/// plus ~300 bytes of HTTP header) fits one initial TCP congestion
/// window (RFC 6928's IW10, 14 600 bytes): a cold connection then
/// delivers it in one round trip, where 14 KiB would add a slow-start
/// round trip. 13 KiB covers the index of the Figure-4 tree (12 418
/// bytes).
inline constexpr uint64_t kOpenHeadBytes = 13 * 1024;

/// Completion token of an asynchronous vectored read.
class PendingVecRead {
 public:
  // Out-of-line key-function anchor; see ByteSource.
  virtual ~PendingVecRead();
  /// Blocks until the read completes; results[i] holds ranges[i]'s bytes.
  virtual Result<std::vector<std::string>> Wait() = 0;
};

/// Transport abstraction the analysis layer reads through — the role
/// ROOT's TFile plugin interface (TDavixFile, TXNetFile) plays in the
/// paper. Implementations exist for local buffers, davix (HTTP) and the
/// xrootd-like protocol.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// Total size in bytes.
  virtual uint64_t Size() const = 0;

  /// Reads `length` bytes at `offset` (short only at EOF).
  virtual Result<std::string> PRead(uint64_t offset, uint64_t length) = 0;

  /// Vectored read; the default loops over PRead (one round trip per
  /// range — what a naive HTTP client does). Real transports override
  /// this with their packed form (§2.3 multi-range / kReadVector).
  virtual Result<std::vector<std::string>> PReadVec(
      const std::vector<http::ByteRange>& ranges);

  /// Whether PReadVecAsync overlaps with the caller (true asynchrony).
  /// The paper's davix executed vector queries synchronously while
  /// XRootD's multiplexing made them overlappable — the WAN difference
  /// in Figure 4; here both remote adapters report true (the davix one
  /// schedules its parallel dispatch on the Context's dispatcher pool)
  /// and only transports with no async path keep the default false.
  virtual bool SupportsAsyncVec() const { return false; }

  /// Starts a vectored read. The default implementation performs the
  /// read synchronously and returns an already-completed token.
  virtual std::unique_ptr<PendingVecRead> PReadVecAsync(
      const std::vector<http::ByteRange>& ranges);
};

/// RandomAccessFile over an in-memory buffer: the "local file" baseline
/// and the reference for end-to-end equivalence tests.
class MemoryFile : public RandomAccessFile {
 public:
  explicit MemoryFile(std::string data) : data_(std::move(data)) {}

  uint64_t Size() const override { return data_.size(); }
  Result<std::string> PRead(uint64_t offset, uint64_t length) override;

  /// Reads performed (for I/O accounting in tests).
  uint64_t reads() const { return reads_; }

 private:
  std::string data_;
  uint64_t reads_ = 0;
};

}  // namespace root
}  // namespace davix

#endif  // DAVIX_ROOT_RANDOM_ACCESS_FILE_H_
