#ifndef DAVIX_HTTP_RANGE_H_
#define DAVIX_HTTP_RANGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace davix {
namespace http {

/// A byte range of a remote resource: `length` bytes starting at `offset`.
/// Lengths are always concrete (> 0) inside this library; the open-ended
/// wire forms ("500-", "-200") are resolved against the resource size at
/// parse time.
struct ByteRange {
  uint64_t offset = 0;
  uint64_t length = 0;

  uint64_t end_inclusive() const { return offset + length - 1; }

  friend bool operator==(const ByteRange& a, const ByteRange& b) {
    return a.offset == b.offset && a.length == b.length;
  }
};

/// Formats a Range header value: "bytes=0-99,200-249". The multi-range
/// form is the §2.3 mechanism davix uses for vectored reads.
std::string FormatRangeHeader(const std::vector<ByteRange>& ranges);

/// Parses a Range header value against a resource of `resource_size`
/// bytes. Supports "a-b", "a-" and suffix "-n" specs, clamps overlong
/// ranges, and fails with kRangeNotSatisfiable when no spec yields at
/// least one byte.
Result<std::vector<ByteRange>> ParseRangeHeader(std::string_view value,
                                                uint64_t resource_size);

/// Formats a Content-Range value: "bytes 0-99/1234".
std::string FormatContentRange(const ByteRange& range, uint64_t total_size);

/// Parsed Content-Range data.
struct ContentRange {
  ByteRange range;
  /// Total resource size, or 0 when the server sent "/*".
  uint64_t total_size = 0;
};

/// Parses "bytes 0-99/1234" (and "bytes 0-99/*"). A range that ends at
/// or past its total ("bytes 0-99/50") is kInvalidArgument.
Result<ContentRange> ParseContentRange(std::string_view value);

}  // namespace http
}  // namespace davix

#endif  // DAVIX_HTTP_RANGE_H_
