#include "http/range.h"

#include <algorithm>
#include <limits>

#include "common/string_util.h"

namespace davix {
namespace http {

std::string FormatRangeHeader(const std::vector<ByteRange>& ranges) {
  std::string out = "bytes=";
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(ranges[i].offset);
    out += '-';
    out += std::to_string(ranges[i].end_inclusive());
  }
  return out;
}

Result<std::vector<ByteRange>> ParseRangeHeader(std::string_view value,
                                                uint64_t resource_size) {
  std::string_view v = TrimWhitespace(value);
  if (!StartsWith(v, "bytes=")) {
    return Status::InvalidArgument("unsupported range unit: " +
                                   std::string(value));
  }
  v.remove_prefix(6);
  std::vector<ByteRange> out;
  for (const std::string& spec : SplitAndTrim(v, ',')) {
    size_t dash = spec.find('-');
    if (dash == std::string::npos) {
      return Status::InvalidArgument("range spec missing '-': " + spec);
    }
    std::string_view first = TrimWhitespace(std::string_view(spec).substr(0, dash));
    std::string_view last = TrimWhitespace(std::string_view(spec).substr(dash + 1));
    if (first.empty()) {
      // Suffix form "-n": the final n bytes.
      std::optional<uint64_t> n = ParseUint64(last);
      if (!n) return Status::InvalidArgument("bad suffix range: " + spec);
      if (*n == 0 || resource_size == 0) continue;  // unsatisfiable spec
      uint64_t len = std::min(*n, resource_size);
      out.push_back(ByteRange{resource_size - len, len});
      continue;
    }
    std::optional<uint64_t> start = ParseUint64(first);
    if (!start) return Status::InvalidArgument("bad range start: " + spec);
    if (*start >= resource_size) continue;  // beyond EOF: unsatisfiable
    uint64_t end;
    if (last.empty()) {
      end = resource_size - 1;  // "a-": to end of resource
    } else {
      std::optional<uint64_t> e = ParseUint64(last);
      if (!e) return Status::InvalidArgument("bad range end: " + spec);
      if (*e < *start) {
        return Status::InvalidArgument("range end before start: " + spec);
      }
      end = std::min(*e, resource_size - 1);
    }
    out.push_back(ByteRange{*start, end - *start + 1});
  }
  if (out.empty()) {
    return Status::RangeNotSatisfiable("no satisfiable range in: " +
                                       std::string(value));
  }
  return out;
}

std::string FormatContentRange(const ByteRange& range, uint64_t total_size) {
  return "bytes " + std::to_string(range.offset) + "-" +
         std::to_string(range.end_inclusive()) + "/" +
         std::to_string(total_size);
}

Result<ContentRange> ParseContentRange(std::string_view value) {
  std::string_view v = TrimWhitespace(value);
  if (!StartsWith(v, "bytes ")) {
    return Status::InvalidArgument("unsupported content-range unit: " +
                                   std::string(value));
  }
  v.remove_prefix(6);
  size_t slash = v.find('/');
  if (slash == std::string_view::npos) {
    return Status::InvalidArgument("content-range missing '/': " +
                                   std::string(value));
  }
  std::string_view range_part = v.substr(0, slash);
  std::string_view total_part = v.substr(slash + 1);

  size_t dash = range_part.find('-');
  if (dash == std::string_view::npos) {
    return Status::InvalidArgument("content-range missing '-': " +
                                   std::string(value));
  }
  std::optional<uint64_t> start = ParseUint64(range_part.substr(0, dash));
  std::optional<uint64_t> end = ParseUint64(range_part.substr(dash + 1));
  // A last-byte-pos of 2^64-1 would make the length wrap to 0.
  if (!start || !end || *end < *start ||
      *end == std::numeric_limits<uint64_t>::max()) {
    return Status::InvalidArgument("bad content-range bounds: " +
                                   std::string(value));
  }
  ContentRange out;
  out.range = ByteRange{*start, *end - *start + 1};
  if (total_part != "*") {
    std::optional<uint64_t> total = ParseUint64(total_part);
    if (!total) {
      return Status::InvalidArgument("bad content-range total: " +
                                     std::string(value));
    }
    // RFC 9110 §14.4: a last-byte-pos at or past the complete length
    // is invalid, not a hint that the object grew.
    if (*end >= *total) {
      return Status::InvalidArgument("content-range ends past its total: " +
                                     std::string(value));
    }
    out.total_size = *total;
  }
  return out;
}

}  // namespace http
}  // namespace davix
