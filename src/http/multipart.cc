#include "http/multipart.h"

#include "common/string_util.h"

namespace davix {
namespace http {
namespace {

constexpr std::string_view kCrlf = "\r\n";

bool AnyPartContains(const std::vector<BytesPart>& parts,
                     std::string_view needle) {
  for (const BytesPart& part : parts) {
    if (part.data.find(needle) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

std::string GenerateBoundary(const std::vector<BytesPart>& parts,
                             uint64_t salt) {
  // Candidates look like "davixpartA0001"; regenerate on (rare) collision
  // with part payloads.
  for (uint64_t attempt = 0;; ++attempt) {
    std::string candidate =
        "davixpart" + std::to_string((salt * 1000003 + attempt) & 0xFFFFFF);
    if (!AnyPartContains(parts, candidate)) return candidate;
  }
}

std::string BuildMultipartBody(const std::vector<BytesPart>& parts,
                               std::string_view boundary) {
  std::string out;
  size_t payload = 0;
  for (const BytesPart& part : parts) payload += part.data.size() + 128;
  out.reserve(payload);
  for (const BytesPart& part : parts) {
    out += "--";
    out += boundary;
    out += kCrlf;
    out += "Content-Type: application/octet-stream";
    out += kCrlf;
    out += "Content-Range: ";
    out += FormatContentRange(part.range, part.total_size);
    out += kCrlf;
    out += kCrlf;
    out += part.data;
    out += kCrlf;
  }
  out += "--";
  out += boundary;
  out += "--";
  out += kCrlf;
  return out;
}

Result<std::string> ExtractBoundary(std::string_view content_type) {
  for (const std::string& param : SplitAndTrim(content_type, ';')) {
    std::string_view p = param;
    size_t eq = p.find('=');
    if (eq == std::string_view::npos) continue;
    std::string_view key = TrimWhitespace(p.substr(0, eq));
    if (!EqualsIgnoreCase(key, "boundary")) continue;
    std::string_view val = TrimWhitespace(p.substr(eq + 1));
    if (val.size() >= 2 && val.front() == '"' && val.back() == '"') {
      val = val.substr(1, val.size() - 2);
    }
    if (val.empty()) {
      return Status::ProtocolError("empty multipart boundary");
    }
    return std::string(val);
  }
  return Status::ProtocolError("no boundary in content-type: " +
                               std::string(content_type));
}

Result<std::vector<BytesPartView>> ParseMultipartViews(
    std::string_view body, std::string_view boundary) {
  std::vector<BytesPartView> parts;
  const std::string delimiter = "--" + std::string(boundary);

  // Skip any preamble up to the first delimiter.
  size_t pos = body.find(delimiter);
  if (pos == std::string_view::npos) {
    return Status::ProtocolError("multipart body missing first boundary");
  }
  pos += delimiter.size();

  while (true) {
    // After a delimiter: "--" means final; otherwise expect CRLF.
    if (body.substr(pos, 2) == "--") {
      return parts;  // closing delimiter
    }
    if (body.substr(pos, 2) != kCrlf) {
      return Status::ProtocolError("malformed boundary line in multipart");
    }
    pos += 2;

    // Part headers until blank line.
    BytesPartView part;
    bool have_content_range = false;
    while (true) {
      size_t eol = body.find(kCrlf, pos);
      if (eol == std::string_view::npos) {
        return Status::ProtocolError("truncated multipart part headers");
      }
      std::string_view line = body.substr(pos, eol - pos);
      pos = eol + 2;
      if (line.empty()) break;
      size_t colon = line.find(':');
      if (colon == std::string_view::npos) {
        return Status::ProtocolError("malformed part header: " +
                                     std::string(line));
      }
      std::string_view name = TrimWhitespace(line.substr(0, colon));
      std::string_view value = TrimWhitespace(line.substr(colon + 1));
      if (EqualsIgnoreCase(name, "Content-Range")) {
        DAVIX_ASSIGN_OR_RETURN(ContentRange cr, ParseContentRange(value));
        part.range = cr.range;
        part.total_size = cr.total_size;
        have_content_range = true;
      }
    }
    if (!have_content_range) {
      return Status::ProtocolError("multipart part without Content-Range");
    }

    // Body: exactly range.length bytes, then CRLF + next delimiter. The
    // part keeps a view into `body` — no payload copy. Compared without
    // `pos + length`, which a huge declared range could wrap.
    if (part.range.length > body.size() - pos) {
      return Status::ProtocolError("truncated multipart part body");
    }
    part.data = body.substr(pos, part.range.length);
    pos += part.range.length;
    if (body.substr(pos, 2) != kCrlf) {
      return Status::ProtocolError("part body not followed by CRLF");
    }
    pos += 2;
    if (body.compare(pos, delimiter.size(), delimiter) != 0) {
      return Status::ProtocolError("part not followed by boundary");
    }
    pos += delimiter.size();
    parts.push_back(part);
  }
}

Result<std::vector<BytesPart>> ParseMultipartBody(std::string_view body,
                                                  std::string_view boundary) {
  DAVIX_ASSIGN_OR_RETURN(std::vector<BytesPartView> views,
                         ParseMultipartViews(body, boundary));
  std::vector<BytesPart> parts;
  parts.reserve(views.size());
  for (const BytesPartView& view : views) {
    BytesPart part;
    part.range = view.range;
    part.total_size = view.total_size;
    part.data = std::string(view.data);
    parts.push_back(std::move(part));
  }
  return parts;
}

}  // namespace http
}  // namespace davix
