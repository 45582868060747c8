#include <thread>

#include "common/rng.h"
#include "http/header_map.h"
#include "http/message.h"
#include "http/multipart.h"
#include "http/parser.h"
#include "http/range.h"
#include "net/buffered_reader.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace davix {
namespace http {
namespace {

using ::davix::testing::MakeSocketPair;
using ::davix::testing::SocketPair;

// -------------------------------------------------------------- HeaderMap

TEST(HeaderMapTest, CaseInsensitiveGet) {
  HeaderMap headers;
  headers.Add("Content-Length", "42");
  EXPECT_EQ(headers.Get("content-length"), "42");
  EXPECT_EQ(headers.Get("CONTENT-LENGTH"), "42");
  EXPECT_FALSE(headers.Get("Content-Type").has_value());
}

TEST(HeaderMapTest, AddKeepsDuplicatesSetReplaces) {
  HeaderMap headers;
  headers.Add("Via", "a");
  headers.Add("Via", "b");
  EXPECT_EQ(headers.GetAll("via").size(), 2u);
  headers.Set("Via", "c");
  EXPECT_EQ(headers.GetAll("via"), std::vector<std::string>{"c"});
}

TEST(HeaderMapTest, GetUint64) {
  HeaderMap headers;
  headers.Add("Content-Length", " 1234 ");
  EXPECT_EQ(headers.GetUint64("Content-Length"), 1234u);
  headers.Set("Content-Length", "nan");
  EXPECT_FALSE(headers.GetUint64("Content-Length").has_value());
}

TEST(HeaderMapTest, ListContains) {
  HeaderMap headers;
  headers.Add("Connection", "Keep-Alive, TE");
  EXPECT_TRUE(headers.ListContains("connection", "keep-alive"));
  EXPECT_TRUE(headers.ListContains("connection", "te"));
  EXPECT_FALSE(headers.ListContains("connection", "close"));
}

TEST(HeaderMapTest, RemoveCountsRemoved) {
  HeaderMap headers;
  headers.Add("X", "1");
  headers.Add("x", "2");
  EXPECT_EQ(headers.Remove("X"), 2u);
  EXPECT_TRUE(headers.empty());
}

// ---------------------------------------------------------------- Message

TEST(MessageTest, MethodNamesRoundTrip) {
  for (Method m : {Method::kGet, Method::kHead, Method::kPut, Method::kDelete,
                   Method::kOptions, Method::kPost, Method::kMkcol,
                   Method::kPropfind, Method::kMove}) {
    ASSERT_OK_AND_ASSIGN(Method parsed,
                         ParseMethod(std::string(MethodName(m))));
    EXPECT_EQ(parsed, m);
  }
  EXPECT_FALSE(ParseMethod("BREW").ok());
}

TEST(MessageTest, RequestSerializeAddsContentLength) {
  HttpRequest request;
  request.method = Method::kPut;
  request.target = "/obj";
  request.body = "hello";
  std::string wire = request.Serialize();
  EXPECT_NE(wire.find("PUT /obj HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_TRUE(wire.ends_with("\r\n\r\nhello"));
}

TEST(MessageTest, ResponseKeepAliveSemantics) {
  HttpResponse response;
  EXPECT_TRUE(response.KeepsConnectionAlive());  // 1.1 default
  response.headers.Set("Connection", "close");
  EXPECT_FALSE(response.KeepsConnectionAlive());
  HttpResponse old;
  old.version = "HTTP/1.0";
  EXPECT_FALSE(old.KeepsConnectionAlive());
  old.headers.Set("Connection", "keep-alive");
  EXPECT_TRUE(old.KeepsConnectionAlive());
}

TEST(MessageTest, HttpDateRoundTrip) {
  int64_t epoch = 784111777;  // Sun, 06 Nov 1994 08:49:37 GMT
  std::string formatted = FormatHttpDate(epoch);
  EXPECT_EQ(formatted, "Sun, 06 Nov 1994 08:49:37 GMT");
  ASSERT_OK_AND_ASSIGN(int64_t parsed, ParseHttpDate(formatted));
  EXPECT_EQ(parsed, epoch);
  EXPECT_FALSE(ParseHttpDate("yesterday-ish").ok());
}

TEST(MessageTest, ReasonPhrases) {
  EXPECT_EQ(ReasonPhrase(200), "OK");
  EXPECT_EQ(ReasonPhrase(206), "Partial Content");
  EXPECT_EQ(ReasonPhrase(207), "Multi-Status");
  EXPECT_EQ(ReasonPhrase(416), "Range Not Satisfiable");
  EXPECT_EQ(ReasonPhrase(777), "Unknown");
}

// ------------------------------------------------------------------ Range

TEST(RangeTest, FormatSingleAndMulti) {
  EXPECT_EQ(FormatRangeHeader({{0, 100}}), "bytes=0-99");
  EXPECT_EQ(FormatRangeHeader({{0, 10}, {50, 25}}), "bytes=0-9,50-74");
}

TEST(RangeTest, ParseBasicForms) {
  ASSERT_OK_AND_ASSIGN(auto ranges, ParseRangeHeader("bytes=0-99", 1000));
  EXPECT_EQ(ranges, (std::vector<ByteRange>{{0, 100}}));

  ASSERT_OK_AND_ASSIGN(ranges, ParseRangeHeader("bytes=900-", 1000));
  EXPECT_EQ(ranges, (std::vector<ByteRange>{{900, 100}}));

  ASSERT_OK_AND_ASSIGN(ranges, ParseRangeHeader("bytes=-100", 1000));
  EXPECT_EQ(ranges, (std::vector<ByteRange>{{900, 100}}));

  ASSERT_OK_AND_ASSIGN(ranges,
                       ParseRangeHeader("bytes=0-9, 20-29 ,40-49", 1000));
  EXPECT_EQ(ranges.size(), 3u);
}

TEST(RangeTest, ClampsToResourceSize) {
  ASSERT_OK_AND_ASSIGN(auto ranges, ParseRangeHeader("bytes=990-2000", 1000));
  EXPECT_EQ(ranges, (std::vector<ByteRange>{{990, 10}}));
  ASSERT_OK_AND_ASSIGN(ranges, ParseRangeHeader("bytes=-5000", 1000));
  EXPECT_EQ(ranges, (std::vector<ByteRange>{{0, 1000}}));
}

TEST(RangeTest, UnsatisfiableAndMalformed) {
  EXPECT_EQ(ParseRangeHeader("bytes=1000-1100", 1000).status().code(),
            StatusCode::kRangeNotSatisfiable);
  EXPECT_EQ(ParseRangeHeader("bytes=-0", 1000).status().code(),
            StatusCode::kRangeNotSatisfiable);
  EXPECT_FALSE(ParseRangeHeader("items=0-5", 1000).ok());
  EXPECT_FALSE(ParseRangeHeader("bytes=5-2", 1000).ok());
  EXPECT_FALSE(ParseRangeHeader("bytes=a-b", 1000).ok());
}

TEST(RangeTest, ContentRangeRoundTrip) {
  ByteRange r{100, 50};
  std::string formatted = FormatContentRange(r, 1234);
  EXPECT_EQ(formatted, "bytes 100-149/1234");
  ASSERT_OK_AND_ASSIGN(ContentRange parsed, ParseContentRange(formatted));
  EXPECT_EQ(parsed.range, r);
  EXPECT_EQ(parsed.total_size, 1234u);
  ASSERT_OK_AND_ASSIGN(parsed, ParseContentRange("bytes 0-0/*"));
  EXPECT_EQ(parsed.total_size, 0u);
  EXPECT_FALSE(ParseContentRange("bytes x/y").ok());
  // RFC 9110 §14.4: last-byte-pos must be below the complete length.
  ASSERT_OK_AND_ASSIGN(parsed, ParseContentRange("bytes 0-99/100"));
  EXPECT_EQ(parsed.total_size, 100u);
  for (const char* bad : {"bytes 0-99/50", "bytes 0-99/99", "bytes 5-5/5",
                          "bytes 0-0/0", "bytes 0-18446744073709551615/*"}) {
    EXPECT_EQ(ParseContentRange(bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

// Property: parse(format(ranges)) == ranges for in-bounds ranges.
class RangeRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RangeRoundTripTest, FormatParseIdentity) {
  Rng rng(GetParam());
  uint64_t size = 1000 + rng.Below(100000);
  std::vector<ByteRange> ranges;
  size_t n = 1 + rng.Below(20);
  for (size_t i = 0; i < n; ++i) {
    uint64_t offset = rng.Below(size);
    uint64_t length = 1 + rng.Below(size - offset);
    ranges.push_back(ByteRange{offset, length});
  }
  ASSERT_OK_AND_ASSIGN(auto parsed,
                       ParseRangeHeader(FormatRangeHeader(ranges), size));
  EXPECT_EQ(parsed, ranges);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeRoundTripTest,
                         ::testing::Range<uint64_t>(1, 33));

// -------------------------------------------------------------- Multipart

TEST(MultipartTest, BoundaryExtraction) {
  ASSERT_OK_AND_ASSIGN(
      std::string boundary,
      ExtractBoundary("multipart/byteranges; boundary=abc123"));
  EXPECT_EQ(boundary, "abc123");
  ASSERT_OK_AND_ASSIGN(
      boundary, ExtractBoundary("multipart/byteranges; boundary=\"q q\""));
  EXPECT_EQ(boundary, "q q");
  EXPECT_FALSE(ExtractBoundary("multipart/byteranges").ok());
  EXPECT_FALSE(ExtractBoundary("multipart/byteranges; boundary=").ok());
}

TEST(MultipartTest, GeneratedBoundaryAvoidsPayload) {
  std::vector<BytesPart> parts(1);
  parts[0].range = {0, 30};
  parts[0].total_size = 100;
  parts[0].data = "davixpart" + std::to_string((7 * 1000003) & 0xFFFFFF);
  parts[0].data.resize(30, 'x');
  std::string boundary = GenerateBoundary(parts, 7);
  EXPECT_EQ(parts[0].data.find(boundary), std::string::npos);
}

TEST(MultipartTest, RejectsMalformedBodies) {
  EXPECT_FALSE(ParseMultipartBody("garbage", "b").ok());
  EXPECT_FALSE(ParseMultipartBody("--b\r\nno colon line\r\n\r\n", "b").ok());
  // Part without Content-Range.
  EXPECT_FALSE(
      ParseMultipartBody("--b\r\nContent-Type: text/plain\r\n\r\nxx\r\n--b--\r\n",
                         "b")
          .ok());
  // Truncated part body.
  EXPECT_FALSE(
      ParseMultipartBody(
          "--b\r\nContent-Range: bytes 0-9/100\r\n\r\nshort", "b")
          .ok());
  // A declared length that wraps `pos + length` back to the body's start
  // (2^64 - 56 bytes at offset 56 of a 56-byte body): rejected, not
  // re-read forever.
  EXPECT_FALSE(ParseMultipartBody(
                   "\r\n--B\r\nContent-Range: bytes "
                   "0-18446744073709551559/*\r\n\r\n",
                   "B")
                   .ok());
}

TEST(MultipartTest, EmptyPartsListYieldsClosingOnly) {
  std::string body = BuildMultipartBody({}, "b");
  ASSERT_OK_AND_ASSIGN(auto parts, ParseMultipartBody(body, "b"));
  EXPECT_TRUE(parts.empty());
}

TEST(MultipartTest, ViewsAliasTheBodyWithoutCopying) {
  // The zero-copy contract of ParseMultipartViews: every part's data is
  // a view INTO the body buffer, not a copy of it.
  std::vector<BytesPart> parts;
  Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    BytesPart part;
    part.range = {uint64_t(i) * 1000, 100};
    part.total_size = 10'000;
    part.data = rng.Bytes(100);
    parts.push_back(std::move(part));
  }
  std::string boundary = GenerateBoundary(parts, 5);
  std::string body = BuildMultipartBody(parts, boundary);

  ASSERT_OK_AND_ASSIGN(auto views, ParseMultipartViews(body, boundary));
  ASSERT_EQ(views.size(), parts.size());
  const char* begin = body.data();
  const char* end = body.data() + body.size();
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i].range, parts[i].range);
    EXPECT_EQ(views[i].total_size, parts[i].total_size);
    EXPECT_EQ(views[i].data, parts[i].data);
    // No per-part payload copy: the view points inside `body`.
    EXPECT_GE(views[i].data.data(), begin);
    EXPECT_LE(views[i].data.data() + views[i].data.size(), end);
  }
}

// Property: build→parse is identity, with binary payloads.
class MultipartRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultipartRoundTripTest, BuildParseIdentity) {
  Rng rng(GetParam());
  uint64_t total = 10'000;
  std::vector<BytesPart> parts;
  size_t n = 1 + rng.Below(8);
  for (size_t i = 0; i < n; ++i) {
    BytesPart part;
    part.range.offset = rng.Below(total - 100);
    part.range.length = 1 + rng.Below(99);
    part.total_size = total;
    part.data = rng.Bytes(part.range.length);  // arbitrary binary bytes
    parts.push_back(std::move(part));
  }
  std::string boundary = GenerateBoundary(parts, GetParam());
  std::string body = BuildMultipartBody(parts, boundary);
  ASSERT_OK_AND_ASSIGN(auto parsed, ParseMultipartBody(body, boundary));
  EXPECT_EQ(parsed, parts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultipartRoundTripTest,
                         ::testing::Range<uint64_t>(1, 33));

// ----------------------------------------------------------------- Parser

/// Writes `wire` into the server side of a socket pair and parses from
/// the client side (or vice versa).
class ParserTest : public ::testing::Test {
 protected:
  void FeedToClient(const std::string& wire) {
    pair_ = MakeSocketPair();
    ASSERT_OK(pair_.server.WriteAll(wire));
    pair_.server.ShutdownWrite();
    reader_ = std::make_unique<net::BufferedReader>(&pair_.client, 1'000'000);
  }

  SocketPair pair_;
  std::unique_ptr<net::BufferedReader> reader_;
};

TEST_F(ParserTest, ParsesRequestHeadAndBody) {
  FeedToClient(
      "PUT /x%20y?q=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody");
  ASSERT_OK_AND_ASSIGN(HttpRequest request,
                       MessageReader::ReadRequestHead(reader_.get()));
  EXPECT_EQ(request.method, Method::kPut);
  EXPECT_EQ(request.target, "/x%20y?q=1");
  EXPECT_EQ(request.headers.Get("host"), "h");
  ASSERT_OK(MessageReader::ReadRequestBody(reader_.get(), &request));
  EXPECT_EQ(request.body, "body");
}

TEST_F(ParserTest, ParsesResponseWithContentLength) {
  FeedToClient("HTTP/1.1 206 Partial Content\r\nContent-Length: 3\r\n\r\nabc");
  ASSERT_OK_AND_ASSIGN(HttpResponse response,
                       MessageReader::ReadResponseHead(reader_.get()));
  EXPECT_EQ(response.status_code, 206);
  EXPECT_EQ(response.reason, "Partial Content");
  ASSERT_OK(MessageReader::ReadResponseBody(reader_.get(), false, &response));
  EXPECT_EQ(response.body, "abc");
}

TEST_F(ParserTest, HeadResponseHasNoBody) {
  FeedToClient("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n");
  ASSERT_OK_AND_ASSIGN(HttpResponse response,
                       MessageReader::ReadResponseHead(reader_.get()));
  ASSERT_OK(MessageReader::ReadResponseBody(reader_.get(), true, &response));
  EXPECT_TRUE(response.body.empty());
}

TEST_F(ParserTest, NoContentStatusesHaveNoBody) {
  FeedToClient("HTTP/1.1 204 No Content\r\n\r\n");
  ASSERT_OK_AND_ASSIGN(HttpResponse response,
                       MessageReader::ReadResponseHead(reader_.get()));
  ASSERT_OK(MessageReader::ReadResponseBody(reader_.get(), false, &response));
  EXPECT_TRUE(response.body.empty());
}

TEST_F(ParserTest, ChunkedBodyDecoding) {
  FeedToClient(
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n");
  ASSERT_OK_AND_ASSIGN(HttpResponse response,
                       MessageReader::ReadResponseHead(reader_.get()));
  ASSERT_OK(MessageReader::ReadResponseBody(reader_.get(), false, &response));
  EXPECT_EQ(response.body, "Wikipedia");
}

TEST_F(ParserTest, ChunkedWithExtensionAndTrailer) {
  FeedToClient(
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "3;ext=1\r\nabc\r\n0\r\nX-Trailer: v\r\n\r\n");
  ASSERT_OK_AND_ASSIGN(HttpResponse response,
                       MessageReader::ReadResponseHead(reader_.get()));
  ASSERT_OK(MessageReader::ReadResponseBody(reader_.get(), false, &response));
  EXPECT_EQ(response.body, "abc");
}

TEST_F(ParserTest, BodyToEofWithoutFraming) {
  FeedToClient("HTTP/1.1 200 OK\r\n\r\nstream-until-close");
  ASSERT_OK_AND_ASSIGN(HttpResponse response,
                       MessageReader::ReadResponseHead(reader_.get()));
  ASSERT_OK(MessageReader::ReadResponseBody(reader_.get(), false, &response));
  EXPECT_EQ(response.body, "stream-until-close");
}

TEST_F(ParserTest, MalformedRequestLine) {
  FeedToClient("NOT_A_REQUEST\r\n\r\n");
  EXPECT_FALSE(MessageReader::ReadRequestHead(reader_.get()).ok());
}

TEST_F(ParserTest, UnsupportedVersionRejected) {
  FeedToClient("GET / HTTP/3.0\r\n\r\n");
  EXPECT_FALSE(MessageReader::ReadRequestHead(reader_.get()).ok());
}

TEST_F(ParserTest, IdleCloseIsDistinguishable) {
  pair_ = MakeSocketPair();
  pair_.server.Close();
  reader_ = std::make_unique<net::BufferedReader>(&pair_.client, 1'000'000);
  Result<HttpRequest> request = MessageReader::ReadRequestHead(reader_.get());
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kConnectionReset);
  EXPECT_EQ(request.status().message(), "idle close");
}

TEST_F(ParserTest, TruncatedBodyIsError) {
  FeedToClient("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc");
  ASSERT_OK_AND_ASSIGN(HttpResponse response,
                       MessageReader::ReadResponseHead(reader_.get()));
  EXPECT_FALSE(
      MessageReader::ReadResponseBody(reader_.get(), false, &response).ok());
}

TEST_F(ParserTest, BadChunkSizeIsError) {
  FeedToClient(
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n\r\n");
  ASSERT_OK_AND_ASSIGN(HttpResponse response,
                       MessageReader::ReadResponseHead(reader_.get()));
  EXPECT_FALSE(
      MessageReader::ReadResponseBody(reader_.get(), false, &response).ok());
}

TEST(ChunkedEncodeTest, RoundTripThroughParser) {
  Rng rng(3);
  std::string data = rng.Bytes(10'000);
  std::string encoded = ChunkedEncode(data, 777);
  // Feed through a socket and decode.
  SocketPair pair = MakeSocketPair();
  std::string wire =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + encoded;
  ASSERT_OK(pair.server.WriteAll(wire));
  pair.server.ShutdownWrite();
  net::BufferedReader reader(&pair.client, 1'000'000);
  ASSERT_OK_AND_ASSIGN(HttpResponse response,
                       MessageReader::ReadResponseHead(&reader));
  ASSERT_OK(MessageReader::ReadResponseBody(&reader, false, &response));
  EXPECT_EQ(response.body, data);
}

}  // namespace
}  // namespace http
}  // namespace davix
