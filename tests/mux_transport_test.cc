// Conformance battery of the framed mux transport (muxhttp/frame.h +
// core/mux_transport.h): wire-format golden vectors, the interleaved
// demux state machine, the stream-error vs connection-error split, and
// the client transport's backpressure / deadline / circuit-breaker
// behaviour through the HttpClient seam.
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "core/context.h"
#include "core/http_client.h"
#include "httpd/dav_handler.h"
#include "muxhttp/mux.h"
#include "net/byte_source.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace davix {
namespace muxhttp {
namespace {

// --- wire format -----------------------------------------------------------

TEST(MuxFrameTest, GoldenVectorLayout) {
  // u32 id LE | u8 type | u8 flags | u32 length LE | payload.
  std::string wire =
      SerializeMuxFrame(0x01020304, MuxFrameType::kData, kMuxFlagEndStream,
                        "hi");
  const unsigned char expected[] = {0x04, 0x03, 0x02, 0x01,  // stream id
                                    0x02,                    // DATA
                                    0x01,                    // END_STREAM
                                    0x02, 0x00, 0x00, 0x00,  // length
                                    'h',  'i'};
  ASSERT_EQ(wire.size(), sizeof(expected));
  EXPECT_EQ(wire, std::string(reinterpret_cast<const char*>(expected),
                              sizeof(expected)));
}

TEST(MuxFrameTest, RoundTripThroughStringSource) {
  std::string wire = SerializeMuxFrame(42, MuxFrameType::kHeaders, 0,
                                       "payload-bytes");
  net::StringSource source(wire);
  net::BufferedReader reader(&source);
  ASSERT_OK_AND_ASSIGN(MuxFrame frame, ReadMuxFrame(&reader));
  EXPECT_EQ(frame.stream_id, 42u);
  EXPECT_EQ(frame.type, MuxFrameType::kHeaders);
  EXPECT_FALSE(frame.end_stream());
  EXPECT_EQ(frame.payload, "payload-bytes");
}

TEST(MuxFrameTest, RejectsZeroStreamId) {
  std::string wire = SerializeMuxFrame(1, MuxFrameType::kData, 0, "x");
  wire[0] = wire[1] = wire[2] = wire[3] = 0;
  net::StringSource source(wire);
  net::BufferedReader reader(&source);
  Result<MuxFrame> result = ReadMuxFrame(&reader);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kProtocolError);
}

TEST(MuxFrameTest, RejectsUnknownTypeAndFlags) {
  std::string bad_type = SerializeMuxFrame(1, MuxFrameType::kData, 0, "");
  bad_type[4] = 9;
  net::StringSource source1(bad_type);
  net::BufferedReader reader1(&source1);
  EXPECT_EQ(ReadMuxFrame(&reader1).status().code(),
            StatusCode::kProtocolError);

  std::string bad_flags = SerializeMuxFrame(1, MuxFrameType::kData, 0, "");
  bad_flags[5] = 0x40;
  net::StringSource source2(bad_flags);
  net::BufferedReader reader2(&source2);
  EXPECT_EQ(ReadMuxFrame(&reader2).status().code(),
            StatusCode::kProtocolError);
}

TEST(MuxFrameTest, OversizedLengthFailsWithoutReadingPayload) {
  // A header declaring 4 GiB of payload, followed by NO payload bytes:
  // the decoder must reject on the declared length alone. Seeing
  // kProtocolError (not kConnectionReset-on-EOF) proves it never tried
  // to consume the phantom payload.
  std::string wire = SerializeMuxFrame(1, MuxFrameType::kData, 0, "");
  wire[6] = wire[7] = wire[8] = wire[9] = static_cast<char>(0xFF);
  net::StringSource source(wire);
  net::BufferedReader reader(&source);
  Result<MuxFrame> result = ReadMuxFrame(&reader);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kProtocolError);
}

TEST(MuxFrameTest, RstPayloadRoundTripAndStatusMapping) {
  ASSERT_OK_AND_ASSIGN(
      MuxRstInfo rst,
      ParseMuxRstPayload(MakeRstPayload(MuxRstCode::kRefusedStream, "busy")));
  EXPECT_EQ(rst.code, MuxRstCode::kRefusedStream);
  EXPECT_EQ(rst.message, "busy");

  EXPECT_EQ(RstToStatus({MuxRstCode::kRefusedStream, "x"}).code(),
            StatusCode::kConnectionFailed);  // retryable, like a fast-fail
  EXPECT_EQ(RstToStatus({MuxRstCode::kInternalError, "x"}).code(),
            StatusCode::kRemoteError);
  EXPECT_EQ(RstToStatus({MuxRstCode::kCancelled, "x"}).code(),
            StatusCode::kCancelled);
  EXPECT_EQ(RstToStatus({MuxRstCode::kProtocolError, "x"}).code(),
            StatusCode::kProtocolError);
  EXPECT_FALSE(ParseMuxRstPayload("").ok());
}

TEST(MuxFrameTest, FrameMessageChunksBodyAndFlagsLastFrame) {
  Rng rng(11);
  std::string body = rng.Bytes(150'000);
  std::vector<MuxFrame> frames = FrameMessage(7, "HEAD", body, 64 * 1024);
  ASSERT_EQ(frames.size(), 4u);  // HEADERS + ceil(150k / 64k) DATA
  EXPECT_EQ(frames[0].type, MuxFrameType::kHeaders);
  EXPECT_EQ(frames[0].payload, "HEAD");
  EXPECT_FALSE(frames[0].end_stream());
  std::string reassembled;
  for (size_t i = 1; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].type, MuxFrameType::kData);
    EXPECT_EQ(frames[i].stream_id, 7u);
    EXPECT_EQ(frames[i].end_stream(), i + 1 == frames.size());
    reassembled += frames[i].payload;
  }
  EXPECT_EQ(reassembled, body);

  std::vector<MuxFrame> headers_only = FrameMessage(9, "HEAD", "");
  ASSERT_EQ(headers_only.size(), 1u);
  EXPECT_TRUE(headers_only[0].end_stream());
}

// --- demux state machine ---------------------------------------------------

std::string ResponseHead(int code, size_t content_length) {
  http::HttpResponse response;
  response.status_code = code;
  return response.SerializeHead(content_length);
}

TEST(MuxAssemblerTest, InterleavedStreamsDeliverIndependently) {
  MuxStreamAssembler assembler(MuxStreamAssembler::Mode::kResponse);
  assembler.ExpectStream(1, false);
  assembler.ExpectStream(3, false);

  auto feed = [&](MuxFrame frame) {
    auto event = assembler.OnFrame(std::move(frame));
    EXPECT_TRUE(event.ok()) << event.status().ToString();
    return std::move(*event);
  };

  // Heads for both streams, then DATA interleaved; stream 1 finishes
  // while stream 3 is still mid-body.
  EXPECT_FALSE(feed({1, MuxFrameType::kHeaders, 0, ResponseHead(200, 6)})
                   .has_value());
  EXPECT_FALSE(feed({3, MuxFrameType::kHeaders, 0, ResponseHead(206, 8)})
                   .has_value());
  EXPECT_FALSE(feed({3, MuxFrameType::kData, 0, "part"}).has_value());
  auto one = feed({1, MuxFrameType::kData, kMuxFlagEndStream, "stream"});
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->stream_id, 1u);
  ASSERT_TRUE(one->response.has_value());
  EXPECT_EQ(one->response->status_code, 200);
  EXPECT_EQ(one->response->body, "stream");
  EXPECT_EQ(assembler.open_streams(), 1u);

  auto three = feed({3, MuxFrameType::kData, kMuxFlagEndStream, "ials"});
  ASSERT_TRUE(three.has_value());
  ASSERT_TRUE(three->response.has_value());
  EXPECT_EQ(three->response->status_code, 206);
  EXPECT_EQ(three->response->body, "partials");
  EXPECT_EQ(assembler.open_streams(), 0u);
}

TEST(MuxAssemblerTest, RstIsStreamErrorOtherStreamsSurvive) {
  MuxStreamAssembler assembler(MuxStreamAssembler::Mode::kResponse);
  assembler.ExpectStream(1, false);
  assembler.ExpectStream(3, false);

  ASSERT_OK_AND_ASSIGN(
      auto reset,
      assembler.OnFrame({1, MuxFrameType::kRst, 0,
                         MakeRstPayload(MuxRstCode::kInternalError, "boom")}));
  ASSERT_TRUE(reset.has_value());
  ASSERT_TRUE(reset->stream_error.has_value());
  EXPECT_EQ(reset->stream_error->code(), StatusCode::kRemoteError);

  // The sibling stream still completes normally.
  ASSERT_OK_AND_ASSIGN(auto head,
                       assembler.OnFrame({3, MuxFrameType::kHeaders,
                                          kMuxFlagEndStream,
                                          ResponseHead(204, 0)}));
  ASSERT_TRUE(head.has_value());
  ASSERT_TRUE(head->response.has_value());
  EXPECT_EQ(head->response->status_code, 204);
}

TEST(MuxAssemblerTest, BodyLengthMismatchIsStreamError) {
  MuxStreamAssembler assembler(MuxStreamAssembler::Mode::kResponse);
  assembler.ExpectStream(1, false);
  ASSERT_OK(assembler.OnFrame({1, MuxFrameType::kHeaders, 0,
                               ResponseHead(200, 100)})
                .status());
  ASSERT_OK_AND_ASSIGN(
      auto event,
      assembler.OnFrame({1, MuxFrameType::kData, kMuxFlagEndStream, "few"}));
  ASSERT_TRUE(event.has_value());
  ASSERT_TRUE(event->stream_error.has_value());
  EXPECT_EQ(event->stream_error->code(), StatusCode::kProtocolError);
}

TEST(MuxAssemblerTest, HeadOnlyStreamToleratesDeclaredLength) {
  // A HEAD response declares the entity's Content-Length but sends no
  // body — legal only for streams registered head_only.
  MuxStreamAssembler assembler(MuxStreamAssembler::Mode::kResponse);
  assembler.ExpectStream(1, true);
  ASSERT_OK_AND_ASSIGN(auto event,
                       assembler.OnFrame({1, MuxFrameType::kHeaders,
                                          kMuxFlagEndStream,
                                          ResponseHead(200, 4096)}));
  ASSERT_TRUE(event.has_value());
  ASSERT_TRUE(event->response.has_value());
  EXPECT_TRUE(event->response->body.empty());
}

TEST(MuxAssemblerTest, ConnectionFatalViolations) {
  // DATA for a stream never opened: framing sync is suspect, the whole
  // connection must die.
  {
    MuxStreamAssembler assembler(MuxStreamAssembler::Mode::kResponse);
    auto result = assembler.OnFrame({5, MuxFrameType::kData, 0, "x"});
    EXPECT_FALSE(result.ok());
  }
  // Duplicate HEADERS on one stream.
  {
    MuxStreamAssembler assembler(MuxStreamAssembler::Mode::kResponse);
    assembler.ExpectStream(1, false);
    ASSERT_OK(assembler.OnFrame({1, MuxFrameType::kHeaders, 0,
                                 ResponseHead(200, 10)})
                  .status());
    EXPECT_FALSE(assembler.OnFrame({1, MuxFrameType::kHeaders, 0,
                                    ResponseHead(200, 10)})
                     .ok());
  }
  // HEADERS for a stream the client never registered.
  {
    MuxStreamAssembler assembler(MuxStreamAssembler::Mode::kResponse);
    EXPECT_FALSE(assembler.OnFrame({8, MuxFrameType::kHeaders, 0,
                                    ResponseHead(200, 0)})
                     .ok());
  }
}

TEST(MuxAssemblerTest, ForgottenStreamLateFramesAreDropped) {
  MuxStreamAssembler assembler(MuxStreamAssembler::Mode::kResponse);
  assembler.ExpectStream(1, false);
  ASSERT_OK(assembler.OnFrame({1, MuxFrameType::kHeaders, 0,
                               ResponseHead(200, 10)})
                .status());
  assembler.Forget(1);
  EXPECT_EQ(assembler.open_streams(), 0u);
  // Late DATA (and even a late HEADERS) for the forgotten id are
  // silently absorbed instead of killing the connection.
  ASSERT_OK_AND_ASSIGN(
      auto late,
      assembler.OnFrame({1, MuxFrameType::kData, kMuxFlagEndStream, "zz"}));
  EXPECT_FALSE(late.has_value());
}

// --- transport behaviour against a live server -----------------------------

class MuxTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_shared<httpd::ObjectStore>();
    Rng rng(21);
    content_ = rng.Bytes(128 * 1024);
    store_->Put("/obj", content_);
    auto handler = std::make_shared<httpd::DavHandler>(store_);
    router_ = std::make_shared<httpd::Router>();
    handler->Register(router_.get(), "/");
    auto server = MuxServer::Start({}, router_);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
    context_ = std::make_unique<core::Context>();
    params_.transport = core::TransportKind::kMux;
    params_.metalink_mode = core::MetalinkMode::kDisabled;
  }

  Uri UrlFor(const std::string& path) {
    return *Uri::Parse(server_->BaseUrl() + path);
  }

  std::shared_ptr<httpd::ObjectStore> store_;
  std::string content_;
  std::shared_ptr<httpd::Router> router_;
  std::unique_ptr<MuxServer> server_;
  std::unique_ptr<core::Context> context_;
  core::RequestParams params_;
};

TEST_F(MuxTransportTest, StreamLimitBackpressureBlocksUntilSlotFrees) {
  // One connection, one stream slot: a second concurrent exchange must
  // wait for the first to finish instead of opening another socket.
  router_->Handle(http::Method::kGet, "/slow",
                  [](const http::HttpRequest&, http::HttpResponse* response) {
                    SleepForMicros(150'000);
                    response->status_code = 200;
                    response->body = "slow";
                  });
  core::RequestParams params = params_;
  params.mux_max_connections_per_host = 1;
  params.mux_max_streams_per_connection = 1;
  core::HttpClient client(context_.get());

  std::thread slow_thread([&] {
    auto slow = client.Execute(UrlFor("/slow"), http::Method::kGet, params);
    EXPECT_TRUE(slow.ok()) << slow.status().ToString();
  });
  SleepForMicros(40'000);  // let /slow claim the only slot

  Stopwatch stopwatch;
  auto fast = client.Execute(UrlFor("/obj"), http::Method::kGet, params);
  slow_thread.join();
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_EQ(fast->response.body, content_);
  // It had to wait for the slot, and never opened a second connection.
  EXPECT_GT(stopwatch.ElapsedMicros(), 50'000);
  IoCounters counters = context_->SnapshotCounters();
  EXPECT_GE(counters.mux_backpressure_waits, 1u);
  EXPECT_EQ(counters.mux_connections_opened, 1u);
  EXPECT_EQ(server_->stats().connections_accepted.load(), 1u);
}

TEST_F(MuxTransportTest, DeadlineExpiryMidStreamCancelsAndKeepsConnection) {
  router_->Handle(http::Method::kGet, "/wedge",
                  [](const http::HttpRequest&, http::HttpResponse* response) {
                    SleepForMicros(400'000);
                    response->status_code = 200;
                    response->body = "late";
                  });
  core::RequestParams params = params_;
  params.total_timeout_micros = 80'000;
  params.max_retries = 0;
  core::HttpClient client(context_.get());

  Stopwatch stopwatch;
  auto result = client.Execute(UrlFor("/wedge"), http::Method::kGet, params);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_LT(stopwatch.ElapsedMicros(), 350'000);

  // The expiry killed the stream, not the connection: the next exchange
  // reuses it (no second connect) and completes fine.
  auto after = client.Execute(UrlFor("/obj"), http::Method::kGet, params_);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->response.body, content_);
  IoCounters counters = context_->SnapshotCounters();
  EXPECT_EQ(counters.mux_connections_opened, 1u);
  EXPECT_GE(counters.mux_streams_reset, 1u);
  // The wire-level cancel reaches the server once its handler returns.
  for (int i = 0; i < 100 && server_->stats().streams_cancelled.load() == 0;
       ++i) {
    SleepForMicros(10'000);
  }
  EXPECT_GE(server_->stats().streams_cancelled.load(), 1u);
}

TEST_F(MuxTransportTest, ClearFailsExchangesInFlight) {
  router_->Handle(http::Method::kGet, "/sleepy",
                  [](const http::HttpRequest&, http::HttpResponse* response) {
                    SleepForMicros(300'000);
                    response->status_code = 200;
                    response->body = "late";
                  });
  core::RequestParams params = params_;
  params.max_retries = 0;
  core::HttpClient client(context_.get());
  core::MuxTransport& transport = context_->mux_transport();

  constexpr int kCalls = 4;
  std::vector<Status> outcomes(kCalls);
  std::vector<std::thread> threads;
  for (int i = 0; i < kCalls; ++i) {
    threads.emplace_back([&, i] {
      outcomes[i] =
          client.Execute(UrlFor("/sleepy"), http::Method::kGet, params)
              .status();
    });
  }
  // Every call is waiting on its stream before the transport clears.
  for (int i = 0; i < 200 && transport.stats().streams_opened.load() < kCalls;
       ++i) {
    SleepForMicros(5'000);
  }
  ASSERT_EQ(transport.stats().streams_opened.load(),
            static_cast<uint64_t>(kCalls));
  transport.Clear();
  for (std::thread& thread : threads) thread.join();

  for (const Status& status : outcomes) {
    EXPECT_TRUE(status.code() == StatusCode::kCancelled ||
                status.code() == StatusCode::kConnectionReset)
        << status.ToString();
  }
  EXPECT_EQ(transport.TotalConnections(), 0u);
}

TEST_F(MuxTransportTest, BreakerFastFailsThroughTheSeam) {
  // Aim the transport at a dead port: each connect failure counts
  // against the host's breaker, and once it opens, Execute fails fast
  // without touching the network.
  uint16_t dead_port = 0;
  {
    auto listener = net::TcpListener::Listen(0);
    ASSERT_TRUE(listener.ok());
    dead_port = listener->port();
  }  // listener closes here, leaving the port dead

  core::RequestParams params = params_;
  params.breaker_failure_threshold = 2;
  params.breaker_cooldown_micros = 60'000'000;
  params.connect_timeout_micros = 200'000;
  params.max_retries = 0;
  core::HttpClient client(context_.get());
  Uri dead = *Uri::Parse("http://127.0.0.1:" + std::to_string(dead_port) +
                         "/x");

  for (int i = 0; i < 2; ++i) {
    auto result = client.Execute(dead, http::Method::kGet, params);
    ASSERT_FALSE(result.ok());
  }
  auto fast_fail = client.Execute(dead, http::Method::kGet, params);
  ASSERT_FALSE(fast_fail.ok());
  EXPECT_NE(fast_fail.status().ToString().find("circuit breaker open"),
            std::string::npos)
      << fast_fail.status().ToString();
}

}  // namespace
}  // namespace muxhttp
}  // namespace davix
