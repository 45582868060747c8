// The demultiplexing client connection under both multiplexed clients
// (net/demux_connection.h), driven over a socket pair with a toy
// protocol: a request or response is `u32 stream id | u32 length |
// payload`, little-endian. The peer end is scripted by each test.
#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "net/demux_connection.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace davix {
namespace net {
namespace {

using Demux = DemuxConnection<std::string>;

std::string EncodeMessage(uint32_t stream_id, const std::string& payload) {
  std::string wire;
  for (uint32_t value : {stream_id, static_cast<uint32_t>(payload.size())}) {
    for (int shift = 0; shift < 32; shift += 8) {
      wire.push_back(static_cast<char>((value >> shift) & 0xFF));
    }
  }
  return wire + payload;
}

uint32_t DecodeU32(const std::string& bytes, size_t at) {
  uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) | static_cast<uint8_t>(bytes[at + i]);
  }
  return value;
}

/// Reads one `id | length | payload` message off `reader`.
Result<std::pair<uint32_t, std::string>> ReadMessage(BufferedReader* reader) {
  std::string head;
  DAVIX_RETURN_IF_ERROR(reader->ReadExact(&head, 8));
  std::string payload;
  DAVIX_RETURN_IF_ERROR(reader->ReadExact(&payload, DecodeU32(head, 4)));
  return std::make_pair(DecodeU32(head, 0), std::move(payload));
}

Result<std::optional<Demux::Delivery>> ReadDelivery(BufferedReader* reader) {
  DAVIX_ASSIGN_OR_RETURN(auto message, ReadMessage(reader));
  return std::optional<Demux::Delivery>(
      Demux::Delivery{message.first, std::move(message.second)});
}

class DemuxConnectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::SocketPair pair = testing::MakeSocketPair();
    peer_ = std::move(pair.server);
    peer_reader_ = std::make_unique<BufferedReader>(&peer_, 2'000'000);
    client_socket_ = std::move(pair.client);
  }

  std::unique_ptr<Demux> Open(uint32_t max_stream_id = UINT32_MAX) {
    return std::make_unique<Demux>(std::move(client_socket_), 0,
                                   max_stream_id, ReadDelivery);
  }

  /// Registers a completion that resolves the returned future.
  static std::pair<uint32_t, std::future<Result<std::string>>> Begin(
      Demux* demux) {
    auto promise = std::make_shared<std::promise<Result<std::string>>>();
    std::future<Result<std::string>> future = promise->get_future();
    uint32_t id = demux->Begin([promise](Result<std::string> message) {
      promise->set_value(std::move(message));
    });
    return {id, std::move(future)};
  }

  TcpSocket peer_;
  std::unique_ptr<BufferedReader> peer_reader_;
  TcpSocket client_socket_;
};

TEST_F(DemuxConnectionTest, DeliversOutOfOrderByStreamId) {
  auto demux = Open();
  std::vector<std::pair<uint32_t, std::future<Result<std::string>>>> calls;
  for (int i = 0; i < 3; ++i) {
    calls.push_back(Begin(demux.get()));
    std::string request = EncodeMessage(calls.back().first, "q");
    ASSERT_OK(demux->Send({&request, 1}));
  }
  std::vector<uint32_t> ids;
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(auto request, ReadMessage(peer_reader_.get()));
    ids.push_back(request.first);
  }
  // Answer in reverse order; each caller still gets its own response.
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    ASSERT_OK(peer_.WriteAll(
        EncodeMessage(*it, "answer-" + std::to_string(*it))));
  }
  for (auto& [id, future] : calls) {
    ASSERT_OK_AND_ASSIGN(std::string answer, future.get());
    EXPECT_EQ(answer, "answer-" + std::to_string(id));
  }
  EXPECT_EQ(demux->in_flight(), 0u);
}

TEST_F(DemuxConnectionTest, StreamIdsSkipExchangesInFlightAndWrap) {
  auto demux = Open(/*max_stream_id=*/3);
  auto first = Begin(demux.get());
  auto second = Begin(demux.get());
  auto third = Begin(demux.get());
  EXPECT_EQ(first.first, 1u);
  EXPECT_EQ(second.first, 2u);
  EXPECT_EQ(third.first, 3u);
  // Every id is in flight: no fourth exchange fits.
  EXPECT_EQ(Begin(demux.get()).first, 0u);
  // Freeing id 2 makes it the next one, past 1 (still in flight).
  EXPECT_TRUE(demux->Cancel(2));
  EXPECT_EQ(Begin(demux.get()).first, 2u);
  // A caller's own slot bound refuses before the id space runs out.
  EXPECT_TRUE(demux->Cancel(3));
  EXPECT_EQ(demux->Begin([](Result<std::string>) {}, 2), 0u);
}

TEST_F(DemuxConnectionTest, CancelRacingDeliveryEndsEachExchangeOnce) {
  auto demux = Open();
  constexpr int kExchanges = 200;
  std::atomic<int> delivered{0};
  int cancelled = 0;
  for (int i = 0; i < kExchanges; ++i) {
    uint32_t id =
        demux->Begin([&delivered](Result<std::string>) { delivered++; });
    ASSERT_NE(id, 0u);
    // The response is already on its way while the caller cancels.
    ASSERT_OK(peer_.WriteAll(EncodeMessage(id, "x")));
    if (i % 2 == 1) SleepForMicros(50);
    if (demux->Cancel(id)) cancelled++;
  }
  // Cancel lost only to a delivery, which runs exactly once.
  for (int i = 0; i < 200 && delivered.load() + cancelled < kExchanges; ++i) {
    SleepForMicros(5'000);
  }
  SleepForMicros(20'000);  // room for a second outcome, which must not come
  EXPECT_EQ(delivered.load() + cancelled, kExchanges);
  EXPECT_TRUE(demux->alive());
}

TEST_F(DemuxConnectionTest, DestructionResolvesEveryExchangeWithCancelled) {
  auto demux = Open();
  std::vector<std::future<Result<std::string>>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(Begin(demux.get()).second);
  demux.reset();
  for (auto& future : futures) {
    Result<std::string> result = future.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
}

TEST_F(DemuxConnectionTest, ReadErrorFailsExchangesAndRefusesNewOnes) {
  auto demux = Open();
  auto call = Begin(demux.get());
  peer_.Close();
  Result<std::string> result = call.second.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kConnectionReset)
      << result.status().ToString();
  EXPECT_FALSE(demux->alive());
  EXPECT_EQ(Begin(demux.get()).first, 0u);
  std::string request = EncodeMessage(1, "late");
  EXPECT_FALSE(demux->Send({&request, 1}).ok());
}

}  // namespace
}  // namespace net
}  // namespace davix
