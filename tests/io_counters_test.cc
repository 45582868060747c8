// The Context's one I/O counter table: the session pool, the breaker
// registry, the mux transport and the block cache all count into it,
// and ResetCounters zeroes every line of it while idle sessions and
// cached blocks stay.
#include <set>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "common/stats.h"
#include "core/context.h"
#include "core/dav_posix.h"
#include "core/http_client.h"
#include "muxhttp/mux.h"
#include "net/tcp_socket.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace davix {
namespace core {
namespace {

TEST(ContextCountersTest, ResetZeroesEveryCounter) {
  testing::TestStorageServer server = testing::StartStorageServer();
  std::string content = Rng(5).Bytes(64 * 1024);
  server.store->Put("/f.bin", content);
  auto mux = muxhttp::MuxServer::Start({}, server.router);
  ASSERT_TRUE(mux.ok()) << mux.status().ToString();

  BlockCacheConfig cache_config;
  cache_config.capacity_bytes = 1024 * 1024;
  cache_config.block_bytes = 8 * 1024;
  Context context(SessionPoolConfig{}, 0, cache_config);
  RequestParams params;
  params.metalink_mode = MetalinkMode::kDisabled;

  // Pooled requests: the first read fills the cache, the second hits it.
  DavPosix posix(&context);
  ASSERT_OK_AND_ASSIGN(int fd, posix.Open(server.UrlFor("/f.bin"), params));
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_OK_AND_ASSIGN(std::string all, posix.PRead(fd, 0, content.size()));
    EXPECT_EQ(all, content);
  }
  ASSERT_OK(posix.Close(fd));

  // A mux request.
  HttpClient client(&context);
  RequestParams mux_params = params;
  mux_params.transport = TransportKind::kMux;
  ASSERT_OK_AND_ASSIGN(
      auto got,
      client.Execute(*Uri::Parse((*mux)->BaseUrl() + "/f.bin"),
                     http::Method::kGet, mux_params));
  EXPECT_EQ(got.response.body, content);

  // A breaker that opens: one refused connect at threshold 1.
  uint16_t dead_port = 0;
  {
    auto listener = net::TcpListener::Listen(0);
    ASSERT_TRUE(listener.ok());
    dead_port = listener->port();
  }
  RequestParams dead_params = params;
  dead_params.breaker_failure_threshold = 1;
  dead_params.max_retries = 0;
  EXPECT_FALSE(client
                   .Execute(*Uri::Parse("http://127.0.0.1:" +
                                        std::to_string(dead_port) + "/x"),
                            http::Method::kGet, dead_params)
                   .ok());

  IoCounters before = context.SnapshotCounters();
  EXPECT_GT(before.requests, 0u);
  EXPECT_GT(before.connections_opened, 0u);
  EXPECT_GT(before.pool_acquire_misses, 0u);
  EXPECT_GT(before.pool_acquire_hits, 0u);
  EXPECT_EQ(before.mux_connections_opened, 1u);
  EXPECT_EQ(before.mux_streams_opened, 1u);
  EXPECT_GT(before.cache_insertions, 0u);
  EXPECT_GT(before.cache_hits, 0u);
  EXPECT_EQ(before.breaker_opens, 1u);

  // ToString is "name=value" for every field and nothing else.
  std::set<std::string> tokens;
  std::istringstream text(before.ToString());
  for (std::string token; text >> token;) tokens.insert(token);
  size_t fields = 0;
  before.ForEach([&](const char* name, uint64_t value) {
    ++fields;
    EXPECT_EQ(tokens.count(std::string(name) + "=" + std::to_string(value)),
              1u)
        << name;
  });
  EXPECT_EQ(tokens.size(), fields);

  const size_t idle = context.pool().IdleCount();
  const uint64_t resident =
      context.block_cache().Residency().resident_bytes;
  EXPECT_GT(idle, 0u);
  EXPECT_GT(resident, 0u);

  context.ResetCounters();
  context.SnapshotCounters().ForEach([](const char* name, uint64_t value) {
    EXPECT_EQ(value, 0u) << name;
  });
  // A reset is accounting only: the gauges stay.
  EXPECT_EQ(context.pool().IdleCount(), idle);
  EXPECT_EQ(context.block_cache().Residency().resident_bytes, resident);
}

}  // namespace
}  // namespace core
}  // namespace davix
