// Concurrency stress suite: hammers the lock-guarded subsystems from
// many threads at once. These tests exist to give TSan races to find —
// run them under -DDAVIX_SANITIZE=thread (see docs/CONCURRENCY.md) —
// but they also assert functional invariants (no torn reads, correct
// bytes, clean shutdown) so they catch logic races in plain builds too.

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/block_cache.h"
#include "core/context.h"
#include "core/dav_file.h"
#include "core/dav_posix.h"
#include "core/http_client.h"
#include "core/read_ahead_stream.h"
#include "core/replica_set.h"
#include "fed/federation_handler.h"
#include "fed/replica_catalog.h"
#include "muxhttp/mux.h"
#include "test_util.h"
#include "xrootd/xrd_server.h"

#include "gtest/gtest.h"

namespace davix {
namespace core {
namespace {

using ::davix::testing::StartStorageServer;
using ::davix::testing::TestStorageServer;

// ------------------------------------------------------- BlockCache

/// Deterministic payload of block `b` of url `u`: verifiable from any
/// thread without shared state.
std::string BlockPayload(int u, int b, uint64_t block_bytes) {
  return std::string(block_bytes, static_cast<char>('A' + (u * 7 + b) % 26));
}

TEST(ConcurrencyStressTest, BlockCacheEvictionRacesFillsUnder16Threads) {
  constexpr uint64_t kBlock = 4096;
  constexpr int kUrls = 4;
  constexpr int kBlocksPerUrl = 32;
  BlockCacheConfig config;
  config.block_bytes = kBlock;
  // A quarter of the working set fits: fills continuously evict under
  // pressure.
  config.capacity_bytes = kUrls * kBlocksPerUrl * kBlock / 4;
  config.shards = 4;
  BlockCache cache(config);

  BlockValidator validator;
  validator.etag = "\"gen-1\"";
  auto key = [](int u) { return "http://node" + std::to_string(u) + ":80/f"; };

  constexpr int kThreads = 16;
  std::atomic<uint64_t> verified_hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int iter = 0; iter < 400; ++iter) {
        int u = static_cast<int>(rng.Below(kUrls));
        int b = static_cast<int>(rng.Below(kBlocksPerUrl));
        uint64_t offset = static_cast<uint64_t>(b) * kBlock;
        // Rare whole-URL purge racing everyone else's fills — rare so
        // residency still builds up enough for the LRU budget to evict.
        if (rng.Below(64) == 0) {
          cache.PurgeUrl(key(u));
          continue;
        }
        switch (rng.Below(8)) {
          case 0:
          case 1:
          case 2:
          case 3: {
            std::string out;
            if (cache.TryReadFull(key(u), offset, kBlock, &out)) {
              // A hit must never deliver torn or foreign bytes.
              ASSERT_EQ(out, BlockPayload(u, b, kBlock));
              verified_hits.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          default:
            cache.Insert(key(u), validator, offset,
                         BlockPayload(u, b, kBlock));
            break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  BlockCacheResidency stats = cache.Residency();
  EXPECT_LE(stats.resident_bytes, config.capacity_bytes);
  EXPECT_GT(cache.stats().cache_evictions, 0u);
  EXPECT_GT(verified_hits.load(), 0u);
}

// ------------------------------------------------------- ReplicaSet

TEST(ConcurrencyStressTest, ReplicaSetHealthMutationDuringStripedStream) {
  constexpr char kPath[] = "/stress/data.bin";
  Rng rng(42);
  std::string content = rng.Bytes(512 * 1024);
  std::vector<TestStorageServer> replicas;
  auto catalog = std::make_shared<fed::ReplicaCatalog>();
  for (int i = 0; i < 3; ++i) {
    replicas.push_back(StartStorageServer());
    replicas.back().store->Put(kPath, content);
    catalog->AddReplica(kPath, replicas.back().UrlFor(kPath), i + 1);
  }
  auto federation = std::make_shared<fed::FederationHandler>(catalog);
  auto fed_router = std::make_shared<httpd::Router>();
  federation->Register(fed_router.get(), "/");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<httpd::HttpServer> fed_server,
                       httpd::HttpServer::Start({}, fed_router));

  Context context;
  RequestParams params;
  params.metalink_resolver = fed_server->BaseUrl();
  params.max_retries = 0;
  params.multistream_chunk_bytes = 32 * 1024;
  params.multistream_max_streams = 3;
  ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<ReplicaSet> set,
      ReplicaSet::Resolve(&context,
                          *Uri::Parse(replicas[0].UrlFor(kPath)), params));

  // Background threads mutate source health and re-rank while the
  // stream is striping chunks across those same sources. Quarantined
  // sources stay in the candidate walk (healthy-first), so the stream
  // must still deliver every byte.
  std::atomic<bool> done{false};
  std::vector<std::thread> mutators;
  for (int t = 0; t < 4; ++t) {
    mutators.emplace_back([&, t] {
      Rng mutator_rng(7 + t);
      while (!done.load(std::memory_order_relaxed)) {
        auto ranked = set->RankedSources();
        for (auto& source : ranked) {
          if (mutator_rng.Below(2) == 0) {
            source->RecordFailure(1'000'000, 2, 50'000);
          } else {
            source->RecordSuccess(
                static_cast<int64_t>(mutator_rng.Below(5'000)) + 1);
          }
          (void)source->Quarantined(1'000'000);
          (void)source->latency_ewma_micros();
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }

  std::string assembled;
  uint64_t expected_offset = 0;
  Status status = set->Stream(0, content.size(), params,
                              [&](uint64_t offset, std::string_view data) {
                                EXPECT_EQ(offset, expected_offset);
                                expected_offset = offset + data.size();
                                assembled.append(data);
                                return Status::OK();
                              });
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : mutators) t.join();
  ASSERT_OK(status);
  EXPECT_EQ(assembled, content);
}

// --------------------------------------------------- ReadAheadStream

TEST(ConcurrencyStressTest, ReadAheadStreamCloseVsDeliveryHammering) {
  Rng rng(5);
  const std::string content = rng.Bytes(256 * 1024);
  ThreadPool pool(4);
  constexpr uint64_t kChunk = 8 * 1024;

  for (int iter = 0; iter < 60; ++iter) {
    auto fetch = [&content, iter](uint64_t offset,
                                  uint64_t length) -> Result<std::string> {
      // Spread completions so destruction regularly lands mid-fetch.
      std::this_thread::sleep_for(
          std::chrono::microseconds(100 + (iter * 37 + offset / 991) % 400));
      if (offset >= content.size()) return std::string();
      return content.substr(offset, length);
    };
    ReadAheadStreamConfig config;
    config.chunk_bytes = kChunk;
    config.window_chunks = 6;
    config.file_size = content.size();
    ReadAheadStream stream(fetch, &pool, config);

    // Consume a prefix — enough to fill the window with in-flight
    // fetches — then tear the stream down while they are on the wire.
    uint64_t position = 0;
    int reads = 1 + iter % 3;
    for (int r = 0; r < reads; ++r) {
      ASSERT_OK_AND_ASSIGN(std::string data, stream.Read(position, kChunk));
      ASSERT_EQ(data, content.substr(position, data.size()));
      position += data.size();
    }
    if (iter % 2 == 0) stream.Invalidate();
    // Destructor races the still-running deliveries.
  }
}

// ------------------------------------------- server Stop() regression

// Regression for a shutdown race: concurrent Stop() callers could both
// join() the accept thread (UB), and the loser could return while
// connection threads were still running. Stop() now serialises callers;
// each must return only after teardown completed.
TEST(ConcurrencyStressTest, HttpServerConcurrentStopIsSafe) {
  for (int iter = 0; iter < 8; ++iter) {
    TestStorageServer bundle = StartStorageServer();
    bundle.store->Put("/f", std::string(1024, 'x'));
    // Park a few live keep-alive connections for Stop() to unblock.
    std::vector<net::TcpSocket> clients;
    for (int i = 0; i < 4; ++i) {
      auto address =
          net::SocketAddress::Resolve("127.0.0.1", bundle.server->port());
      ASSERT_TRUE(address.ok());
      auto socket = net::TcpSocket::Connect(*address);
      ASSERT_TRUE(socket.ok());
      clients.push_back(std::move(*socket));
    }
    httpd::HttpServer* server = bundle.server.get();
    std::vector<std::thread> stoppers;
    for (int i = 0; i < 8; ++i) {
      stoppers.emplace_back([server] { server->Stop(); });
    }
    for (std::thread& t : stoppers) t.join();
    // Every Stop() returned => all connection threads are joined; the
    // destructor's Stop() must also be a clean no-op.
    bundle.server.reset();
  }
}

// The reactor rewrite moved teardown onto a drain path; hammer the whole
// start/park/stop cycle enough times that any latent join/wakeup race
// between the reactor thread, the worker pool and concurrent Stop()
// callers gets a chance to misfire (and for TSan to observe it).
TEST(ConcurrencyStressTest, HttpServerStopHammering) {
  for (int iter = 0; iter < 60; ++iter) {
    httpd::ServerConfig config;
    config.worker_threads = 2;
    TestStorageServer bundle = StartStorageServer(config);
    bundle.store->Put("/f", "x");
    // Half the iterations park a raw connection mid-handshake so drain
    // has a kReading connection to reap; the rest stop an idle server.
    std::optional<net::TcpSocket> parked;
    if (iter % 2 == 0) {
      auto address =
          net::SocketAddress::Resolve("127.0.0.1", bundle.server->port());
      ASSERT_TRUE(address.ok());
      auto socket = net::TcpSocket::Connect(*address);
      ASSERT_TRUE(socket.ok());
      (void)socket->WriteAll("GET /f HT");  // header forever incomplete
      parked.emplace(std::move(*socket));
    }
    httpd::HttpServer* server = bundle.server.get();
    std::vector<std::thread> stoppers;
    for (int i = 0; i < 4; ++i) {
      stoppers.emplace_back([server] { server->Stop(); });
    }
    for (std::thread& t : stoppers) t.join();
    bundle.server.reset();
  }
}

// Drain must win cleanly against a barrage of brand-new connections:
// whatever the accept queue holds when Stop() lands is either served or
// refused, never wedged, and Stop() still returns promptly.
TEST(ConcurrencyStressTest, HttpServerDrainRacesNewAccepts) {
  for (int iter = 0; iter < 6; ++iter) {
    TestStorageServer bundle = StartStorageServer();
    bundle.store->Put("/f", std::string(2048, 'y'));
    uint16_t port = bundle.server->port();

    std::atomic<bool> done{false};
    std::vector<std::thread> connectors;
    for (int t = 0; t < 4; ++t) {
      connectors.emplace_back([&, t] {
        while (!done.load(std::memory_order_relaxed)) {
          auto address = net::SocketAddress::Resolve("127.0.0.1", port);
          if (!address.ok()) break;
          auto socket = net::TcpSocket::Connect(*address);
          if (!socket.ok()) break;  // listener already closed: expected
          // Refused/reset mid-exchange is fine; a hang is not.
          (void)socket->WriteAll("GET /f HTTP/1.1\r\nHost: x\r\n\r\n");
          socket->ShutdownWrite();
          std::string response;
          net::BufferedReader reader(&*socket, 1'000'000);
          (void)reader.ReadToEof(&response);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10 + 5 * iter));
    bundle.server->Stop();
    done.store(true, std::memory_order_relaxed);
    for (std::thread& t : connectors) t.join();
    bundle.server.reset();
  }
}

TEST(ConcurrencyStressTest, MuxServerConcurrentStopIsSafe) {
  for (int iter = 0; iter < 8; ++iter) {
    auto store = std::make_shared<httpd::ObjectStore>();
    store->Put("/x", std::string(20'000, 'x'));
    auto handler = std::make_shared<httpd::DavHandler>(store);
    auto router = std::make_shared<httpd::Router>();
    handler->Register(router.get(), "/");
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<muxhttp::MuxServer> server,
                         muxhttp::MuxServer::Start({}, router));
    // Exchanges in flight through the mux transport while 8 threads
    // race Stop(): requests either complete or fail cleanly.
    Context context;
    RequestParams params;
    params.transport = TransportKind::kMux;
    params.max_retries = 0;
    params.operation_timeout_micros = 2'000'000;
    HttpClient client(&context);
    Uri url = *Uri::Parse(server->BaseUrl() + "/x");
    std::vector<std::thread> requesters;
    for (int i = 0; i < 4; ++i) {
      requesters.emplace_back([&client, url, &params] {
        for (int j = 0; j < 4; ++j) {
          auto result = client.Execute(url, http::Method::kGet, params);
          if (result.ok()) {
            EXPECT_EQ(result->response.body.size(), 20'000u);
          }
        }
      });
    }
    muxhttp::MuxServer* raw = server.get();
    std::vector<std::thread> stoppers;
    for (int i = 0; i < 8; ++i) {
      stoppers.emplace_back([raw] { raw->Stop(); });
    }
    for (std::thread& t : stoppers) t.join();
    for (std::thread& t : requesters) t.join();
    server.reset();
    context.mux_transport().Clear();
  }
}

TEST(ConcurrencyStressTest, MuxTransportSixteenThreadsOneConnectionFaults) {
  // 16 threads hammer ONE framed connection (per-host cap = 1) with
  // overlapping range-GETs while a FaultInjector kills the connection
  // or 503s streams mid-flight. Every healthy read must come back
  // byte-exact after the client's retries; the transport must keep
  // reconnecting rather than wedge. The interesting failures here are
  // data races and lock-order bugs — this test is a primary target of
  // the TSan / ASan CI legs.
  auto store = std::make_shared<httpd::ObjectStore>();
  Rng rng(1234);
  std::string content = rng.Bytes(512 * 1024);
  store->Put("/obj", content);
  store->Put("/flaky", content);
  auto handler = std::make_shared<httpd::DavHandler>(store);
  auto router = std::make_shared<httpd::Router>();
  handler->Register(router.get(), "/");

  muxhttp::MuxServerConfig config;
  config.data_chunk_bytes = 8 * 1024;  // many DATA frames per response
  config.faults = std::make_shared<netsim::FaultInjector>(77);
  {
    netsim::FaultRule refuse;
    refuse.path_prefix = "/flaky";
    refuse.action = netsim::FaultAction::kRefuseConnection;
    refuse.probability = 0.10;
    refuse.max_hits = 6;
    config.faults->AddRule(refuse);
    netsim::FaultRule truncate;
    truncate.path_prefix = "/flaky";
    truncate.action = netsim::FaultAction::kTruncateBody;
    truncate.probability = 0.10;
    truncate.max_hits = 6;
    config.faults->AddRule(truncate);
    netsim::FaultRule error;
    error.path_prefix = "/flaky";
    error.action = netsim::FaultAction::kServerError;
    error.probability = 0.15;
    error.max_hits = 20;
    config.faults->AddRule(error);
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<muxhttp::MuxServer> server,
                       muxhttp::MuxServer::Start(config, router));

  Context context;
  RequestParams params;
  params.transport = TransportKind::kMux;
  params.metalink_mode = MetalinkMode::kDisabled;
  params.mux_max_connections_per_host = 1;
  params.mux_max_streams_per_connection = 32;
  params.max_retries = 8;
  params.operation_timeout_micros = 10'000'000;
  // One fault kills every in-flight stream at once, so a burst of
  // failures against the single host is by design here; the breaker
  // (covered by its own tests) would turn that burst into fast-fails
  // for the healthy reads we assert on. Out of the way it goes.
  params.breaker_failure_threshold = -1;
  const std::string base = server->BaseUrl();

  std::atomic<int> healthy_failures{0};
  std::atomic<int> wrong_bytes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 16; ++t) {
    threads.emplace_back([&, t] {
      DavFile file = *DavFile::Make(&context, base + "/obj");
      DavFile flaky = *DavFile::Make(&context, base + "/flaky");
      Rng thread_rng(uint64_t(t) + 1);
      for (int i = 0; i < 12; ++i) {
        uint64_t offset = thread_rng.Below(content.size() - 4096);
        uint64_t length = 1 + thread_rng.Below(4096);
        if (i % 3 == 2) {
          // Fault-prone exchange: outcome free, crash/wedge forbidden.
          (void)flaky.ReadPartial(offset, length, params);
          continue;
        }
        auto data = file.ReadPartial(offset, length, params);
        if (!data.ok()) {
          healthy_failures.fetch_add(1);
        } else if (*data != content.substr(offset, length)) {
          wrong_bytes.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(wrong_bytes.load(), 0);
  EXPECT_EQ(healthy_failures.load(), 0);
  IoCounters counters = context.SnapshotCounters();
  // The connection cap held even while faults forced reconnects.
  EXPECT_GE(counters.mux_streams_opened, 128u);
  EXPECT_GE(counters.mux_connections_opened, 1u);
  if (config.faults->faults_fired() > 0) {
    EXPECT_GE(counters.mux_connections_lost +
                  counters.mux_streams_reset,
              1u);
  }
  // One more exchange proves the transport is still live afterwards.
  DavFile file = *DavFile::Make(&context, base + "/obj");
  ASSERT_OK_AND_ASSIGN(std::string tail,
                       file.ReadPartial(content.size() - 100, 100, params));
  EXPECT_EQ(tail, content.substr(content.size() - 100, 100));
}

TEST(ConcurrencyStressTest, XrdServerConcurrentStopIsSafe) {
  for (int iter = 0; iter < 8; ++iter) {
    auto store = std::make_shared<httpd::ObjectStore>();
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<xrootd::XrdServer> server,
                         xrootd::XrdServer::Start({}, store));
    xrootd::XrdServer* raw = server.get();
    std::vector<std::thread> stoppers;
    for (int i = 0; i < 8; ++i) {
      stoppers.emplace_back([raw] { raw->Stop(); });
    }
    for (std::thread& t : stoppers) t.join();
    server.reset();
  }
}

// ----------------------------------------------- counters aggregation

// SnapshotCounters aggregates atomics while dispatcher threads bump
// them; under TSan this verifies the accounting really is atomic.
TEST(ConcurrencyStressTest, SnapshotCountersDuringConcurrentReads) {
  TestStorageServer bundle = StartStorageServer();
  Rng rng(11);
  std::string content = rng.Bytes(64 * 1024);
  bundle.store->Put("/f", content);

  Context context;
  std::atomic<bool> done{false};
  std::thread snapshotter([&] {
    while (!done.load(std::memory_order_relaxed)) {
      IoCounters counters = context.SnapshotCounters();
      EXPECT_GE(counters.bytes_read, 0u);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  constexpr int kThreads = 8;
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      DavPosix posix(&context);
      auto fd = posix.Open(bundle.UrlFor("/f"));
      ASSERT_TRUE(fd.ok()) << fd.status().ToString();
      auto data = posix.PRead(*fd, 0, content.size());
      ASSERT_TRUE(data.ok()) << data.status().ToString();
      EXPECT_EQ(*data, content);
      EXPECT_OK(posix.Close(*fd));
    });
  }
  for (std::thread& t : readers) t.join();
  done.store(true, std::memory_order_relaxed);
  snapshotter.join();
  EXPECT_GE(context.SnapshotCounters().bytes_read, content.size());
}

}  // namespace
}  // namespace core
}  // namespace davix
