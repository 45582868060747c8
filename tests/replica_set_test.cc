#include "core/replica_set.h"

#include "common/checksum.h"
#include "common/clock.h"
#include "common/rng.h"
#include "core/context.h"
#include "core/dav_posix.h"
#include "core/metalink_engine.h"
#include "fed/federation_handler.h"
#include "fed/replica_catalog.h"
#include "netsim/fault_injector.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace davix {
namespace core {
namespace {

using ::davix::testing::StartStorageServer;
using ::davix::testing::TestStorageServer;

// ------------------------------------------------------- ReplicaSource

TEST(ReplicaSourceTest, HealthStateMachine) {
  ReplicaSource source(*Uri::Parse("http://replica-a:80/f"), 1);
  EXPECT_FALSE(source.Quarantined(1'000));

  // Below the threshold nothing is quarantined; at it, a timed one.
  EXPECT_FALSE(source.RecordFailure(1'000, 2, 500));
  EXPECT_FALSE(source.Quarantined(1'000));
  EXPECT_TRUE(source.RecordFailure(1'000, 2, 500));
  EXPECT_TRUE(source.Quarantined(1'400));
  EXPECT_FALSE(source.Quarantined(1'600));  // deadline passed

  // Still failing after the deadline: quarantined anew.
  EXPECT_TRUE(source.RecordFailure(2'000, 2, 500));
  EXPECT_TRUE(source.Quarantined(2'400));

  // One success resets the streak and lifts the quarantine.
  source.RecordSuccess(5'000);
  EXPECT_FALSE(source.Quarantined(2'100));
  EXPECT_EQ(source.consecutive_failures(), 0);
  EXPECT_GT(source.latency_ewma_micros(), 0);

  // Generation rejection is permanent.
  EXPECT_TRUE(source.RejectGeneration());
  EXPECT_FALSE(source.RejectGeneration());
  EXPECT_TRUE(source.generation_rejected());
  EXPECT_TRUE(source.Quarantined(1'000'000'000));
  source.RecordSuccess(1);
  EXPECT_TRUE(source.Quarantined(1'000'000'000));
}

TEST(ReplicaSourceTest, LatencyEwmaSmoothes) {
  ReplicaSource source(*Uri::Parse("http://replica-a:80/f"), 1);
  source.RecordSuccess(1'000);
  EXPECT_DOUBLE_EQ(source.latency_ewma_micros(), 1'000.0);
  source.RecordSuccess(2'000);
  // alpha = 0.3: 0.3 * 2000 + 0.7 * 1000.
  EXPECT_NEAR(source.latency_ewma_micros(), 1'300.0, 1e-6);
}

// ----------------------------------------------- ranking / striping

TEST(ReplicaSetRankingTest, RanksByHealthThenPriorityAndRotatesStripes) {
  Context context;
  metalink::MetalinkFile file;
  file.replicas = {{"http://b:80/f", 2, ""},
                   {"http://a:80/f", 1, ""},
                   {"http://c:80/f", 3, ""}};
  ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<ReplicaSet> set,
      ReplicaSet::Make(&context, *Uri::Parse("http://a:80/f"), file, {}));
  EXPECT_EQ(set->source_count(), 3u);

  // No samples yet: Metalink priority order.
  auto ranked = set->RankedSources();
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0]->url().ToString(), "http://a:80/f");
  EXPECT_EQ(ranked[1]->url().ToString(), "http://b:80/f");
  EXPECT_EQ(ranked[2]->url().ToString(), "http://c:80/f");

  // A probed fast source outranks unprobed ones.
  set->RecordSuccess(ranked[2], 10);
  ranked = set->RankedSources();
  EXPECT_EQ(ranked[0]->url().ToString(), "http://c:80/f");

  // Stripe slot 1 at width 2 starts on the second-ranked source.
  auto candidates = set->CandidatesFor(1, 2);
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0]->url().ToString(), ranked[1]->url().ToString());
  // Slot 0 keeps the ranked order.
  candidates = set->CandidatesFor(0, 2);
  EXPECT_EQ(candidates[0]->url().ToString(), ranked[0]->url().ToString());

  // Repeated failures sink a source to the back of the rotation.
  set->RecordFailure(ranked[0]);
  set->RecordFailure(ranked[0]);
  auto after = set->RankedSources();
  EXPECT_EQ(after.back()->url().ToString(), "http://c:80/f");
  EXPECT_TRUE(after.back()->Quarantined(MonotonicMicros()));

  // Lanes (an earlier ranking) keep each stripe slot on its source while
  // the live latency order changes; a quarantine still re-maps the slot.
  auto lanes = set->RankedSources();  // a, b healthy; c quarantined
  set->RecordSuccess(lanes[1], 5);
  EXPECT_EQ(set->CandidatesFor(0, 2)[0], lanes[1]);
  EXPECT_EQ(set->CandidatesFor(0, 2, lanes)[0], lanes[0]);
  EXPECT_EQ(set->CandidatesFor(1, 2, lanes)[0], lanes[1]);
  set->RecordFailure(lanes[0]);
  set->RecordFailure(lanes[0]);
  EXPECT_EQ(set->CandidatesFor(0, 2, lanes)[0], lanes[1]);
}

TEST(ReplicaSetRankingTest, AgreedGenerationAdmission) {
  Context context;
  metalink::MetalinkFile file;
  file.replicas = {{"http://a:80/f", 1, ""}, {"http://b:80/f", 2, ""}};
  ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<ReplicaSet> set,
      ReplicaSet::Make(&context, *Uri::Parse("http://a:80/f"), file, {}));
  auto ranked = set->RankedSources();

  BlockValidator gen1{"\"dv-1\"", 100};
  BlockValidator gen1_skewed{"\"dv-1\"", 200};  // same ETag, skewed mtime
  BlockValidator gen2{"\"dv-2\"", 100};

  // First non-empty validator becomes the agreed generation.
  auto admitted = set->Admit(ranked[0], gen1);
  ASSERT_TRUE(admitted.has_value());
  EXPECT_EQ(admitted->etag, "\"dv-1\"");
  // Equal ETags pool even when Last-Modified skews; the publish
  // validator is always the agreed one.
  admitted = set->Admit(ranked[1], gen1_skewed);
  ASSERT_TRUE(admitted.has_value());
  EXPECT_EQ(admitted->mtime_epoch_seconds, 100);
  // A different ETag is rejected and the source permanently quarantined.
  EXPECT_FALSE(set->Admit(ranked[1], gen2).has_value());
  EXPECT_TRUE(ranked[1]->generation_rejected());
  EXPECT_EQ(set->RankedSources().size(), 1u);
  EXPECT_GE(context.SnapshotCounters().replica_quarantines, 1u);
}

// ------------------------------------------------- replicated fixture

constexpr char kPath[] = "/set/data.bin";

class ReplicaSetTest : public ::testing::Test {
 protected:
  void Deploy(int replica_count, BlockCacheConfig cache_config = {}) {
    Rng rng(99);
    content_ = rng.Bytes(512 * 1024);
    for (int i = 0; i < replica_count; ++i) {
      replicas_.push_back(StartStorageServer());
      replicas_.back().store->Put(kPath, content_);
    }
    catalog_ = std::make_shared<fed::ReplicaCatalog>();
    for (size_t i = 0; i < replicas_.size(); ++i) {
      catalog_->AddReplica(kPath, replicas_[i].UrlFor(kPath),
                           static_cast<int>(i + 1));
    }
    catalog_->SetFileMeta(kPath, content_.size(), Md5::HexDigest(content_));
    federation_ = std::make_shared<fed::FederationHandler>(catalog_);
    fed_router_ = std::make_shared<httpd::Router>();
    federation_->Register(fed_router_.get(), "/");
    auto server = httpd::HttpServer::Start({}, fed_router_);
    ASSERT_TRUE(server.ok());
    fed_server_ = std::move(*server);

    context_ = std::make_unique<Context>(SessionPoolConfig{}, 0,
                                         cache_config);
    params_.metalink_resolver = fed_server_->BaseUrl();
    params_.max_retries = 0;
    params_.connect_timeout_micros = 2'000'000;
  }

  std::string PrimaryUrl() const { return replicas_[0].UrlFor(kPath); }

  Result<std::shared_ptr<ReplicaSet>> ResolveSet() {
    return ReplicaSet::Resolve(context_.get(), *Uri::Parse(PrimaryUrl()),
                               params_);
  }

  std::string content_;
  std::vector<TestStorageServer> replicas_;
  std::shared_ptr<fed::ReplicaCatalog> catalog_;
  std::shared_ptr<fed::FederationHandler> federation_;
  std::shared_ptr<httpd::Router> fed_router_;
  std::unique_ptr<httpd::HttpServer> fed_server_;
  std::unique_ptr<Context> context_;
  RequestParams params_;
};

TEST_F(ReplicaSetTest, StreamStripesAcrossReplicasAndDeliversInOrder) {
  Deploy(3);
  params_.multistream_chunk_bytes = 64 * 1024;
  params_.multistream_max_streams = 3;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<ReplicaSet> set, ResolveSet());

  std::string assembled;
  uint64_t expected_offset = 0;
  bool in_order = true;
  ASSERT_OK(set->Stream(0, content_.size(), params_,
                        [&](uint64_t offset, std::string_view data) {
                          if (offset != expected_offset) in_order = false;
                          expected_offset = offset + data.size();
                          assembled.append(data);
                          return Status::OK();
                        }));
  EXPECT_TRUE(in_order);
  EXPECT_EQ(assembled, content_);
  // 8 chunks rotated over a 3-wide stripe: every replica served bytes.
  for (auto& replica : replicas_) {
    EXPECT_GT(replica.handler->stats().get_requests.load(), 0u);
  }
}

TEST_F(ReplicaSetTest, StreamBuffersNoMoreThanStripeWidthBehindSlowChunk) {
  Deploy(3);
  // Every replica answers chunk 0 400 ms late and the rest at once.
  auto answered = std::make_shared<std::atomic<int>>(0);
  for (TestStorageServer& replica : replicas_) {
    std::shared_ptr<httpd::DavHandler> handler = replica.handler;
    replica.router->Handle(
        http::Method::kGet, kPath,
        [handler, answered](const http::HttpRequest& request,
                            http::HttpResponse* response) {
          if (request.headers.Get("Range").value_or("").rfind("bytes=0-",
                                                              0) == 0) {
            SleepForMicros(400'000);
          }
          handler->Handle(request, response);
          answered->fetch_add(1);
        });
  }
  params_.multistream_chunk_bytes = 32 * 1024;
  params_.multistream_max_streams = 3;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<ReplicaSet> set, ResolveSet());

  int answered_at_first_sink = -1;
  std::string assembled;
  ASSERT_OK(set->Stream(0, content_.size(), params_,
                        [&](uint64_t, std::string_view data) {
                          if (answered_at_first_sink < 0) {
                            answered_at_first_sink = answered->load();
                          }
                          assembled.append(data);
                          return Status::OK();
                        }));
  EXPECT_EQ(assembled, content_);
  // The 16 chunks are striped through a window 3 chunks deep: while
  // chunk 0 is late, nothing past the window is fetched and parked.
  // Taking chunk 0 out of the window refills it with chunk 3 before the
  // sink runs, so chunk 3 may already have been answered: the bound is
  // the chunk in the sink plus the window.
  EXPECT_LE(answered_at_first_sink, 3 + 1);
}

TEST_F(ReplicaSetTest, FailedStreamReturnsWhileItsFetchesFinishAlone) {
  Deploy(3);
  // Every chunk but the first is held on the server until released, so
  // fetches are still on the wire when the sink fails chunk 0.
  auto release = std::make_shared<std::atomic<bool>>(false);
  for (TestStorageServer& replica : replicas_) {
    std::shared_ptr<httpd::DavHandler> handler = replica.handler;
    replica.router->Handle(
        http::Method::kGet, kPath,
        [handler, release](const http::HttpRequest& request,
                           http::HttpResponse* response) {
          if (request.headers.Get("Range").value_or("").rfind("bytes=0-",
                                                              0) != 0) {
            while (!release->load()) SleepForMicros(1'000);
          }
          handler->Handle(request, response);
        });
  }
  params_.multistream_chunk_bytes = 32 * 1024;
  params_.multistream_max_streams = 3;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<ReplicaSet> set, ResolveSet());

  int sink_calls = 0;
  Status status = set->Stream(0, content_.size(), params_,
                              [&](uint64_t, std::string_view) {
                                ++sink_calls;
                                return Status::Cancelled("sink refused");
                              });
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(sink_calls, 1);

  // The running fetches keep the set alive after the caller drops it.
  std::weak_ptr<ReplicaSet> weak = set;
  set.reset();
  EXPECT_FALSE(weak.expired());
  // Set and servers go at once; the fetches finish (or fail over and
  // fail) on their own, and the Context's teardown waits for them.
  release->store(true);
  replicas_.clear();
  context_.reset();
  EXPECT_TRUE(weak.expired());
}

TEST_F(ReplicaSetTest, WarmStreamRerunsFromCacheWithZeroRangeGets) {
  BlockCacheConfig cache_config;
  cache_config.capacity_bytes = 8 << 20;
  cache_config.block_bytes = 16 * 1024;
  Deploy(3, cache_config);
  params_.multistream_chunk_bytes = 64 * 1024;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<ReplicaSet> set, ResolveSet());

  auto read_all = [&](std::string* out) {
    return set->Stream(0, content_.size(), params_,
                       [out](uint64_t, std::string_view data) {
                         out->append(data);
                         return Status::OK();
                       });
  };
  std::string cold;
  ASSERT_OK(read_all(&cold));
  EXPECT_EQ(cold, content_);
  IoCounters after_cold = context_->SnapshotCounters();
  EXPECT_GT(after_cold.multisource_chunks, 0u);

  std::string warm;
  ASSERT_OK(read_all(&warm));
  EXPECT_EQ(warm, content_);
  IoCounters after_warm = context_->SnapshotCounters();
  // The rerun put no chunk range-GET on the wire: every chunk was
  // served by the cache probe.
  EXPECT_EQ(after_warm.multisource_chunks, after_cold.multisource_chunks);
  EXPECT_GT(after_warm.multisource_cache_chunks,
            after_cold.multisource_cache_chunks);
}

TEST_F(ReplicaSetTest, MismatchedReplicaIsQuarantinedAndNeverCached) {
  BlockCacheConfig cache_config;
  cache_config.capacity_bytes = 8 << 20;
  cache_config.block_bytes = 16 * 1024;
  Deploy(2, cache_config);
  // Replica 1 serves a different generation (new ETag, new bytes).
  replicas_[1].store->Put(kPath, std::string(content_.size(), 'Z'));
  params_.multistream_chunk_bytes = 64 * 1024;
  params_.multistream_max_streams = 2;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<ReplicaSet> set, ResolveSet());

  std::string assembled;
  ASSERT_OK(set->Stream(0, content_.size(), params_,
                        [&](uint64_t, std::string_view data) {
                          assembled.append(data);
                          return Status::OK();
                        }));
  // The stream never mixes generations: every byte delivered — and
  // every byte cached — comes from the agreed (primary) generation.
  EXPECT_EQ(assembled, content_);
  std::string cached;
  ASSERT_TRUE(context_->block_cache().TryReadFull(
      BlockCache::UrlKey(*Uri::Parse(PrimaryUrl())), 0, content_.size(),
      &cached));
  EXPECT_EQ(cached, content_);

  IoCounters io = context_->SnapshotCounters();
  EXPECT_GE(io.replica_validator_rejects, 1u);
  EXPECT_GE(io.replica_quarantines, 1u);
  bool rejected = false;
  for (const ReplicaSourceSnapshot& snap : set->Snapshot()) {
    if (snap.url == replicas_[1].UrlFor(kPath)) {
      rejected = snap.generation_rejected;
    }
  }
  EXPECT_TRUE(rejected);
}

TEST_F(ReplicaSetTest, ResolvedStatWithNoWorkingReplicaIsAllReplicasFailed) {
  Deploy(2);
  // First no candidate is left (every source generation-rejected, so the
  // op never runs), then every candidate fails on the wire.
  for (bool replicas_down : {false, true}) {
    SCOPED_TRACE(replicas_down);
    ASSERT_OK_AND_ASSIGN(DavFile file,
                         DavFile::Make(context_.get(), PrimaryUrl()));
    ASSERT_OK(file.ResolveReplicaSet(params_));
    std::shared_ptr<ReplicaSet> set = file.replica_set();
    ASSERT_NE(set, nullptr);
    if (replicas_down) {
      for (TestStorageServer& replica : replicas_) {
        replica.server->faults().SetServerDown(true);
      }
    } else {
      set->SeedValidator({"\"agreed\"", 100});
      for (const std::shared_ptr<ReplicaSource>& source :
           set->RankedSources()) {
        EXPECT_FALSE(set->Admit(source, {"\"other\"", 200}).has_value());
      }
      ASSERT_TRUE(set->RankedSources().empty());
    }
    Result<FileInfo> info = file.Stat(params_);
    ASSERT_FALSE(info.ok());
    EXPECT_EQ(info.status().code(), StatusCode::kAllReplicasFailed);
  }
}

TEST_F(ReplicaSetTest, DavPosixWindowedReadFailsOverMidStream) {
  Deploy(2);
  params_.readahead_bytes = 32 * 1024;
  params_.readahead_window_chunks = 3;
  DavPosix posix(context_.get());
  ASSERT_OK_AND_ASSIGN(int fd, posix.Open(PrimaryUrl(), params_));
  // With a resolved set the open stays one HEAD, which anchors the set's
  // generation before any chunk is admitted; no chunk went out with it.
  uint64_t heads = 0, gets = 0;
  for (TestStorageServer& replica : replicas_) {
    heads += replica.handler->stats().head_requests.load();
    gets += replica.handler->stats().get_requests.load();
  }
  EXPECT_EQ(heads, 1u);
  EXPECT_EQ(gets, 0u);

  std::string assembled;
  while (assembled.size() < content_.size() / 4) {
    ASSERT_OK_AND_ASSIGN(std::string part, posix.Read(fd, 16 * 1024));
    ASSERT_FALSE(part.empty());
    assembled += part;
  }
  // The replica serving the stream dies mid-read: the window's chunk
  // fetches re-dispatch to the surviving source — no error surfaces.
  replicas_[0].server->faults().SetServerDown(true);
  while (true) {
    ASSERT_OK_AND_ASSIGN(std::string part, posix.Read(fd, 16 * 1024));
    if (part.empty()) break;
    assembled += part;
  }
  EXPECT_EQ(assembled.size(), content_.size());
  EXPECT_EQ(Crc32(assembled), Crc32(content_));
  EXPECT_GE(context_->SnapshotCounters().replica_failovers, 1u);
  EXPECT_OK(posix.Close(fd));
}

TEST_F(ReplicaSetTest, VectoredBatchesRedispatchAfterPrimaryDies) {
  Deploy(2);
  params_.max_ranges_per_request = 2;  // force several wire batches
  DavPosix posix(context_.get());
  ASSERT_OK_AND_ASSIGN(int fd, posix.Open(PrimaryUrl(), params_));
  replicas_[0].server->faults().SetServerDown(true);

  std::vector<http::ByteRange> ranges;
  for (uint64_t i = 0; i < 8; ++i) {
    ranges.push_back({i * 50'000, 1'000});
  }
  ASSERT_OK_AND_ASSIGN(auto results, posix.PReadVec(fd, ranges));
  ASSERT_EQ(results.size(), ranges.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(results[i], content_.substr(ranges[i].offset,
                                          ranges[i].length));
  }
  EXPECT_GE(context_->SnapshotCounters().replica_failovers, 1u);
  EXPECT_OK(posix.Close(fd));
}

TEST_F(ReplicaSetTest, LossyPrimaryStillDeliversExactBytes) {
  BlockCacheConfig cache_config;
  cache_config.capacity_bytes = 8 << 20;
  cache_config.block_bytes = 16 * 1024;
  Deploy(2, cache_config);
  // The primary truncates half of its responses mid-body (netsim loss):
  // reads must still complete with exact bytes and no surfaced error.
  netsim::FaultRule rule;
  rule.path_prefix = kPath;
  rule.action = netsim::FaultAction::kTruncateBody;
  rule.probability = 0.5;
  replicas_[0].server->faults().AddRule(rule);

  params_.readahead_bytes = 32 * 1024;
  params_.readahead_window_chunks = 2;
  DavPosix posix(context_.get());
  ASSERT_OK_AND_ASSIGN(int fd, posix.Open(PrimaryUrl(), params_));
  std::string assembled;
  while (true) {
    ASSERT_OK_AND_ASSIGN(std::string part, posix.Read(fd, 16 * 1024));
    if (part.empty()) break;
    assembled += part;
  }
  EXPECT_EQ(Crc32(assembled), Crc32(content_));

  std::vector<http::ByteRange> ranges = {{1'000, 5'000},
                                         {200'000, 8'000},
                                         {500'000, 12'000}};
  ASSERT_OK_AND_ASSIGN(auto results, posix.PReadVec(fd, ranges));
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(results[i], content_.substr(ranges[i].offset,
                                          ranges[i].length));
  }
  // Every cached block still belongs to the one true generation.
  std::string cached;
  if (context_->block_cache().TryReadFull(
          BlockCache::UrlKey(*Uri::Parse(PrimaryUrl())), 0,
          content_.size(), &cached)) {
    EXPECT_EQ(cached, content_);
  }
  EXPECT_OK(posix.Close(fd));
}

}  // namespace
}  // namespace core
}  // namespace davix
