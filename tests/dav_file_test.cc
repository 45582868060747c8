#include "common/rng.h"
#include "core/context.h"
#include "core/dav_file.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace davix {
namespace core {
namespace {

using ::davix::testing::StartStorageServer;
using ::davix::testing::TestStorageServer;

class DavFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = testing::StartStorageServer();
    Rng rng(99);
    content_ = rng.Bytes(256 * 1024);
    server_.store->Put("/data.bin", content_);
    context_ = std::make_unique<Context>();
    params_.metalink_mode = MetalinkMode::kDisabled;
  }

  DavFile File(const std::string& path) {
    return *DavFile::Make(context_.get(), server_.UrlFor(path));
  }

  TestStorageServer server_;
  std::string content_;
  std::unique_ptr<Context> context_;
  RequestParams params_;
};

TEST_F(DavFileTest, GetWholeObject) {
  DavFile file = File("/data.bin");
  ASSERT_OK_AND_ASSIGN(std::string body, file.Get(params_));
  EXPECT_EQ(body, content_);
}

TEST_F(DavFileTest, GetMissingIsNotFound) {
  DavFile file = File("/missing");
  Result<std::string> result = file.Get(params_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(DavFileTest, PutCreatesAndStatSeesIt) {
  DavFile file = File("/new.obj");
  ASSERT_OK(file.Put("fresh bytes", params_));
  ASSERT_OK_AND_ASSIGN(FileInfo info, file.Stat(params_));
  EXPECT_EQ(info.size, 11u);
  EXPECT_FALSE(info.etag.empty());
  EXPECT_GT(info.mtime_epoch_seconds, 0);
}

TEST_F(DavFileTest, DeleteRemoves) {
  DavFile file = File("/data.bin");
  ASSERT_OK(file.Delete(params_));
  EXPECT_FALSE(file.Stat(params_).ok());
}

TEST_F(DavFileTest, ReadPartialMatchesSubstring) {
  DavFile file = File("/data.bin");
  ASSERT_OK_AND_ASSIGN(std::string data, file.ReadPartial(1000, 500, params_));
  EXPECT_EQ(data, content_.substr(1000, 500));
}

TEST_F(DavFileTest, ReadPartialZeroLength) {
  DavFile file = File("/data.bin");
  ASSERT_OK_AND_ASSIGN(std::string data, file.ReadPartial(0, 0, params_));
  EXPECT_TRUE(data.empty());
}

TEST_F(DavFileTest, ReadPartialVecScattered) {
  DavFile file = File("/data.bin");
  std::vector<http::ByteRange> ranges = {
      {0, 16}, {100'000, 64}, {50'000, 128}, {content_.size() - 10, 10}};
  ASSERT_OK_AND_ASSIGN(auto results, file.ReadPartialVec(ranges, params_));
  ASSERT_EQ(results.size(), ranges.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(results[i], content_.substr(ranges[i].offset, ranges[i].length));
  }
  // The four scattered ranges went out as ONE multi-range query (§2.3).
  EXPECT_EQ(context_->SnapshotCounters().vector_queries, 1u);
  EXPECT_EQ(server_.handler->stats().multirange_requests.load(), 1u);
}

TEST_F(DavFileTest, VectorCoalescingReducesWireRanges) {
  DavFile file = File("/data.bin");
  // 32 tiny reads within one 4 KiB window coalesce into one wire range.
  std::vector<http::ByteRange> ranges;
  for (int i = 0; i < 32; ++i) ranges.push_back({uint64_t(i) * 100, 50});
  params_.vector_gap_bytes = 4096;
  ASSERT_OK_AND_ASSIGN(auto results, file.ReadPartialVec(ranges, params_));
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(results[i], content_.substr(ranges[i].offset, ranges[i].length));
  }
  // One wire range => the server saw a single-range request, not 32.
  EXPECT_EQ(server_.handler->stats().multirange_requests.load(), 0u);
  EXPECT_EQ(server_.handler->stats().range_requests.load(), 1u);
}

TEST_F(DavFileTest, BatchSplittingHonoursMaxRanges) {
  DavFile file = File("/data.bin");
  params_.vector_gap_bytes = 0;
  params_.max_ranges_per_request = 4;
  std::vector<http::ByteRange> ranges;
  for (int i = 0; i < 10; ++i) {
    ranges.push_back({uint64_t(i) * 10'000, 100});
  }
  ASSERT_OK_AND_ASSIGN(auto results, file.ReadPartialVec(ranges, params_));
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(results[i], content_.substr(ranges[i].offset, ranges[i].length));
  }
  // ceil(10/4) = 3 wire queries.
  EXPECT_EQ(context_->SnapshotCounters().vector_queries, 3u);
}

TEST_F(DavFileTest, FallbackWhenServerLacksMultirange) {
  server_.handler->set_support_multirange(false);
  DavFile file = File("/data.bin");
  params_.vector_gap_bytes = 0;
  std::vector<http::ByteRange> ranges = {{10, 20}, {100'000, 30}, {5, 3}};
  ASSERT_OK_AND_ASSIGN(auto results, file.ReadPartialVec(ranges, params_));
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(results[i], content_.substr(ranges[i].offset, ranges[i].length));
  }
}

TEST_F(DavFileTest, ParallelDispatchMultipleBatchesInFlight) {
  // A shaped (2 ms RTT) server so the four batches genuinely overlap.
  httpd::ServerConfig config;
  config.link = netsim::LinkProfile::Lan();
  TestStorageServer server = StartStorageServer(config);
  server.store->Put("/data.bin", content_);
  Context context;
  DavFile file = *DavFile::Make(&context, server.UrlFor("/data.bin"));

  params_.vector_gap_bytes = 0;
  params_.max_ranges_per_request = 4;
  params_.max_parallel_range_requests = 4;
  std::vector<http::ByteRange> ranges;
  for (int i = 0; i < 16; ++i) {
    ranges.push_back({uint64_t(i) * 10'000, 100});
  }
  ASSERT_OK_AND_ASSIGN(auto results, file.ReadPartialVec(ranges, params_));
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(results[i], content_.substr(ranges[i].offset, ranges[i].length));
  }
  // Same wire shape as sequential dispatch: 4 multi-range queries.
  EXPECT_EQ(context.SnapshotCounters().vector_queries, 4u);
  EXPECT_EQ(server.handler->stats().multirange_requests.load(), 4u);
  // The concurrent burst drew several connections to the one host...
  EXPECT_GE(context.pool().stats().connections_opened.load(), 2u);
  // ...and parked every one of them back for recycling afterwards.
  EXPECT_EQ(context.pool().IdleCount(),
            context.pool().stats().connections_opened.load());
}

TEST_F(DavFileTest, ParallelFallbackWhenServerLacksMultirange) {
  // Under parallel dispatch, the 200 full-entity fallback must demote the
  // read to single-stream: batches that start after the entity arrived
  // are satisfied locally, and every byte still comes out right.
  httpd::ServerConfig config;
  config.link = netsim::LinkProfile::Lan();
  TestStorageServer server = StartStorageServer(config);
  server.store->Put("/data.bin", content_);
  server.handler->set_support_multirange(false);
  Context context;
  DavFile file = *DavFile::Make(&context, server.UrlFor("/data.bin"));

  params_.vector_gap_bytes = 0;
  params_.max_ranges_per_request = 4;
  params_.max_parallel_range_requests = 4;
  std::vector<http::ByteRange> ranges;
  for (int i = 0; i < 16; ++i) {
    ranges.push_back({uint64_t(i) * 10'000, 100});
  }
  ASSERT_OK_AND_ASSIGN(auto results, file.ReadPartialVec(ranges, params_));
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(results[i], content_.substr(ranges[i].offset, ranges[i].length));
  }
  // Never more wire requests than batches, regardless of how the 200s
  // and the demotion interleave.
  EXPECT_LE(context.SnapshotCounters().requests, 4u);
  EXPECT_GE(context.SnapshotCounters().requests, 1u);
}

TEST_F(DavFileTest, ParallelMidStreamFaultSurfacesFirstError) {
  // Every response body is truncated mid-stream: the dispatch must fail
  // cleanly (first-error cancellation), not hang or crash.
  TestStorageServer server = StartStorageServer();
  server.store->Put("/data.bin", content_);
  server.server->faults().AddRule(
      {"/data.bin", netsim::FaultAction::kTruncateBody, 1.0, -1, 0});
  Context context;
  DavFile file = *DavFile::Make(&context, server.UrlFor("/data.bin"));

  params_.vector_gap_bytes = 0;
  params_.max_ranges_per_request = 4;
  params_.max_parallel_range_requests = 4;
  params_.max_retries = 0;
  std::vector<http::ByteRange> ranges;
  for (int i = 0; i < 16; ++i) {
    ranges.push_back({uint64_t(i) * 10'000, 100});
  }
  Result<std::vector<std::string>> result =
      file.ReadPartialVec(ranges, params_);
  ASSERT_FALSE(result.ok());
}

TEST_F(DavFileTest, ParallelDispatchRecoversFromTransientFaults) {
  // Two mid-stream truncations, then a healthy server: the per-request
  // retry machinery absorbs the faults underneath the parallel dispatch.
  TestStorageServer server = StartStorageServer();
  server.store->Put("/data.bin", content_);
  server.server->faults().AddRule(
      {"/data.bin", netsim::FaultAction::kTruncateBody, 1.0, 2, 0});
  Context context;
  DavFile file = *DavFile::Make(&context, server.UrlFor("/data.bin"));

  params_.vector_gap_bytes = 0;
  params_.max_ranges_per_request = 4;
  params_.max_parallel_range_requests = 4;
  std::vector<http::ByteRange> ranges;
  for (int i = 0; i < 16; ++i) {
    ranges.push_back({uint64_t(i) * 10'000, 100});
  }
  ASSERT_OK_AND_ASSIGN(auto results, file.ReadPartialVec(ranges, params_));
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(results[i], content_.substr(ranges[i].offset, ranges[i].length));
  }
  EXPECT_EQ(server.server->stats().faults_injected.load(), 2u);
}

TEST_F(DavFileTest, OverlappingAndDuplicateRanges) {
  DavFile file = File("/data.bin");
  std::vector<http::ByteRange> ranges = {
      {100, 200}, {150, 200}, {100, 200}, {0, 1}};
  ASSERT_OK_AND_ASSIGN(auto results, file.ReadPartialVec(ranges, params_));
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(results[i], content_.substr(ranges[i].offset, ranges[i].length));
  }
}

TEST_F(DavFileTest, EmptyVectorIsNoop) {
  DavFile file = File("/data.bin");
  ASSERT_OK_AND_ASSIGN(auto results, file.ReadPartialVec({}, params_));
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(context_->SnapshotCounters().requests, 0u);
}

// Property: random vectored reads equal direct substring extraction,
// under randomised params (gap, batch size, multirange support).
class DavFileVecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DavFileVecPropertyTest, MatchesLocalTruth) {
  TestStorageServer server = StartStorageServer();
  Rng rng(GetParam());
  std::string content = rng.Bytes(64 * 1024 + rng.Below(64 * 1024));
  server.store->Put("/obj", content);
  server.handler->set_support_multirange(rng.Chance(0.7));

  Context context;
  RequestParams params;
  params.metalink_mode = MetalinkMode::kDisabled;
  params.vector_gap_bytes = rng.Below(8192);
  params.max_ranges_per_request = 1 + rng.Below(16);
  params.max_parallel_range_requests = 1 + rng.Below(6);
  DavFile file = *DavFile::Make(&context, server.UrlFor("/obj"));

  std::vector<http::ByteRange> ranges;
  size_t n = 1 + rng.Below(40);
  for (size_t i = 0; i < n; ++i) {
    uint64_t offset = rng.Below(content.size());
    uint64_t length = 1 + rng.Below(2000);
    length = std::min<uint64_t>(length, content.size() - offset);
    ranges.push_back({offset, length});
  }
  ASSERT_OK_AND_ASSIGN(auto results, file.ReadPartialVec(ranges, params));
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(results[i], content.substr(ranges[i].offset, ranges[i].length))
        << "range " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DavFileVecPropertyTest,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace core
}  // namespace davix
