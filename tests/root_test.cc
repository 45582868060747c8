#include <algorithm>
#include <atomic>

#include "common/rng.h"
#include "core/context.h"
#include "root/analysis_job.h"
#include "root/transport_adapters.h"
#include "root/tree_cache.h"
#include "root/tree_format.h"
#include "root/tree_reader.h"
#include "test_util.h"
#include "xrootd/xrd_server.h"

#include "gtest/gtest.h"

namespace davix {
namespace root {
namespace {

TreeSpec SmallSpec() {
  TreeSpec spec;
  spec.n_events = 1000;
  spec.events_per_basket = 100;
  spec.codec = compress::CodecType::kDlz;
  spec.branches = {{"id", 8}, {"pt", 4}, {"cells", 64}};
  return spec;
}

// ---------------------------------------------------------------- format

TEST(TreeFormatTest, DefaultSpecShape) {
  TreeSpec spec = TreeSpec::Default();
  EXPECT_EQ(spec.n_events, 12000u);
  EXPECT_GT(spec.BytesPerEvent(), 2000u);  // cells branch dominates
  EXPECT_EQ(spec.BasketCountPerBranch(), 48u);
}

TEST(TreeFormatTest, BuildParseRoundTrip) {
  TreeSpec spec = SmallSpec();
  std::string file = BuildTreeFile(spec, 42);
  ASSERT_OK_AND_ASSIGN(TreeIndex index, ParseTreeIndex(file));
  EXPECT_EQ(index.spec.n_events, spec.n_events);
  EXPECT_EQ(index.spec.events_per_basket, spec.events_per_basket);
  EXPECT_EQ(index.spec.codec, spec.codec);
  ASSERT_EQ(index.spec.branches.size(), spec.branches.size());
  for (size_t i = 0; i < spec.branches.size(); ++i) {
    EXPECT_EQ(index.spec.branches[i].name, spec.branches[i].name);
    EXPECT_EQ(index.spec.branches[i].bytes_per_event,
              spec.branches[i].bytes_per_event);
  }
  EXPECT_EQ(index.file_size, file.size());
  EXPECT_EQ(index.baskets.size(), spec.branches.size());
  EXPECT_EQ(index.baskets[0].size(), spec.BasketCountPerBranch());
}

TEST(TreeFormatTest, DeterministicForSameSeed) {
  TreeSpec spec = SmallSpec();
  EXPECT_EQ(BuildTreeFile(spec, 7), BuildTreeFile(spec, 7));
  EXPECT_NE(BuildTreeFile(spec, 7), BuildTreeFile(spec, 8));
}

TEST(TreeFormatTest, BasketsCoverDataRegionWithoutOverlap) {
  TreeSpec spec = SmallSpec();
  std::string file = BuildTreeFile(spec, 1);
  ASSERT_OK_AND_ASSIGN(TreeIndex index, ParseTreeIndex(file));
  // Collect all baskets, sort by offset, check contiguous coverage.
  std::vector<BasketInfo> all;
  for (const auto& branch : index.baskets) {
    all.insert(all.end(), branch.begin(), branch.end());
  }
  std::sort(all.begin(), all.end(),
            [](const BasketInfo& a, const BasketInfo& b) {
              return a.offset < b.offset;
            });
  uint64_t cursor = index.data_begin;
  for (const BasketInfo& basket : all) {
    EXPECT_EQ(basket.offset, cursor);
    cursor += basket.stored_length;
  }
  EXPECT_EQ(cursor, file.size());
}

TEST(TreeFormatTest, BasketsDecodeToSyntheticEvents) {
  TreeSpec spec = SmallSpec();
  uint64_t seed = 99;
  std::string file = BuildTreeFile(spec, seed);
  ASSERT_OK_AND_ASSIGN(TreeIndex index, ParseTreeIndex(file));
  // Decode basket (branch 1, row 3) and compare against the generator.
  const BasketInfo& info = index.baskets[1][3];
  ASSERT_OK_AND_ASSIGN(
      std::string raw,
      compress::Decompress(
          std::string_view(file).substr(info.offset, info.stored_length)));
  EXPECT_EQ(raw.size(), info.raw_length);
  uint32_t width = spec.branches[1].bytes_per_event;
  for (uint64_t e = 0; e < spec.events_per_basket; ++e) {
    uint64_t event = 3 * spec.events_per_basket + e;
    EXPECT_EQ(raw.substr(e * width, width),
              SyntheticEventBytes(spec, 1, event, seed))
        << "event " << event;
  }
}

TEST(TreeFormatTest, ParseRejectsCorruptHeaders) {
  TreeSpec spec = SmallSpec();
  std::string file = BuildTreeFile(spec, 1);
  EXPECT_FALSE(ParseTreeIndex("short").ok());
  std::string bad_magic = file;
  bad_magic[0] = 'X';
  EXPECT_FALSE(ParseTreeIndex(bad_magic).ok());
  std::string bad_version = file;
  bad_version[4] = 9;
  EXPECT_FALSE(ParseTreeIndex(bad_version).ok());
}

// ---------------------------------------------------------------- reader

TEST(TreeReaderTest, OpensOverMemoryFile) {
  TreeSpec spec = SmallSpec();
  MemoryFile file(BuildTreeFile(spec, 5));
  ASSERT_OK_AND_ASSIGN(TreeReader reader, TreeReader::Open(&file));
  EXPECT_EQ(reader.spec().n_events, spec.n_events);
  ASSERT_OK_AND_ASSIGN(size_t branch, reader.BranchIndex("pt"));
  EXPECT_EQ(branch, 1u);
  EXPECT_FALSE(reader.BranchIndex("nope").ok());
}

// ----------------------------------------------------------------- cache

class TreeCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = SmallSpec();
    data_ = BuildTreeFile(spec_, 11);
    file_ = std::make_unique<MemoryFile>(data_);
    auto reader = TreeReader::Open(file_.get());
    ASSERT_TRUE(reader.ok());
    reader_ = std::make_unique<TreeReader>(std::move(*reader));
  }

  /// Reference basket bytes straight from the generator.
  std::string ExpectedBasket(size_t branch, uint64_t row) {
    std::string out;
    uint64_t first = row * spec_.events_per_basket;
    uint64_t last =
        std::min<uint64_t>(first + spec_.events_per_basket, spec_.n_events);
    for (uint64_t e = first; e < last; ++e) {
      out += SyntheticEventBytes(spec_, branch, e, 11);
    }
    return out;
  }

  TreeSpec spec_;
  std::string data_;
  std::unique_ptr<MemoryFile> file_;
  std::unique_ptr<TreeReader> reader_;
};

TEST_F(TreeCacheTest, ServesCorrectBaskets) {
  TreeCache cache(reader_.get(), {}, {});
  for (size_t b = 0; b < spec_.branches.size(); ++b) {
    for (uint64_t row = 0; row < spec_.BasketCountPerBranch(); ++row) {
      ASSERT_OK_AND_ASSIGN(auto basket, cache.GetBasket(b, row));
      EXPECT_EQ(*basket, ExpectedBasket(b, row)) << b << "," << row;
    }
  }
}

TEST_F(TreeCacheTest, VectoredReadsPerCluster) {
  TreeCacheConfig config;
  config.cluster_rows = 5;
  TreeCache cache(reader_.get(), {}, config);
  // Sequential pass over all rows, all branches.
  for (uint64_t row = 0; row < spec_.BasketCountPerBranch(); ++row) {
    for (size_t b = 0; b < spec_.branches.size(); ++b) {
      ASSERT_OK_AND_ASSIGN(auto basket, cache.GetBasket(b, row));
      EXPECT_EQ(basket->size(), ExpectedBasket(b, row).size());
    }
  }
  // 10 rows total / 5 per cluster = 2 vectored reads, each covering
  // 5 rows x 3 branches = 15 ranges.
  EXPECT_EQ(cache.stats().vector_reads, 2u);
  EXPECT_EQ(cache.stats().ranges_requested, 30u);
  EXPECT_EQ(cache.stats().single_reads, 0u);
}

TEST_F(TreeCacheTest, DisabledCacheReadsPerBasket) {
  TreeCacheConfig config;
  config.enabled = false;
  TreeCache cache(reader_.get(), {}, config);
  for (uint64_t row = 0; row < 4; ++row) {
    ASSERT_OK_AND_ASSIGN(auto basket, cache.GetBasket(0, row));
    EXPECT_EQ(*basket, ExpectedBasket(0, row));
  }
  EXPECT_EQ(cache.stats().single_reads, 4u);
  EXPECT_EQ(cache.stats().vector_reads, 0u);
}

TEST_F(TreeCacheTest, InactiveBranchFallsBackToSingleRead) {
  TreeCacheConfig config;
  config.cluster_rows = 2;
  TreeCache cache(reader_.get(), {0}, config);  // only branch 0 active
  ASSERT_OK_AND_ASSIGN(auto active, cache.GetBasket(0, 0));
  EXPECT_EQ(*active, ExpectedBasket(0, 0));
  ASSERT_OK_AND_ASSIGN(auto inactive, cache.GetBasket(2, 0));
  EXPECT_EQ(*inactive, ExpectedBasket(2, 0));
  EXPECT_EQ(cache.stats().single_reads, 1u);
}

TEST_F(TreeCacheTest, OutOfRangeRejected) {
  TreeCache cache(reader_.get(), {}, {});
  EXPECT_FALSE(cache.GetBasket(99, 0).ok());
  EXPECT_FALSE(cache.GetBasket(0, 99).ok());
}

// ------------------------------------------------------------- analysis

TEST(AnalysisTest, LocalRunProcessesAllEvents) {
  TreeSpec spec = SmallSpec();
  MemoryFile file(BuildTreeFile(spec, 3));
  AnalysisConfig config;
  config.compute_iterations_per_event = 10;
  ASSERT_OK_AND_ASSIGN(AnalysisReport report, RunAnalysis(&file, config));
  EXPECT_EQ(report.events_processed, spec.n_events);
  EXPECT_GT(report.physics_sum, 0);
  EXPECT_GT(report.io.bytes_fetched, 0u);
}

TEST(AnalysisTest, FractionLimitsEvents) {
  TreeSpec spec = SmallSpec();
  MemoryFile file(BuildTreeFile(spec, 3));
  AnalysisConfig config;
  config.fraction = 0.25;
  config.compute_iterations_per_event = 0;
  ASSERT_OK_AND_ASSIGN(AnalysisReport report, RunAnalysis(&file, config));
  EXPECT_EQ(report.events_processed, spec.n_events / 4);
}

TEST(AnalysisTest, DeterministicAggregate) {
  TreeSpec spec = SmallSpec();
  MemoryFile a(BuildTreeFile(spec, 3));
  MemoryFile b(BuildTreeFile(spec, 3));
  AnalysisConfig config;
  config.compute_iterations_per_event = 5;
  ASSERT_OK_AND_ASSIGN(AnalysisReport ra, RunAnalysis(&a, config));
  ASSERT_OK_AND_ASSIGN(AnalysisReport rb, RunAnalysis(&b, config));
  EXPECT_EQ(ra.physics_sum, rb.physics_sum);
}

TEST(AnalysisTest, SelectedBranchesOnly) {
  TreeSpec spec = SmallSpec();
  MemoryFile file(BuildTreeFile(spec, 3));
  AnalysisConfig config;
  config.branches = {"pt"};
  config.compute_iterations_per_event = 0;
  ASSERT_OK_AND_ASSIGN(AnalysisReport report, RunAnalysis(&file, config));
  // Only the pt branch's baskets were fetched (plus header/index reads).
  AnalysisConfig all_config;
  all_config.compute_iterations_per_event = 0;
  MemoryFile file2(BuildTreeFile(spec, 3));
  ASSERT_OK_AND_ASSIGN(AnalysisReport all, RunAnalysis(&file2, all_config));
  EXPECT_LT(report.io.bytes_fetched, all.io.bytes_fetched);
  EXPECT_FALSE(RunAnalysis(&file, [] {
                 AnalysisConfig c;
                 c.branches = {"missing-branch"};
                 return c;
               }())
                   .ok());
}

// ------------------------------------------- cross-transport equivalence

class TransportEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = SmallSpec();
    tree_bytes_ = BuildTreeFile(spec_, 77);

    // HTTP server.
    http_server_ = testing::StartStorageServer();
    http_server_.store->Put("/tree.rnt", tree_bytes_);

    // xrootd server sharing the same store.
    auto xrd = xrootd::XrdServer::Start({}, http_server_.store);
    ASSERT_TRUE(xrd.ok());
    xrd_server_ = std::move(*xrd);

    context_ = std::make_unique<core::Context>();
  }

  AnalysisConfig Config() {
    AnalysisConfig config;
    config.compute_iterations_per_event = 2;
    config.cache.cluster_rows = 3;
    return config;
  }

  TreeSpec spec_;
  std::string tree_bytes_;
  testing::TestStorageServer http_server_;
  std::unique_ptr<xrootd::XrdServer> xrd_server_;
  std::unique_ptr<core::Context> context_;
};

TEST_F(TransportEquivalenceTest, LocalDavixXrootdAgree) {
  // Local truth.
  MemoryFile local(tree_bytes_);
  ASSERT_OK_AND_ASSIGN(AnalysisReport local_report,
                       RunAnalysis(&local, Config()));

  // davix / HTTP.
  core::RequestParams params;
  params.metalink_mode = core::MetalinkMode::kDisabled;
  ASSERT_OK_AND_ASSIGN(
      auto davix_file,
      DavixRandomAccessFile::Open(
          context_.get(), http_server_.UrlFor("/tree.rnt"), params));
  ASSERT_OK_AND_ASSIGN(AnalysisReport davix_report,
                       RunAnalysis(davix_file.get(), Config()));

  // xrootd.
  ASSERT_OK_AND_ASSIGN(auto xrd_client, xrootd::XrdClient::Connect(
                                            "127.0.0.1", xrd_server_->port()));
  ASSERT_OK(xrd_client->Login());
  ASSERT_OK_AND_ASSIGN(auto xrd_file,
                       XrdRandomAccessFile::Open(xrd_client.get(),
                                                 "/tree.rnt"));
  ASSERT_OK_AND_ASSIGN(AnalysisReport xrd_report,
                       RunAnalysis(xrd_file.get(), Config()));

  EXPECT_EQ(local_report.physics_sum, davix_report.physics_sum);
  EXPECT_EQ(local_report.physics_sum, xrd_report.physics_sum);
  EXPECT_EQ(davix_report.events_processed, spec_.n_events);
  EXPECT_EQ(xrd_report.events_processed, spec_.n_events);
}

TEST_F(TransportEquivalenceTest, AsyncPrefetchPreservesResults) {
  ASSERT_OK_AND_ASSIGN(auto xrd_client, xrootd::XrdClient::Connect(
                                            "127.0.0.1", xrd_server_->port()));
  ASSERT_OK(xrd_client->Login());
  ASSERT_OK_AND_ASSIGN(auto xrd_file,
                       XrdRandomAccessFile::Open(xrd_client.get(),
                                                 "/tree.rnt"));
  AnalysisConfig sync_config = Config();
  AnalysisConfig async_config = Config();
  async_config.cache.async_prefetch = true;
  async_config.cache.prefetch_window_bytes = 0;  // whole next cluster

  ASSERT_OK_AND_ASSIGN(AnalysisReport sync_report,
                       RunAnalysis(xrd_file.get(), sync_config));
  ASSERT_OK_AND_ASSIGN(AnalysisReport async_report,
                       RunAnalysis(xrd_file.get(), async_config));
  EXPECT_EQ(sync_report.physics_sum, async_report.physics_sum);
  EXPECT_GT(async_report.io.async_prefetches, 0u);
}

TEST_F(TransportEquivalenceTest, PrefetchWindowCapPreservesResults) {
  ASSERT_OK_AND_ASSIGN(auto xrd_client, xrootd::XrdClient::Connect(
                                            "127.0.0.1", xrd_server_->port()));
  ASSERT_OK(xrd_client->Login());
  ASSERT_OK_AND_ASSIGN(auto xrd_file,
                       XrdRandomAccessFile::Open(xrd_client.get(),
                                                 "/tree.rnt"));
  MemoryFile local(tree_bytes_);
  ASSERT_OK_AND_ASSIGN(AnalysisReport truth, RunAnalysis(&local, Config()));

  AnalysisConfig config = Config();
  config.cache.async_prefetch = true;
  config.cache.prefetch_window_bytes = 4096;  // tiny window: partial prefetch
  ASSERT_OK_AND_ASSIGN(AnalysisReport report,
                       RunAnalysis(xrd_file.get(), config));
  EXPECT_EQ(report.physics_sum, truth.physics_sum);
}

TEST_F(TransportEquivalenceTest, AdaptiveLatchGatesPrefetchByLatency) {
  ASSERT_OK_AND_ASSIGN(auto xrd_client, xrootd::XrdClient::Connect(
                                            "127.0.0.1", xrd_server_->port()));
  ASSERT_OK(xrd_client->Login());
  ASSERT_OK_AND_ASSIGN(auto xrd_file,
                       XrdRandomAccessFile::Open(xrd_client.get(),
                                                 "/tree.rnt"));
  // Huge threshold: loopback fetches never cross it -> only the first
  // fill goes early (one pipeline's worth), and it is never refilled.
  AnalysisConfig gated = Config();
  gated.cache.async_prefetch = true;
  gated.cache.prefetch_latency_threshold_micros = 60'000'000;
  ASSERT_OK_AND_ASSIGN(AnalysisReport gated_report,
                       RunAnalysis(xrd_file.get(), gated));
  EXPECT_EQ(gated_report.io.async_prefetches,
            gated.cache.prefetch_pipeline_clusters);

  // Zero threshold: unconditional -> prefetches happen.
  AnalysisConfig open = Config();
  open.cache.async_prefetch = true;
  open.cache.prefetch_latency_threshold_micros = 0;
  ASSERT_OK_AND_ASSIGN(AnalysisReport open_report,
                       RunAnalysis(xrd_file.get(), open));
  EXPECT_GT(open_report.io.async_prefetches, 0u);
  EXPECT_EQ(gated_report.physics_sum, open_report.physics_sum);
}

TEST_F(TransportEquivalenceTest, NaiveModeAgreesButCostsMoreReads) {
  core::RequestParams params;
  params.metalink_mode = core::MetalinkMode::kDisabled;
  ASSERT_OK_AND_ASSIGN(
      auto davix_file,
      DavixRandomAccessFile::Open(
          context_.get(), http_server_.UrlFor("/tree.rnt"), params));

  MemoryFile local(tree_bytes_);
  ASSERT_OK_AND_ASSIGN(AnalysisReport truth, RunAnalysis(&local, Config()));

  AnalysisConfig naive = Config();
  naive.cache.enabled = false;
  ASSERT_OK_AND_ASSIGN(AnalysisReport report,
                       RunAnalysis(davix_file.get(), naive));
  EXPECT_EQ(report.physics_sum, truth.physics_sum);
  // 10 rows x 3 branches = 30 individual reads vs 4 vectored ones.
  EXPECT_EQ(report.io.single_reads, 30u);
}

}  // namespace
}  // namespace root
}  // namespace davix
