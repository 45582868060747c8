// core::BlockCache: unit coverage of the sharded LRU block store
// (slicing, lookup, eviction, validator invalidation, concurrency) plus
// integration through the real read paths — DavPosix::Read/PRead, the
// asynchronous read-ahead window, and ReadPartialVec — against the
// embedded WebDAV server.

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/block_cache.h"
#include "core/context.h"
#include "core/dav_file.h"
#include "core/dav_posix.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace davix {
namespace core {
namespace {

using ::davix::testing::TestStorageServer;

constexpr uint64_t kBlock = 1024;

BlockCacheConfig SmallCache(uint64_t capacity = 64 * kBlock,
                            size_t shards = 2) {
  BlockCacheConfig config;
  config.capacity_bytes = capacity;
  config.block_bytes = kBlock;
  config.shards = shards;
  return config;
}

BlockValidator V(const std::string& etag) {
  BlockValidator v;
  v.etag = etag;
  return v;
}

std::string Pattern(size_t size, char seed = 0) {
  std::string out(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<char>((i * 31 + seed) & 0xff);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Unit: slicing, lookup, alignment.
// ---------------------------------------------------------------------------

TEST(BlockCacheTest, DisabledCacheNoOps) {
  BlockCache cache(BlockCacheConfig{});  // capacity 0
  EXPECT_FALSE(cache.enabled());
  cache.Insert("k", V("\"e1\""), 0, Pattern(4 * kBlock), 4 * kBlock);
  std::string out;
  EXPECT_FALSE(cache.TryReadFull("k", 0, kBlock, &out));
  std::string buf(kBlock, '\0');
  EXPECT_EQ(cache.ReadPrefix("k", 0, kBlock, buf.data()), 0u);
  IoCounters counters = cache.stats();
  EXPECT_EQ(counters.cache_insertions, 0u);
  EXPECT_EQ(counters.cache_hits, 0u);
  EXPECT_EQ(counters.cache_misses, 0u);
}

TEST(BlockCacheTest, InsertsOnlyFullyCoveredBlocks) {
  BlockCache cache(SmallCache());
  std::string data = Pattern(3 * kBlock);
  // Span [100, 100 + 3 blocks): covers blocks 1 and 2 fully, 0 and 3
  // partially — only 1 and 2 become cache lines.
  cache.Insert("k", V("\"e1\""), 100, data);
  EXPECT_EQ(cache.stats().cache_insertions, 2u);

  std::string out;
  EXPECT_FALSE(cache.TryReadFull("k", 0, kBlock, &out));
  EXPECT_TRUE(cache.TryReadFull("k", kBlock, 2 * kBlock, &out));
  EXPECT_EQ(out, data.substr(kBlock - 100, 2 * kBlock));
}

TEST(BlockCacheTest, FinalShortBlockRequiresKnownSize) {
  BlockCache cache(SmallCache());
  const uint64_t total = 2 * kBlock + 700;
  std::string data = Pattern(total);

  // Without total_size the trailing 700 bytes are not provably final.
  cache.Insert("k1", V("\"e\""), 0, data);
  EXPECT_EQ(cache.stats().cache_insertions, 2u);
  std::string out;
  EXPECT_FALSE(cache.TryReadFull("k1", 2 * kBlock, 700, &out));

  // With it, the short final block is cached and served.
  cache.Insert("k2", V("\"e\""), 0, data, total);
  EXPECT_TRUE(cache.TryReadFull("k2", 2 * kBlock, 700, &out));
  EXPECT_EQ(out, data.substr(2 * kBlock));
  // The whole object round-trips, short tail included.
  EXPECT_TRUE(cache.TryReadFull("k2", 0, total, &out));
  EXPECT_EQ(out, data);
}

TEST(BlockCacheTest, PrefixAndSuffixCarving) {
  BlockCache cache(SmallCache());
  std::string data = Pattern(8 * kBlock);
  // Cache blocks 0-1 and 5-7; leave 2-4 missing.
  cache.Insert("k", V("\"e\""), 0, std::string_view(data).substr(0, 2 * kBlock),
               8 * kBlock);
  cache.Insert("k", V("\"e\""), 5 * kBlock,
               std::string_view(data).substr(5 * kBlock), 8 * kBlock);

  std::string buf(8 * kBlock, '\0');
  uint64_t prefix = cache.ReadPrefix("k", 0, 8 * kBlock, buf.data());
  EXPECT_EQ(prefix, 2 * kBlock);
  uint64_t suffix = cache.ReadSuffix("k", prefix, 8 * kBlock - prefix,
                                     buf.data() + prefix);
  EXPECT_EQ(suffix, 3 * kBlock);
  EXPECT_EQ(buf.substr(0, 2 * kBlock), data.substr(0, 2 * kBlock));
  EXPECT_EQ(buf.substr(5 * kBlock), data.substr(5 * kBlock));
}

TEST(BlockCacheTest, BlockStraddlingUnalignedRead) {
  BlockCache cache(SmallCache());
  std::string data = Pattern(4 * kBlock);
  cache.Insert("k", V("\"e\""), 0, data, 4 * kBlock);
  // An unaligned span straddling three blocks is stitched seamlessly.
  std::string out;
  EXPECT_TRUE(cache.TryReadFull("k", kBlock - 17, 2 * kBlock + 40, &out));
  EXPECT_EQ(out, data.substr(kBlock - 17, 2 * kBlock + 40));
}

// ---------------------------------------------------------------------------
// Unit: budget, LRU order, invalidation.
// ---------------------------------------------------------------------------

TEST(BlockCacheTest, LruEvictionUnderMemoryPressure) {
  // 1 shard, room for 4 blocks.
  BlockCache cache(SmallCache(4 * kBlock, 1));
  std::string data = Pattern(8 * kBlock);
  cache.Insert("k", V("\"e\""), 0, std::string_view(data).substr(0, 4 * kBlock),
               8 * kBlock);
  EXPECT_EQ(cache.Residency().resident_blocks, 4u);

  // Touch block 0 so block 1 is the LRU tail, then insert two more.
  std::string out;
  EXPECT_TRUE(cache.TryReadFull("k", 0, kBlock, &out));
  cache.Insert("k", V("\"e\""), 4 * kBlock,
               std::string_view(data).substr(4 * kBlock, 2 * kBlock),
               8 * kBlock);

  BlockCacheResidency counters = cache.Residency();
  EXPECT_EQ(counters.resident_blocks, 4u);
  EXPECT_EQ(cache.stats().cache_evictions, 2u);
  EXPECT_LE(counters.resident_bytes, 4 * kBlock);
  EXPECT_TRUE(cache.TryReadFull("k", 0, kBlock, &out));   // recently touched
  EXPECT_FALSE(cache.TryReadFull("k", kBlock, kBlock, &out));  // evicted
  EXPECT_TRUE(cache.TryReadFull("k", 4 * kBlock, kBlock, &out));
}

TEST(BlockCacheTest, OversizedBlockNeverCached) {
  BlockCacheConfig config;
  config.capacity_bytes = 2 * kBlock;
  config.block_bytes = 4 * kBlock;  // a single block exceeds the budget
  config.shards = 1;
  BlockCache cache(config);
  cache.Insert("k", V("\"e\""), 0, Pattern(4 * kBlock), 4 * kBlock);
  EXPECT_EQ(cache.Residency().resident_blocks, 0u);
}

TEST(BlockCacheTest, ValidatorMismatchInvalidates) {
  BlockCache cache(SmallCache());
  std::string v1 = Pattern(2 * kBlock, 1);
  std::string v2 = Pattern(2 * kBlock, 2);
  cache.Insert("k", V("\"gen1\""), 0, v1, 2 * kBlock);
  std::string out;
  ASSERT_TRUE(cache.TryReadFull("k", 0, 2 * kBlock, &out));
  EXPECT_EQ(out, v1);

  // NoteValidator with the same generation keeps the blocks...
  EXPECT_FALSE(cache.NoteValidator("k", V("\"gen1\"")));
  EXPECT_TRUE(cache.HasUrl("k"));
  // ...a new generation drops them before any stale byte is served.
  EXPECT_TRUE(cache.NoteValidator("k", V("\"gen2\"")));
  EXPECT_FALSE(cache.HasUrl("k"));
  EXPECT_FALSE(cache.TryReadFull("k", 0, 2 * kBlock, &out));
  EXPECT_EQ(cache.stats().cache_invalidations, 2u);

  // A fill of the new generation mixes with nothing old.
  cache.Insert("k", V("\"gen2\""), 0, v2, 2 * kBlock);
  ASSERT_TRUE(cache.TryReadFull("k", 0, 2 * kBlock, &out));
  EXPECT_EQ(out, v2);
}

TEST(BlockCacheTest, FillWithNewValidatorReplacesOldGeneration) {
  BlockCache cache(SmallCache());
  std::string v1 = Pattern(4 * kBlock, 1);
  std::string v2 = Pattern(2 * kBlock, 2);
  cache.Insert("k", V("\"gen1\""), 0, v1, 4 * kBlock);
  // Insert carrying different validators purges first: blocks 2-3 of
  // gen1 must not survive next to gen2's blocks 0-1.
  cache.Insert("k", V("\"gen2\""), 0, v2, 4 * kBlock);
  std::string out;
  EXPECT_TRUE(cache.TryReadFull("k", 0, 2 * kBlock, &out));
  EXPECT_EQ(out, v2);
  EXPECT_FALSE(cache.TryReadFull("k", 2 * kBlock, kBlock, &out));
}

TEST(BlockCacheTest, UrlKeyCanonicalisation) {
  auto key = [](const char* url) {
    return BlockCache::UrlKey(*Uri::Parse(url));
  };
  // Default port is made explicit; userinfo and fragment are dropped.
  EXPECT_EQ(key("http://host/f.bin"), key("http://host:80/f.bin"));
  EXPECT_EQ(key("http://user@host/f.bin#frag"), key("http://host/f.bin"));
  // Query strings identify distinct resources.
  EXPECT_NE(key("http://host/f.bin?a=1"), key("http://host/f.bin"));
  EXPECT_NE(key("http://host:81/f.bin"), key("http://host:80/f.bin"));
}

// ---------------------------------------------------------------------------
// Unit: concurrency — eviction racing in-flight fills and lookups.
// ---------------------------------------------------------------------------

TEST(BlockCacheTest, ConcurrentFillLookupEvictInvalidate) {
  // A budget far smaller than the working set keeps eviction constantly
  // racing the fills; a sweeper thread invalidates whole URLs under the
  // readers. Correctness bar: served bytes always match the pattern for
  // their URL generation, and residency never exceeds the budget.
  BlockCache cache(SmallCache(8 * kBlock, 2));
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::atomic<bool> corrupt{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Spelled without operator+ to dodge GCC 12's -Wrestrict false
      // positive on small-string concatenation inside thread lambdas.
      std::string url("u0");
      url[1] = static_cast<char>('0' + t % 3);
      char seed = static_cast<char>(t % 3);
      std::string data = Pattern(4 * kBlock, seed);
      for (int i = 0; i < kIters; ++i) {
        cache.Insert(url, V("\"g\""), 0, data, 4 * kBlock);
        std::string out;
        uint64_t offset = (i % 4) * kBlock;
        if (cache.TryReadFull(url, offset, kBlock, &out)) {
          if (out != data.substr(offset, kBlock)) corrupt.store(true);
        }
        if (i % 97 == 0) cache.PurgeUrl(url);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(corrupt.load());
  BlockCacheResidency counters = cache.Residency();
  EXPECT_LE(counters.resident_bytes, 8 * kBlock);
}

// ---------------------------------------------------------------------------
// Integration: the cache behind the real read paths.
// ---------------------------------------------------------------------------

class BlockCacheIntegrationTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kCacheBlock = 8 * 1024;

  void SetUp() override {
    server_ = testing::StartStorageServer();
    Rng rng(11);
    content_ = rng.Bytes(200'000);  // ~24 blocks + short tail
    server_.store->Put("/f.bin", content_);
    BlockCacheConfig cache_config;
    cache_config.capacity_bytes = 16 * 1024 * 1024;
    cache_config.block_bytes = kCacheBlock;
    context_ = std::make_unique<Context>(SessionPoolConfig{}, 0, cache_config);
    posix_ = std::make_unique<DavPosix>(context_.get());
    params_.metalink_mode = MetalinkMode::kDisabled;
  }

  uint64_t ServerGets() const {
    return server_.handler->stats().get_requests.load();
  }

  TestStorageServer server_;
  std::string content_;
  std::unique_ptr<Context> context_;
  std::unique_ptr<DavPosix> posix_;
  RequestParams params_;
};

TEST_F(BlockCacheIntegrationTest, WarmPReadServedWithoutWireTraffic) {
  ASSERT_OK_AND_ASSIGN(int fd, posix_->Open(server_.UrlFor("/f.bin"), params_));
  ASSERT_OK_AND_ASSIGN(std::string cold,
                       posix_->PRead(fd, 0, content_.size()));
  EXPECT_EQ(cold, content_);
  uint64_t gets_after_cold = ServerGets();
  EXPECT_GT(gets_after_cold, 0u);

  // Same read again: every block (short tail included) is cached.
  ASSERT_OK_AND_ASSIGN(std::string warm,
                       posix_->PRead(fd, 0, content_.size()));
  EXPECT_EQ(warm, content_);
  EXPECT_EQ(ServerGets(), gets_after_cold);
  IoCounters io = context_->SnapshotCounters();
  EXPECT_GT(io.cache_hits, 0u);
  EXPECT_GE(io.cache_bytes_saved, content_.size());
  ASSERT_OK(posix_->Close(fd));
}

TEST_F(BlockCacheIntegrationTest, StraddlingReadsMixCacheAndWire) {
  ASSERT_OK_AND_ASSIGN(int fd, posix_->Open(server_.UrlFor("/f.bin"), params_));
  // Cache exactly blocks 0-1 via an aligned read.
  ASSERT_OK_AND_ASSIGN(std::string head,
                       posix_->PRead(fd, 0, 2 * kCacheBlock));
  EXPECT_EQ(head, content_.substr(0, 2 * kCacheBlock));

  // A read straddling the cached/uncached boundary: the cached prefix
  // comes from memory, only the suffix hits the wire — and the bytes
  // are stitched correctly.
  ASSERT_OK_AND_ASSIGN(
      std::string straddle,
      posix_->PRead(fd, kCacheBlock - 100, 2 * kCacheBlock));
  EXPECT_EQ(straddle, content_.substr(kCacheBlock - 100, 2 * kCacheBlock));
  IoCounters io = context_->SnapshotCounters();
  EXPECT_GT(io.cache_bytes_saved, 0u);
  ASSERT_OK(posix_->Close(fd));
}

TEST_F(BlockCacheIntegrationTest, VectoredWarmRangesCarvedOut) {
  ASSERT_OK_AND_ASSIGN(int fd, posix_->Open(server_.UrlFor("/f.bin"), params_));
  std::vector<http::ByteRange> ranges = {
      {0, 3 * kCacheBlock}, {10 * kCacheBlock, 2 * kCacheBlock}};
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> cold,
                       posix_->PReadVec(fd, ranges));
  uint64_t gets_after_cold = ServerGets();

  // Warm: both ranges fully cached, the vectored call issues nothing.
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> warm,
                       posix_->PReadVec(fd, ranges));
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(ServerGets(), gets_after_cold);

  // Mixed: one warm range, one new — only the new span hits the wire.
  std::vector<http::ByteRange> mixed = {
      {0, 3 * kCacheBlock}, {15 * kCacheBlock, kCacheBlock}};
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> got,
                       posix_->PReadVec(fd, mixed));
  EXPECT_EQ(got[0], content_.substr(0, 3 * kCacheBlock));
  EXPECT_EQ(got[1], content_.substr(15 * kCacheBlock, kCacheBlock));
  EXPECT_EQ(ServerGets(), gets_after_cold + 1);
  ASSERT_OK(posix_->Close(fd));
}

TEST_F(BlockCacheIntegrationTest, ReadAheadWindowPublishesAndConsumes) {
  params_.readahead_bytes = 16 * 1024;
  params_.readahead_window_chunks = 3;
  const std::atomic<uint64_t>& heads = server_.handler->stats().head_requests;
  const uint64_t heads_before = heads.load();
  ASSERT_OK_AND_ASSIGN(int fd, posix_->Open(server_.UrlFor("/f.bin"), params_));
  // Nothing resident: the open is the window's first chunks, no HEAD.
  EXPECT_EQ(heads.load(), heads_before);
  std::string streamed;
  while (true) {
    ASSERT_OK_AND_ASSIGN(std::string chunk, posix_->Read(fd, 20'000));
    if (chunk.empty()) break;
    streamed += chunk;
  }
  EXPECT_EQ(streamed, content_);
  ASSERT_OK(posix_->Close(fd));
  uint64_t gets_after_cold = ServerGets();

  // Second streaming pass: the window's probe serves every chunk from
  // the cache — zero range-GETs on the wire. With blocks resident (chunk
  // 0 included, published by the cold open), the open is one HEAD: the
  // kOnOpen revalidation.
  ASSERT_OK_AND_ASSIGN(int fd2,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  EXPECT_EQ(heads.load(), heads_before + 1);
  std::string warm;
  while (true) {
    ASSERT_OK_AND_ASSIGN(std::string chunk, posix_->Read(fd2, 20'000));
    if (chunk.empty()) break;
    warm += chunk;
  }
  EXPECT_EQ(warm, content_);
  EXPECT_EQ(ServerGets(), gets_after_cold);
  ASSERT_OK(posix_->Close(fd2));
}

TEST_F(BlockCacheIntegrationTest, SeekDuringWindowedReadStaysCorrect) {
  params_.readahead_bytes = 16 * 1024;
  params_.readahead_window_chunks = 3;
  ASSERT_OK_AND_ASSIGN(int fd, posix_->Open(server_.UrlFor("/f.bin"), params_));
  ASSERT_OK_AND_ASSIGN(std::string first, posix_->Read(fd, 30'000));
  EXPECT_EQ(first, content_.substr(0, 30'000));
  // Out-of-window backward seek invalidates the prefetch; the re-seeded
  // window must serve the already-cached prefix from memory and stay
  // byte-correct.
  ASSERT_OK_AND_ASSIGN(uint64_t pos, posix_->LSeek(fd, 0, 0));
  EXPECT_EQ(pos, 0u);
  ASSERT_OK_AND_ASSIGN(std::string again, posix_->Read(fd, 30'000));
  EXPECT_EQ(again, content_.substr(0, 30'000));
  ASSERT_OK(posix_->Close(fd));
}

TEST_F(BlockCacheIntegrationTest, OpenRevalidationDropsStaleBlocks) {
  ASSERT_OK_AND_ASSIGN(int fd, posix_->Open(server_.UrlFor("/f.bin"), params_));
  ASSERT_OK_AND_ASSIGN(std::string cold, posix_->PRead(fd, 0, 50'000));
  EXPECT_EQ(cold, content_.substr(0, 50'000));
  ASSERT_OK(posix_->Close(fd));

  // The object is replaced server-side (new ETag). The default kOnOpen
  // policy revalidates at Open: the next read must see the new bytes,
  // not the cached generation.
  std::string replacement = Rng(12).Bytes(content_.size());
  server_.store->Put("/f.bin", replacement);
  ASSERT_OK_AND_ASSIGN(int fd2,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  ASSERT_OK_AND_ASSIGN(std::string fresh, posix_->PRead(fd2, 0, 50'000));
  EXPECT_EQ(fresh, replacement.substr(0, 50'000));
  ASSERT_OK(posix_->Close(fd2));
}

TEST_F(BlockCacheIntegrationTest, AlwaysRevalidationCatchesMidDescriptorChange) {
  params_.cache_revalidation = CacheRevalidatePolicy::kAlways;
  ASSERT_OK_AND_ASSIGN(int fd, posix_->Open(server_.UrlFor("/f.bin"), params_));
  ASSERT_OK_AND_ASSIGN(std::string cold, posix_->PRead(fd, 0, 50'000));
  EXPECT_EQ(cold, content_.substr(0, 50'000));

  // Replace the object while the descriptor stays open: kAlways HEADs
  // before serving cached blocks and must observe the new generation.
  std::string replacement = Rng(13).Bytes(content_.size());
  server_.store->Put("/f.bin", replacement);
  ASSERT_OK_AND_ASSIGN(std::string fresh, posix_->PRead(fd, 0, 50'000));
  EXPECT_EQ(fresh, replacement.substr(0, 50'000));
  ASSERT_OK(posix_->Close(fd));
}

TEST_F(BlockCacheIntegrationTest, AlwaysRevalidationAppliesToWindowedReads) {
  // kAlways disables the read-ahead window's cache probe: cached chunks
  // must flow through the fetch path, whose HEAD revalidation observes
  // a mid-stream replacement — the window may never serve stale blocks
  // under the strongest freshness policy.
  params_.cache_revalidation = CacheRevalidatePolicy::kAlways;
  params_.readahead_bytes = 16 * 1024;
  params_.readahead_window_chunks = 3;
  ASSERT_OK_AND_ASSIGN(int fd, posix_->Open(server_.UrlFor("/f.bin"), params_));
  std::string cold;
  while (true) {
    ASSERT_OK_AND_ASSIGN(std::string chunk, posix_->Read(fd, 20'000));
    if (chunk.empty()) break;
    cold += chunk;
  }
  EXPECT_EQ(cold, content_);
  ASSERT_OK(posix_->Close(fd));

  std::string replacement = Rng(14).Bytes(content_.size());
  server_.store->Put("/f.bin", replacement);
  ASSERT_OK_AND_ASSIGN(int fd2,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  std::string fresh;
  while (true) {
    ASSERT_OK_AND_ASSIGN(std::string chunk, posix_->Read(fd2, 20'000));
    if (chunk.empty()) break;
    fresh += chunk;
  }
  EXPECT_EQ(fresh, replacement);
  ASSERT_OK(posix_->Close(fd2));
}

TEST_F(BlockCacheIntegrationTest, GenerationChangeMidReadNeverTearsBytes) {
  // Even under kNever, a read that mixes cached bytes with a network
  // fill whose validators reveal a replaced object must not return a
  // stitched buffer of two generations: the dispatch detects the purge
  // and refetches coherently with the cache bypassed.
  params_.cache_revalidation = CacheRevalidatePolicy::kNever;
  ASSERT_OK_AND_ASSIGN(int fd, posix_->Open(server_.UrlFor("/f.bin"), params_));
  ASSERT_OK_AND_ASSIGN(std::string head,
                       posix_->PRead(fd, 0, 2 * kCacheBlock));
  EXPECT_EQ(head, content_.substr(0, 2 * kCacheBlock));

  std::string replacement = Rng(15).Bytes(content_.size());
  server_.store->Put("/f.bin", replacement);

  // Prefix would come from the gen-A cache, the tail from the gen-B
  // wire; the result must be pure gen-B.
  ASSERT_OK_AND_ASSIGN(std::string got,
                       posix_->PRead(fd, 0, 4 * kCacheBlock));
  EXPECT_EQ(got, replacement.substr(0, 4 * kCacheBlock));
  ASSERT_OK(posix_->Close(fd));
}

TEST_F(BlockCacheIntegrationTest, DisabledCacheIsBitIdentical) {
  // A cache-less Context and a per-request opt-out must both produce
  // byte-identical reads with identical wire behaviour.
  Context plain_context;
  DavPosix plain(&plain_context);
  ASSERT_OK_AND_ASSIGN(int fd_plain,
                       plain.Open(server_.UrlFor("/f.bin"), params_));
  uint64_t gets_before = ServerGets();
  ASSERT_OK_AND_ASSIGN(std::string a, plain.PRead(fd_plain, 100, 60'000));
  ASSERT_OK_AND_ASSIGN(std::string b, plain.PRead(fd_plain, 100, 60'000));
  uint64_t plain_gets = ServerGets() - gets_before;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, content_.substr(100, 60'000));
  EXPECT_EQ(plain_gets, 2u);  // no cache: both reads hit the wire
  EXPECT_EQ(plain_context.SnapshotCounters().cache_hits, 0u);
  ASSERT_OK(plain.Close(fd_plain));

  // Opt-out on a cache-enabled Context behaves the same way.
  RequestParams bypass = params_;
  bypass.use_block_cache = false;
  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/f.bin"), bypass));
  gets_before = ServerGets();
  ASSERT_OK_AND_ASSIGN(std::string c, posix_->PRead(fd, 100, 60'000));
  ASSERT_OK_AND_ASSIGN(std::string d, posix_->PRead(fd, 100, 60'000));
  EXPECT_EQ(ServerGets() - gets_before, 2u);
  EXPECT_EQ(c, a);
  EXPECT_EQ(d, a);
  EXPECT_EQ(context_->SnapshotCounters().cache_bytes_saved, 0u);
  ASSERT_OK(posix_->Close(fd));
}

TEST_F(BlockCacheIntegrationTest, EvictionPressureKeepsReadsCorrect) {
  // A Context whose cache holds only a sliver of the object: constant
  // eviction while the dispatcher fills concurrently. Reads must stay
  // correct and residency bounded.
  BlockCacheConfig tiny;
  tiny.capacity_bytes = 4 * kCacheBlock;
  tiny.block_bytes = kCacheBlock;
  tiny.shards = 1;
  Context context(SessionPoolConfig{}, 0, tiny);
  DavPosix posix(&context);
  ASSERT_OK_AND_ASSIGN(int fd, posix.Open(server_.UrlFor("/f.bin"), params_));
  for (int pass = 0; pass < 3; ++pass) {
    ASSERT_OK_AND_ASSIGN(std::string all,
                         posix.PRead(fd, 0, content_.size()));
    EXPECT_EQ(all, content_);
  }
  BlockCacheResidency counters = context.block_cache().Residency();
  EXPECT_GT(context.block_cache().stats().cache_evictions, 0u);
  EXPECT_LE(counters.resident_bytes, tiny.capacity_bytes);
  ASSERT_OK(posix.Close(fd));
}

}  // namespace
}  // namespace core
}  // namespace davix
