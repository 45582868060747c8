#include <algorithm>
#include <atomic>
#include <thread>

#include "common/clock.h"
#include "common/rng.h"
#include "core/context.h"
#include "core/dav_posix.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace davix {
namespace core {
namespace {

using ::davix::testing::TestStorageServer;

class DavPosixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = testing::StartStorageServer();
    Rng rng(7);
    content_ = rng.Bytes(100'000);
    server_.store->Put("/f.bin", content_);
    context_ = std::make_unique<Context>();
    posix_ = std::make_unique<DavPosix>(context_.get());
    params_.metalink_mode = MetalinkMode::kDisabled;
  }

  TestStorageServer server_;
  std::string content_;
  std::unique_ptr<Context> context_;
  std::unique_ptr<DavPosix> posix_;
  RequestParams params_;
};

TEST_F(DavPosixTest, OpenReadClose) {
  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  ASSERT_OK_AND_ASSIGN(std::string first, posix_->Read(fd, 1000));
  EXPECT_EQ(first, content_.substr(0, 1000));
  ASSERT_OK_AND_ASSIGN(std::string second, posix_->Read(fd, 1000));
  EXPECT_EQ(second, content_.substr(1000, 1000));
  ASSERT_OK(posix_->Close(fd));
  EXPECT_FALSE(posix_->Read(fd, 1).ok());  // closed descriptor
  EXPECT_EQ(posix_->OpenCount(), 0u);
}

TEST_F(DavPosixTest, OpenMissingFails) {
  EXPECT_FALSE(posix_->Open(server_.UrlFor("/absent"), params_).ok());
  // A cold windowed open learns existence from the window's chunk 0.
  params_.readahead_bytes = 4096;
  params_.readahead_window_chunks = 4;
  EXPECT_EQ(posix_->Open(server_.UrlFor("/absent"), params_).status().code(),
            StatusCode::kNotFound);
  // Tearing down right away joins the dispatcher: the open's other
  // fetches (at most W - 1 more 404s) are finished, none still running.
  posix_.reset();
  context_.reset();
  const httpd::DavHandlerStats& stats = server_.handler->stats();
  uint64_t gets = stats.get_requests.load();
  EXPECT_LE(gets, 4u);
  SleepForMicros(20'000);
  EXPECT_EQ(stats.get_requests.load(), gets);
}

TEST_F(DavPosixTest, ReadToEofReturnsShortThenEmpty) {
  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  ASSERT_OK_AND_ASSIGN(uint64_t pos,
                       posix_->LSeek(fd, -100, 2));  // SEEK_END
  EXPECT_EQ(pos, content_.size() - 100);
  ASSERT_OK_AND_ASSIGN(std::string tail, posix_->Read(fd, 5000));
  EXPECT_EQ(tail, content_.substr(content_.size() - 100));
  ASSERT_OK_AND_ASSIGN(std::string empty, posix_->Read(fd, 100));
  EXPECT_TRUE(empty.empty());
}

TEST_F(DavPosixTest, LSeekModes) {
  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  ASSERT_OK_AND_ASSIGN(uint64_t set, posix_->LSeek(fd, 500, 0));
  EXPECT_EQ(set, 500u);
  ASSERT_OK_AND_ASSIGN(uint64_t cur, posix_->LSeek(fd, 250, 1));
  EXPECT_EQ(cur, 750u);
  EXPECT_FALSE(posix_->LSeek(fd, -10'000'000, 1).ok());
  EXPECT_FALSE(posix_->LSeek(fd, 0, 9).ok());
}

TEST_F(DavPosixTest, PReadDoesNotMoveCursor) {
  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  ASSERT_OK_AND_ASSIGN(std::string at, posix_->PRead(fd, 5000, 100));
  EXPECT_EQ(at, content_.substr(5000, 100));
  ASSERT_OK_AND_ASSIGN(std::string sequential, posix_->Read(fd, 10));
  EXPECT_EQ(sequential, content_.substr(0, 10));  // cursor untouched
}

TEST_F(DavPosixTest, PReadPastEofIsEmpty) {
  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  ASSERT_OK_AND_ASSIGN(std::string data,
                       posix_->PRead(fd, content_.size() + 10, 10));
  EXPECT_TRUE(data.empty());
}

TEST_F(DavPosixTest, PReadVecClampsAtEof) {
  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  std::vector<http::ByteRange> ranges = {
      {10, 10},
      {content_.size() - 5, 100},   // clamped to 5
      {content_.size() + 50, 10}};  // fully past EOF
  ASSERT_OK_AND_ASSIGN(auto results, posix_->PReadVec(fd, ranges));
  EXPECT_EQ(results[0], content_.substr(10, 10));
  EXPECT_EQ(results[1], content_.substr(content_.size() - 5));
  EXPECT_TRUE(results[2].empty());
}

TEST_F(DavPosixTest, ReadAheadServesFromBuffer) {
  params_.readahead_bytes = 32 * 1024;
  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  context_->ResetCounters();
  std::string assembled;
  for (int i = 0; i < 32; ++i) {
    ASSERT_OK_AND_ASSIGN(std::string chunk, posix_->Read(fd, 1024));
    assembled += chunk;
  }
  EXPECT_EQ(assembled, content_.substr(0, 32 * 1024));
  // One read-ahead fetch instead of 32 individual GETs.
  EXPECT_EQ(context_->SnapshotCounters().requests, 1u);
}

TEST_F(DavPosixTest, ReadAheadStraddleServesBufferedPrefix) {
  // A read straddling the end of the synchronous buffer serves the
  // buffered prefix and fetches only the missing suffix: no
  // already-buffered byte crosses the wire twice.
  params_.readahead_bytes = 10'000;
  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  ASSERT_OK(posix_->LSeek(fd, 85'000, 0).status());
  context_->ResetCounters();

  // Fills the buffer with [85'000, 95'000).
  ASSERT_OK_AND_ASSIGN(std::string first, posix_->Read(fd, 6'000));
  EXPECT_EQ(first, content_.substr(85'000, 6'000));
  // Straddle: 4'000 buffered + 4'000 missing. The suffix fetch starts at
  // 95'000 and is clamped to the 5'000 bytes left before EOF.
  ASSERT_OK_AND_ASSIGN(std::string second, posix_->Read(fd, 8'000));
  EXPECT_EQ(second, content_.substr(91'000, 8'000));

  IoCounters io = context_->SnapshotCounters();
  EXPECT_EQ(io.requests, 2u);
  // Payload fetched: 10'000 + 5'000. The old refetch-from-cursor path
  // pulled 10'000 + 9'000. Headers ride on top, hence the margin.
  EXPECT_LT(io.bytes_read, 16'000u);
}

TEST_F(DavPosixTest, ReadAheadReadLargerThanBufferCostsOneRequest) {
  params_.readahead_bytes = 8 * 1024;
  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  context_->ResetCounters();
  ASSERT_OK_AND_ASSIGN(std::string data, posix_->Read(fd, 40'000));
  EXPECT_EQ(data, content_.substr(0, 40'000));
  EXPECT_EQ(context_->SnapshotCounters().requests, 1u);
}

TEST_F(DavPosixTest, AsyncReadAheadSequentialDelivery) {
  params_.readahead_bytes = 8192;
  params_.readahead_window_chunks = 4;
  // Counted from before Open: the cold open sends the first window, and
  // no HEAD.
  context_->ResetCounters();
  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  // Read sizes chosen to straddle chunk boundaries in every alignment.
  std::string assembled;
  size_t sizes[] = {3000, 8192, 77, 9000, 1};
  size_t turn = 0;
  while (true) {
    ASSERT_OK_AND_ASSIGN(std::string chunk,
                         posix_->Read(fd, sizes[turn++ % 5]));
    if (chunk.empty()) break;
    assembled += chunk;
  }
  EXPECT_EQ(assembled, content_);
  // Every chunk fetched exactly once: ceil(100'000 / 8192) requests
  // (the non-aligned EOF tail is its own short chunk).
  EXPECT_EQ(context_->SnapshotCounters().requests, 13u);
  EXPECT_TRUE(context_->dispatcher_started());
}

TEST_F(DavPosixTest, AsyncReadAheadLSeekInvalidatesMidStream) {
  params_.readahead_bytes = 4096;
  params_.readahead_window_chunks = 4;
  // A far seek straight after Open drops the window the open sent.
  ASSERT_OK_AND_ASSIGN(int fresh,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  ASSERT_OK(posix_->LSeek(fresh, 60'000, 0).status());
  ASSERT_OK_AND_ASSIGN(std::string far, posix_->Read(fresh, 3000));
  EXPECT_EQ(far, content_.substr(60'000, 3000));
  ASSERT_OK(posix_->Close(fresh));

  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  ASSERT_OK_AND_ASSIGN(std::string a, posix_->Read(fd, 3000));
  EXPECT_EQ(a, content_.substr(0, 3000));

  // Forward seek, far outside the window.
  ASSERT_OK(posix_->LSeek(fd, 60'000, 0).status());
  ASSERT_OK_AND_ASSIGN(std::string b, posix_->Read(fd, 3000));
  EXPECT_EQ(b, content_.substr(60'000, 3000));

  // Backward seek.
  ASSERT_OK(posix_->LSeek(fd, -50'000, 1).status());
  ASSERT_OK_AND_ASSIGN(std::string c, posix_->Read(fd, 3000));
  EXPECT_EQ(c, content_.substr(13'000, 3000));

  // SEEK_END into the short non-aligned tail.
  ASSERT_OK(posix_->LSeek(fd, -100, 2).status());
  ASSERT_OK_AND_ASSIGN(std::string d, posix_->Read(fd, 5000));
  EXPECT_EQ(d, content_.substr(content_.size() - 100));
  ASSERT_OK_AND_ASSIGN(std::string empty, posix_->Read(fd, 100));
  EXPECT_TRUE(empty.empty());
}

TEST_F(DavPosixTest, AsyncReadAheadForwardSeekInsideWindowKeepsPrefetch) {
  params_.readahead_bytes = 4096;
  params_.readahead_window_chunks = 4;
  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  context_->ResetCounters();
  // Seeds the window: chunks [0, 4*4096) — 4 requests.
  ASSERT_OK_AND_ASSIGN(std::string head, posix_->Read(fd, 100));
  EXPECT_EQ(head, content_.substr(0, 100));
  // Small forward skip, still inside the window: the prefetch stays
  // alive, only the skipped chunk 0 is dropped.
  ASSERT_OK(posix_->LSeek(fd, 4096 + 10, 0).status());
  ASSERT_OK_AND_ASSIGN(std::string after, posix_->Read(fd, 100));
  EXPECT_EQ(after, content_.substr(4096 + 10, 100));
  // 4 seed chunks + at most 1 top-up; an invalidating seek would have
  // re-seeded 4 fresh chunks (7+ requests total).
  EXPECT_LE(context_->SnapshotCounters().requests, 5u);
}

TEST_F(DavPosixTest, AsyncReadAheadMidStreamFaultSurfacesExactlyOnce) {
  // One injected truncation, retries disabled: exactly one Read must
  // fail, the cursor must not move, and the stream must re-seed and
  // deliver identical bytes afterwards.
  params_.readahead_bytes = 4096;
  params_.readahead_window_chunks = 4;
  params_.max_retries = 0;
  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  // Armed after Open so none of the open's requests (the first window)
  // trips it.
  server_.server->faults().AddRule(
      {"/f.bin", netsim::FaultAction::kTruncateBody, 1.0, 1, 0});
  std::string assembled;
  int errors = 0;
  while (assembled.size() < content_.size()) {
    Result<std::string> chunk = posix_->Read(fd, 3000);
    if (!chunk.ok()) {
      ++errors;
      ASSERT_LE(errors, 1) << chunk.status().ToString();
      continue;  // cursor unchanged; next Read re-seeds the window
    }
    ASSERT_FALSE(chunk->empty());
    assembled += *chunk;
  }
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(assembled, content_);
  EXPECT_EQ(server_.server->stats().faults_injected.load(), 1u);
}

TEST_F(DavPosixTest, AsyncReadAheadConcurrentReadAndPRead) {
  params_.readahead_bytes = 4096;
  params_.readahead_window_chunks = 3;
  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  std::atomic<int> failures{0};
  std::thread preader([&] {
    for (int i = 0; i < 40; ++i) {
      uint64_t offset = static_cast<uint64_t>(i) * 2311 % 90'000;
      Result<std::string> data = posix_->PRead(fd, offset, 128);
      if (!data.ok() || *data != content_.substr(offset, 128)) {
        failures.fetch_add(1);
      }
    }
  });
  std::string assembled;
  while (true) {
    Result<std::string> chunk = posix_->Read(fd, 2500);
    if (!chunk.ok()) {
      failures.fetch_add(1);
      break;
    }
    if (chunk->empty()) break;
    assembled += *chunk;
  }
  preader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(assembled, content_);
}

TEST_F(DavPosixTest, AsyncReadAheadCloseWithWindowInFlightIsClean) {
  params_.readahead_bytes = 2048;
  params_.readahead_window_chunks = 8;
  // Open then Close with no Read: the window the open sent is in flight.
  ASSERT_OK_AND_ASSIGN(int unread,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  ASSERT_OK(posix_->Close(unread));
  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  // Prime the window, then close immediately: the in-flight fetches own
  // everything they touch, so this must neither crash nor hang.
  ASSERT_OK_AND_ASSIGN(std::string head, posix_->Read(fd, 100));
  EXPECT_EQ(head, content_.substr(0, 100));
  ASSERT_OK(posix_->Close(fd));
  EXPECT_EQ(posix_->OpenCount(), 0u);
}

TEST_F(DavPosixTest, AsyncReadAheadColdOpenSendsTheFirstWindow) {
  // The open is the window's first W range-GETs, not a HEAD: open plus
  // a full read of a 16-chunk object is exactly 16 requests.
  constexpr uint64_t kChunk = 4096;
  const std::string object = content_.substr(0, 16 * kChunk);
  server_.store->Put("/16.bin", object);
  params_.readahead_bytes = kChunk;
  params_.readahead_window_chunks = 4;
  const httpd::DavHandlerStats& stats = server_.handler->stats();
  uint64_t gets = stats.get_requests.load();
  uint64_t heads = stats.head_requests.load();
  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/16.bin"), params_));
  std::string assembled;
  while (true) {
    ASSERT_OK_AND_ASSIGN(std::string chunk, posix_->Read(fd, 3000));
    if (chunk.empty()) break;
    assembled += chunk;
  }
  EXPECT_EQ(assembled, object);
  EXPECT_EQ(stats.get_requests.load() - gets, 16u);
  EXPECT_EQ(stats.head_requests.load() - heads, 0u);
  ASSERT_OK(posix_->Close(fd));
}

TEST_F(DavPosixTest, AsyncReadAheadColdOpenAtEverySizeAroundTheWindow) {
  // Before the size is known the open plans W chunks; chunks past EOF
  // are dropped and one straddling EOF is sent again, clamped. None of
  // their 416s or short answers surfaces, and the waste is bounded.
  constexpr uint64_t kChunk = 4096;
  constexpr uint64_t kWindow = 4;
  params_.readahead_bytes = kChunk;
  params_.readahead_window_chunks = kWindow;
  const httpd::DavHandlerStats& stats = server_.handler->stats();
  for (uint64_t size :
       {uint64_t{0}, uint64_t{1}, kChunk - 1, kChunk, kChunk + 1,
        (kWindow - 1) * kChunk + 1, kWindow * kChunk - 1, kWindow * kChunk,
        kWindow * kChunk + 1}) {
    SCOPED_TRACE(size);
    const std::string object = content_.substr(0, size);
    server_.store->Put("/sized.bin", object);
    uint64_t before = stats.get_requests.load() + stats.head_requests.load();
    {
      Context context;
      DavPosix posix(&context);
      ASSERT_OK_AND_ASSIGN(int fd,
                           posix.Open(server_.UrlFor("/sized.bin"), params_));
      std::string assembled;
      while (true) {
        ASSERT_OK_AND_ASSIGN(std::string chunk, posix.Read(fd, 3000));
        if (chunk.empty()) break;
        assembled += chunk;
      }
      EXPECT_EQ(assembled, object);
      ASSERT_OK(posix.Close(fd));
    }  // joins the dispatcher: every fetch the open sent is counted
    uint64_t chunks = (size + kChunk - 1) / kChunk;
    EXPECT_LE(stats.get_requests.load() + stats.head_requests.load() - before,
              std::max<uint64_t>(chunks, 1) + kWindow - 1);
  }
}

TEST_F(DavPosixTest, AsyncReadAheadColdOpenOnServerIgnoringRange) {
  // A server that answers every range with the whole entity (200): the
  // open takes the size from the body, and the window still delivers
  // exact bytes, for an object longer than the window and one shorter.
  auto router = std::make_shared<httpd::Router>();
  const std::string small = content_.substr(0, 5'000);
  for (const auto& [path, body] :
       {std::pair<std::string, std::string>{"/whole", content_},
        std::pair<std::string, std::string>{"/small", small}}) {
    router->Handle(http::Method::kGet, path,
                   [body = body](const http::HttpRequest&,
                                 http::HttpResponse* response) {
                     response->status_code = 200;
                     response->body = body;
                   });
  }
  ASSERT_OK_AND_ASSIGN(auto server, httpd::HttpServer::Start({}, router));
  params_.readahead_bytes = 8192;
  params_.readahead_window_chunks = 4;
  for (const auto& [path, want] :
       {std::pair<std::string, std::string>{"/whole", content_},
        std::pair<std::string, std::string>{"/small", small}}) {
    SCOPED_TRACE(path);
    ASSERT_OK_AND_ASSIGN(int fd,
                         posix_->Open(server->BaseUrl() + path, params_));
    std::string assembled;
    while (true) {
      ASSERT_OK_AND_ASSIGN(std::string chunk, posix_->Read(fd, 3000));
      if (chunk.empty()) break;
      assembled += chunk;
    }
    EXPECT_EQ(assembled, want);
    ASSERT_OK_AND_ASSIGN(uint64_t end, posix_->LSeek(fd, 0, 2));
    EXPECT_EQ(end, want.size());
    ASSERT_OK(posix_->Close(fd));
  }
  posix_.reset();
  context_.reset();
  server->Stop();
}

TEST_F(DavPosixTest, ReadAheadCorrectAcrossSeeks) {
  params_.readahead_bytes = 16 * 1024;
  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  ASSERT_OK_AND_ASSIGN(std::string a, posix_->Read(fd, 100));
  ASSERT_OK(posix_->LSeek(fd, 50'000, 0).status());
  ASSERT_OK_AND_ASSIGN(std::string b, posix_->Read(fd, 100));
  ASSERT_OK(posix_->LSeek(fd, 10, 0).status());
  ASSERT_OK_AND_ASSIGN(std::string c, posix_->Read(fd, 100));
  EXPECT_EQ(a, content_.substr(0, 100));
  EXPECT_EQ(b, content_.substr(50'000, 100));
  EXPECT_EQ(c, content_.substr(10, 100));
}

TEST_F(DavPosixTest, StatUnlinkMkdirRename) {
  ASSERT_OK_AND_ASSIGN(FileInfo info,
                       posix_->Stat(server_.UrlFor("/f.bin"), params_));
  EXPECT_EQ(info.size, content_.size());

  ASSERT_OK(posix_->MkDir(server_.UrlFor("/newdir"), params_));
  server_.store->Put("/newdir/a", "abc");
  ASSERT_OK(posix_->Rename(server_.UrlFor("/newdir/a"), "/newdir/b", params_));
  EXPECT_TRUE(server_.store->Get("/newdir/b").ok());

  ASSERT_OK(posix_->Unlink(server_.UrlFor("/newdir/b"), params_));
  EXPECT_FALSE(server_.store->Get("/newdir/b").ok());
  EXPECT_FALSE(posix_->Unlink(server_.UrlFor("/newdir/b"), params_).ok());
}

TEST_F(DavPosixTest, ListDirNamesChildren) {
  server_.store->Put("/dir/x", "1");
  server_.store->Put("/dir/y", "2");
  server_.store->Put("/dir/sub/z", "3");
  ASSERT_OK_AND_ASSIGN(auto names,
                       posix_->ListDir(server_.UrlFor("/dir"), params_));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"sub", "x", "y"}));
}

TEST_F(DavPosixTest, ListDirIgnoresTrailingSlash) {
  std::vector<std::string> expected;
  for (int i = 0; i < 64; ++i) {
    expected.push_back("obj" + std::to_string(i));
    server_.store->Put("/r/0/" + expected.back(), "x");
  }
  std::sort(expected.begin(), expected.end());
  for (const char* path : {"/r/0", "/r/0/"}) {
    ASSERT_OK_AND_ASSIGN(auto names,
                         posix_->ListDir(server_.UrlFor(path), params_));
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, expected) << path;
  }
}

TEST_F(DavPosixTest, ConcurrentPReadsShareDescriptor) {
  ASSERT_OK_AND_ASSIGN(int fd,
                       posix_->Open(server_.UrlFor("/f.bin"), params_));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 10; ++i) {
        uint64_t offset = static_cast<uint64_t>(t) * 10'000 + i * 97;
        Result<std::string> data = posix_->PRead(fd, offset, 64);
        if (!data.ok() || *data != content_.substr(offset, 64)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace core
}  // namespace davix
