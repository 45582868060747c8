#include "core/read_ahead_stream.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace davix {
namespace core {
namespace {

/// Synthetic backing object: fetches slice bytes out of an in-memory
/// string, with instrumentation hooks. Completion order is shuffled by
/// per-fetch jitter so in-order delivery is actually exercised.
struct FakeObject {
  explicit FakeObject(size_t size, uint64_t seed = 7) {
    Rng rng(seed);
    content = rng.Bytes(size);
  }

  ReadAheadFetchFn Fetcher() {
    return [this](uint64_t offset, uint64_t length) -> Result<std::string> {
      int now = concurrent.fetch_add(1) + 1;
      int seen = max_concurrent.load();
      while (now > seen && !max_concurrent.compare_exchange_weak(seen, now)) {
      }
      fetches.fetch_add(1);
      if (std::this_thread::get_id() != creator) foreign_fetches.fetch_add(1);
      if (jitter_micros > 0) {
        // Floor of jitter_micros plus an offset-derived spread, so every
        // fetch takes real time and completion order gets shuffled.
        std::this_thread::sleep_for(std::chrono::microseconds(
            jitter_micros + (offset / 997) % jitter_micros));
      }
      concurrent.fetch_sub(1);
      if (fail_at_offset.load() == static_cast<int64_t>(offset) &&
          failures_left.fetch_sub(1) > 0) {
        return Status::IoError("injected fetch failure");
      }
      if (offset >= content.size()) return std::string();
      return content.substr(offset, length);
    };
  }

  std::string content;
  /// The thread that built the object — the reading thread in the
  /// synchronous tests; fetches anywhere else count as foreign.
  std::thread::id creator = std::this_thread::get_id();
  std::atomic<int> fetches{0};
  std::atomic<int> foreign_fetches{0};
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  std::atomic<int64_t> fail_at_offset{-1};
  std::atomic<int> failures_left{0};
  int64_t jitter_micros = 400;
};

ReadAheadStreamConfig Config(uint64_t chunk, size_t window, uint64_t size) {
  ReadAheadStreamConfig config;
  config.chunk_bytes = chunk;
  config.window_chunks = window;
  config.file_size = size;
  return config;
}

TEST(ReadAheadStreamTest, InOrderDeliveryAcrossChunkBoundaries) {
  FakeObject object(100'000);
  ThreadPool pool(8);
  ReadAheadStream stream(object.Fetcher(), &pool,
                         Config(4096, 4, object.content.size()));
  // Read sizes straddle chunk boundaries in every alignment.
  std::string assembled;
  size_t sizes[] = {1000, 5000, 7, 4096, 9000, 1};
  size_t turn = 0;
  while (true) {
    ASSERT_OK_AND_ASSIGN(std::string data,
                         stream.Read(assembled.size(), sizes[turn++ % 6]));
    if (data.empty()) break;
    assembled += data;
  }
  EXPECT_EQ(assembled, object.content);
  // Every chunk fetched exactly once.
  EXPECT_EQ(object.fetches.load(),
            static_cast<int>((object.content.size() + 4095) / 4096));
}

TEST(ReadAheadStreamTest, KeepsAtMostWindowChunksInFlight) {
  FakeObject object(64 * 1024);
  object.jitter_micros = 2000;
  ThreadPool pool(8);
  ReadAheadStream stream(object.Fetcher(), &pool,
                         Config(1024, 3, object.content.size()));
  std::string assembled;
  while (true) {
    ASSERT_OK_AND_ASSIGN(std::string data, stream.Read(assembled.size(), 800));
    if (data.empty()) break;
    assembled += data;
  }
  EXPECT_EQ(assembled, object.content);
  EXPECT_LE(object.max_concurrent.load(), 3);
}

TEST(ReadAheadStreamTest, EofOnNonChunkAlignedObject) {
  FakeObject object(10'000);  // 2 full 4096 chunks + a 1808-byte tail
  ThreadPool pool(4);
  ReadAheadStream stream(object.Fetcher(), &pool,
                         Config(4096, 4, object.content.size()));
  ASSERT_OK_AND_ASSIGN(std::string head, stream.Read(0, 9000));
  EXPECT_EQ(head, object.content.substr(0, 9000));
  // Crossing EOF returns the short tail, then empty forever.
  ASSERT_OK_AND_ASSIGN(std::string tail, stream.Read(9000, 5000));
  EXPECT_EQ(tail, object.content.substr(9000));
  ASSERT_OK_AND_ASSIGN(std::string empty, stream.Read(10'000, 100));
  EXPECT_TRUE(empty.empty());
}

TEST(ReadAheadStreamTest, SeeksReseedTheWindow) {
  FakeObject object(100'000);
  ThreadPool pool(8);
  ReadAheadStream stream(object.Fetcher(), &pool,
                         Config(4096, 4, object.content.size()));
  ASSERT_OK_AND_ASSIGN(std::string a, stream.Read(0, 100));
  EXPECT_EQ(a, object.content.substr(0, 100));
  // Forward, out of the window.
  ASSERT_OK_AND_ASSIGN(std::string b, stream.Read(60'000, 100));
  EXPECT_EQ(b, object.content.substr(60'000, 100));
  // Backward.
  ASSERT_OK_AND_ASSIGN(std::string c, stream.Read(10, 100));
  EXPECT_EQ(c, object.content.substr(10, 100));
  // Forward but still inside the prefetched window: the in-flight
  // chunks for the skipped span are dropped, the rest stays valid.
  ASSERT_OK_AND_ASSIGN(std::string d, stream.Read(110 + 2 * 4096, 100));
  EXPECT_EQ(d, object.content.substr(110 + 2 * 4096, 100));
}

TEST(ReadAheadStreamTest, MidStreamErrorSurfacesExactlyOnceThenRecovers) {
  FakeObject object(64 * 1024);
  ThreadPool pool(8);
  object.fail_at_offset.store(5 * 4096);
  object.failures_left.store(1);
  ReadAheadStream stream(object.Fetcher(), &pool,
                         Config(4096, 4, object.content.size()));
  std::string assembled;
  int errors = 0;
  while (assembled.size() < object.content.size()) {
    Result<std::string> data = stream.Read(assembled.size(), 3000);
    if (!data.ok()) {
      ++errors;
      continue;  // the stream re-seeds at the same position
    }
    ASSERT_FALSE(data->empty());
    assembled += *data;
  }
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(assembled, object.content);
}

TEST(ReadAheadStreamTest, ShortFetchIsProtocolError) {
  FakeObject object(10'000);
  ThreadPool pool(4);
  // Lie about the size: the last chunk comes back short.
  ReadAheadStream stream(object.Fetcher(), &pool, Config(4096, 2, 12'000));
  Result<std::string> data = stream.Read(8192, 4000);
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kProtocolError);
  // An opener's head shorter than its front slot is the same error.
  ReadAheadStream opened(object.Fetcher(), &pool, Config(4096, 2, 0));
  opened.StartUnsized();
  opened.FillFront(object.content.substr(0, 100), object.content.size());
  data = opened.Read(0, 4000);
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kProtocolError);
}

TEST(ReadAheadStreamTest, InvalidateCancelsUnstartedFetches) {
  FakeObject object(1 << 20);
  // One worker: with a window of 8, chunks queue behind the first slow
  // fetch; Invalidate must stop them from ever touching the "network".
  ThreadPool pool(1);
  object.jitter_micros = 4000;
  ReadAheadStream stream(object.Fetcher(), &pool,
                         Config(4096, 8, object.content.size()));
  ASSERT_OK_AND_ASSIGN(std::string head, stream.Read(0, 100));
  EXPECT_EQ(head, object.content.substr(0, 100));
  stream.Invalidate();
  EXPECT_EQ(stream.WindowSize(), 0u);
  pool.Shutdown();  // runs whatever was queued
  // 8 chunks were scheduled; the ones not yet started when Invalidate
  // ran were skipped (fetches well below the full window).
  EXPECT_LT(object.fetches.load(), 8);
  // The stream still works after an invalidation.
  ASSERT_OK_AND_ASSIGN(std::string again, stream.Read(100, 100));
  EXPECT_EQ(again, object.content.substr(100, 100));
}

TEST(ReadAheadStreamTest, DestructionWithInFlightFetchesIsSafe) {
  auto object = std::make_shared<FakeObject>(1 << 20);
  object->jitter_micros = 3000;
  ThreadPool pool(4);
  {
    // The fetcher holds the object alive via shared_ptr, mirroring how
    // DavPosix's fetch closure owns the DavFile.
    auto fetch = [object](uint64_t offset, uint64_t length) {
      return object->Fetcher()(offset, length);
    };
    ReadAheadStream stream(fetch, &pool,
                           Config(8192, 4, object->content.size()));
    ASSERT_OK_AND_ASSIGN(std::string head, stream.Read(0, 10));
    EXPECT_EQ(head, object->content.substr(0, 10));
    // An opener that failed drops its stream before FillFront.
    ReadAheadStream unsized(fetch, &pool, Config(8192, 4, 0));
    unsized.StartUnsized();
    // Both destroyed here with up to 3 fetches each still in flight.
  }
  pool.Shutdown();
  SUCCEED();
}

TEST(ReadAheadStreamTest, ConsumerOnPoolThreadDoesNotDeadlock) {
  // The consumer itself runs on the only dispatcher thread, so the
  // chunk-fetch tasks it schedules are queued behind it. Without the
  // inline-claim fallback in WaitForChunk this deadlocks permanently.
  FakeObject object(40'000);
  object.jitter_micros = 0;
  ThreadPool pool(1);
  std::atomic<bool> correct{false};
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  ASSERT_TRUE(pool.Submit([&] {
    ReadAheadStream stream(object.Fetcher(), &pool,
                           Config(4096, 4, object.content.size()));
    std::string assembled;
    while (true) {
      Result<std::string> data = stream.Read(assembled.size(), 3000);
      if (!data.ok() || data->empty()) break;
      assembled += *data;
    }
    correct.store(assembled == object.content);
    // Notify while holding the lock: the waiter cannot observe
    // `finished`, return, and destroy the stack-allocated cv while
    // notify_all is still touching it.
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
    cv.notify_all();
  }));
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return finished; }));
  }
  pool.Shutdown();  // join the worker before cv/mu leave scope
  EXPECT_TRUE(correct.load());
}

TEST(ReadAheadStreamTest, UnsizedStartTrimsTheWindowToTheSize) {
  // The opener fetches chunk 0 itself; chunks 1..W-1 go out before the
  // size is known. FillFront drops the ones past EOF and re-sends the
  // one straddling it, clamped, so no short or empty answer surfaces.
  constexpr uint64_t kChunk = 4096;
  constexpr size_t kWindow = 4;
  for (uint64_t size :
       {uint64_t{0}, uint64_t{1}, kChunk - 1, kChunk, kChunk + 1,
        (kWindow - 1) * kChunk + 1, kWindow * kChunk - 1, kWindow * kChunk,
        kWindow * kChunk + 1, 3 * kWindow * kChunk}) {
    SCOPED_TRACE(size);
    FakeObject object(size);
    std::atomic<int> front_fetches{0};
    ReadAheadFetchFn fetcher = object.Fetcher();
    ThreadPool pool(4);
    {
      ReadAheadStream stream(
          [&](uint64_t offset, uint64_t length) {
            if (offset == 0) front_fetches.fetch_add(1);
            return fetcher(offset, length);
          },
          &pool, Config(kChunk, kWindow, 0));
      stream.StartUnsized();
      EXPECT_EQ(stream.WindowSize(), kWindow);
      stream.FillFront(object.content.substr(0, kChunk), size);
      uint64_t chunks = (size + kChunk - 1) / kChunk;
      EXPECT_EQ(stream.WindowSize(), std::min<uint64_t>(chunks, kWindow));
      std::string assembled;
      while (true) {
        ASSERT_OK_AND_ASSIGN(std::string data,
                             stream.Read(assembled.size(), 3000));
        if (data.empty()) break;
        assembled += data;
      }
      EXPECT_EQ(assembled, object.content);
      pool.Shutdown();
      // Chunk 0 is never fetched by the stream; every other chunk once,
      // plus at most W - 1 planned before the size was known.
      EXPECT_EQ(front_fetches.load(), 0);
      EXPECT_LE(object.fetches.load(),
                static_cast<int>(std::max<uint64_t>(chunks, 1) - 1 +
                                 kWindow - 1));
    }
  }
}

TEST(ReadAheadStreamTest, CoversReportsWindowSpan) {
  FakeObject object(100'000);
  ThreadPool pool(4);
  ReadAheadStream stream(object.Fetcher(), &pool,
                         Config(4096, 4, object.content.size()));
  EXPECT_FALSE(stream.Covers(0));  // nothing scheduled yet
  ASSERT_OK(stream.Read(0, 100).status());
  // Window spans [0, 4 * 4096); position 100 was consumed but chunk 0
  // is still the front.
  EXPECT_TRUE(stream.Covers(100));
  EXPECT_TRUE(stream.Covers(4 * 4096 - 1));
  EXPECT_FALSE(stream.Covers(4 * 4096));
  stream.Invalidate();
  EXPECT_FALSE(stream.Covers(100));
}

TEST(ReadAheadStreamTest, NullPoolDegradesToSynchronousFetches) {
  // A null pool runs every fetch on the reading thread, for a window 4
  // deep and for depth 0 (no read-ahead) alike.
  for (size_t window : {4u, 0u}) {
    SCOPED_TRACE(window);
    FakeObject object(20'000);
    object.jitter_micros = 0;
    ReadAheadStream stream(object.Fetcher(), nullptr,
                           Config(4096, window, object.content.size()));
    std::string assembled;
    while (true) {
      ASSERT_OK_AND_ASSIGN(std::string data,
                           stream.Read(assembled.size(), 1500));
      if (data.empty()) break;
      assembled += data;
    }
    EXPECT_EQ(assembled, object.content);
    // Each of the 5 chunks fetched once, all on the reading thread.
    EXPECT_EQ(object.fetches.load(), 5);
    EXPECT_EQ(object.foreign_fetches.load(), 0);
  }
}

}  // namespace
}  // namespace core
}  // namespace davix
