// E7 (§3 analysis, ablation): where XRootD's WAN advantage comes from.
// The paper: "This difference of performance comes mainly from the
// sliding windows buffering algorithm of XRootD which allows to minimize
// the number of network round trips executed."
//
// Ablation A: xrootd sequential read of a 16 MiB object at WAN with
// sliding-window sizes 0 (pure synchronous: each chunk is fetched by the
// read that needs it) to 8 chunks in flight. The window is the davix
// one, core::ReadAheadStream, fetching through XrdClient::Read.
// Ablation B: the davix side — sequential DavPosix reads with the
// synchronous read-ahead buffer (depth 0 of the window: cuts request
// count but stalls a full RTT per refill) versus the asynchronous
// sliding window (readahead_window_chunks, same chunk size, fetches
// overlapped on the per-Context dispatcher pool), which is the XRootD
// mechanism ported to the HTTP stack. A full run repeats every cell 5
// times (--smoke: once) and reports its median with min and max.
//
// Every run verifies byte-identical delivery: the CRC32 of the
// consumed stream must equal the CRC32 of the stored object. A run's
// time and request count start before the reader's first network call
// (davix: DavPosix::Open; xrootd: Connect, Login, Open), so a reader
// whose open already carries reads is charged for them.

#include "bench/bench_util.h"
#include "common/checksum.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/context.h"
#include "core/dav_posix.h"
#include "core/read_ahead_stream.h"
#include "xrootd/xrd_client.h"

namespace davix {
namespace bench {
namespace {

constexpr size_t kConsumeChunk = 256 * 1024;
constexpr uint64_t kChunkBytes = 512 * 1024;
constexpr char kPath[] = "/seq/data.bin";

size_t ObjectBytes(bool smoke) {
  return (smoke ? 4 : 16) * 1024 * 1024;
}

struct RunOutcome {
  double seconds = 0;
  uint64_t consumed = 0;
  uint64_t requests = 0;
  bool verified = false;
};

/// Drains `read` (a callable returning Result<std::string>) with the
/// paper's 2 ms/chunk consumer model, CRC-verifying the delivered
/// stream against the object. The run's time is taken from `since`,
/// started before the reader opened the object.
template <typename ReadFn>
RunOutcome Consume(const Stopwatch& since, ReadFn read, uint32_t expect_crc,
                   uint64_t expect_bytes) {
  RunOutcome outcome;
  uint32_t crc = 0;
  while (true) {
    Result<std::string> chunk = read();
    if (!chunk.ok()) {
      std::fprintf(stderr, "read failed: %s\n",
                   chunk.status().ToString().c_str());
      std::exit(1);
    }
    if (chunk->empty()) break;
    crc = Crc32(*chunk, crc);
    outcome.consumed += chunk->size();
    // Model per-chunk processing so the window has something to hide.
    SleepForMicros(2'000);
  }
  outcome.seconds = since.ElapsedSeconds();
  outcome.verified = crc == expect_crc && outcome.consumed == expect_bytes;
  if (!outcome.verified) {
    std::fprintf(stderr,
                 "VERIFICATION FAILED: delivered stream differs from the "
                 "stored object (%llu/%llu bytes)\n",
                 static_cast<unsigned long long>(outcome.consumed),
                 static_cast<unsigned long long>(expect_bytes));
    std::exit(1);
  }
  return outcome;
}

/// Runs one cell `reps` times and reports it: median seconds (the
/// returned outcome carries it, for the summary gate) with min and max;
/// request counts are the last run's.
template <typename RunFn>
RunOutcome RunAndReport(JsonReporter* json, const netsim::LinkProfile& link,
                        const char* reader, uint64_t chunk_bytes,
                        size_t window, int reps, RunFn run) {
  SampleStats seconds;
  RunOutcome outcome;
  for (int rep = 0; rep < reps; ++rep) {
    outcome = run();
    seconds.Add(outcome.seconds);
  }
  outcome.seconds = seconds.Percentile(50);
  double mbps = outcome.consumed / outcome.seconds / 1e6;
  std::printf(
      "%-6s %-12s chunk=%-8llu window=%zu %10.3f %6.3f-%-6.3f %9.1f %10llu\n",
      link.name.c_str(), reader, static_cast<unsigned long long>(chunk_bytes),
      window, outcome.seconds, seconds.Min(), seconds.Max(), mbps,
      static_cast<unsigned long long>(outcome.requests));
  json->AddRow()
      .Str("link", link.name)
      .Str("reader", reader)
      .Int("chunk_bytes", chunk_bytes)
      .Int("window_chunks", window)
      .Median("seconds", seconds)
      .Num("mbps", mbps)
      .Int("requests", outcome.requests)
      .Int("bytes", outcome.consumed)
      .Int("verified", outcome.verified ? 1 : 0);
  return outcome;
}

RunOutcome RunXrdWindow(const netsim::LinkProfile& link,
                        std::shared_ptr<httpd::ObjectStore> store,
                        size_t window_chunks, uint32_t crc, uint64_t bytes) {
  auto server = StartXrdNode(link, store);
  // The davix window over XrdClient::Read: W pool threads keep W reads
  // outstanding on the one connection; W = 0 fetches on this thread.
  std::unique_ptr<ThreadPool> pool;
  if (window_chunks > 0) pool = std::make_unique<ThreadPool>(window_chunks);
  Stopwatch stopwatch;
  auto client = std::move(xrootd::XrdClient::Connect("127.0.0.1", server->port())).value();
  if (!client->Login().ok()) std::exit(1);
  auto open = client->Open(kPath);
  if (!open.ok()) std::exit(1);

  core::ReadAheadStreamConfig config;
  config.chunk_bytes = kChunkBytes;
  config.window_chunks = window_chunks;
  config.file_size = open->size;
  xrootd::XrdClient* reader = client.get();
  uint32_t handle = open->handle;
  core::ReadAheadStream stream(
      [reader, handle](uint64_t offset, uint64_t length) {
        return reader->Read(handle, offset, static_cast<uint32_t>(length));
      },
      pool.get(), config);
  uint64_t position = 0;
  RunOutcome outcome = Consume(
      stopwatch,
      [&]() -> Result<std::string> {
        Result<std::string> chunk = stream.Read(position, kConsumeChunk);
        if (chunk.ok()) position += chunk->size();
        return chunk;
      },
      crc, bytes);
  // Counted from Connect: login and open included.
  outcome.requests = client->requests_sent();
  pool.reset();  // joins while the client its fetches read through lives
  server->Stop();
  return outcome;
}

RunOutcome RunDavix(const netsim::LinkProfile& link,
                    std::shared_ptr<httpd::ObjectStore> store,
                    uint64_t readahead_bytes, size_t window_chunks,
                    uint32_t crc, uint64_t bytes) {
  HttpNode node = StartHttpNode(link, store);
  core::Context context;
  core::DavPosix posix(&context);
  core::RequestParams params;
  params.metalink_mode = core::MetalinkMode::kDisabled;
  params.readahead_bytes = readahead_bytes;
  params.readahead_window_chunks = window_chunks;
  context.ResetCounters();
  Stopwatch stopwatch;
  auto fd = posix.Open(node.UrlFor(kPath), params);
  if (!fd.ok()) std::exit(1);

  RunOutcome outcome = Consume(
      stopwatch, [&] { return posix.Read(*fd, kConsumeChunk); }, crc, bytes);
  outcome.requests = context.SnapshotCounters().requests;
  (void)posix.Close(*fd);
  node.server->Stop();
  return outcome;
}

}  // namespace
}  // namespace bench
}  // namespace davix

int main(int argc, char** argv) {
  using namespace davix;
  using namespace davix::bench;
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintHeader("E7: sliding-window read-ahead ablation",
              "§3 of the libdavix paper (XRootD's WAN advantage)");
  size_t object_bytes = ObjectBytes(args.smoke);
  int reps = args.smoke ? 1 : 5;
  auto store = std::make_shared<httpd::ObjectStore>();
  Rng rng(7);
  std::string content = rng.Bytes(object_bytes);
  uint32_t crc = Crc32(content);
  store->Put(kPath, std::move(content));

  JsonReporter json("readahead_ablation");
  std::printf("%-6s %-12s %-25s %10s %13s %9s %10s\n", "link", "reader",
              "shape", "median[s]", "min-max[s]", "MB/s", "requests");
  netsim::LinkProfile wan = netsim::LinkProfile::Wan();

  std::vector<size_t> xrd_windows =
      args.smoke ? std::vector<size_t>{0, 4} : std::vector<size_t>{0, 1, 2, 4, 8};
  for (size_t window : xrd_windows) {
    RunAndReport(&json, wan, "xrootd", kChunkBytes, window, reps, [&] {
      return RunXrdWindow(wan, store, window, crc, object_bytes);
    });
  }

  // Davix synchronous read-ahead: one buffered window, refilled with a
  // blocking fetch (plus the no-read-ahead baseline on full runs).
  std::vector<uint64_t> sync_readaheads =
      args.smoke ? std::vector<uint64_t>{kChunkBytes}
                 : std::vector<uint64_t>{0, kChunkBytes, 4ull << 20};
  RunOutcome sync_at_chunk;
  for (uint64_t readahead : sync_readaheads) {
    RunOutcome outcome = RunAndReport(
        &json, wan, "davix-sync", readahead, 0, reps,
        [&] { return RunDavix(wan, store, readahead, 0, crc, object_bytes); });
    if (readahead == kChunkBytes) sync_at_chunk = outcome;
  }

  // Davix asynchronous sliding window at the same chunk size: the
  // tentpole comparison. ≥ 2x over davix-sync at window 4 is the
  // acceptance bar.
  std::vector<size_t> async_windows =
      args.smoke ? std::vector<size_t>{4} : std::vector<size_t>{2, 4, 8};
  RunOutcome async_at_four;
  for (size_t window : async_windows) {
    RunOutcome outcome = RunAndReport(
        &json, wan, "davix-async", kChunkBytes, window, reps, [&] {
          return RunDavix(wan, store, kChunkBytes, window, crc, object_bytes);
        });
    if (window == 4) async_at_four = outcome;
  }

  double speedup = async_at_four.seconds > 0
                       ? sync_at_chunk.seconds / async_at_four.seconds
                       : 0.0;
  std::printf(
      "\ndavix async window=4 vs sync at %llu KiB chunks: %.2fx\n",
      static_cast<unsigned long long>(kChunkBytes / 1024), speedup);
  json.AddRow()
      .Str("link", wan.name)
      .Str("reader", "summary")
      .Num("async_vs_sync_speedup", speedup);
  json.WriteTo(args.json_path);

  std::printf(
      "\nexpected shape: xrootd throughput rises with the window until the\n"
      "pipe is full (window ~ bandwidth-delay product), reproducing the\n"
      "mechanism behind Figure 4's WAN column. Davix's synchronous read-\n"
      "ahead cuts the request count but each refill still stalls a full\n"
      "RTT; the asynchronous sliding window (same chunk size) overlaps\n"
      "those round trips with consumption and reaches xrootd-window\n"
      "parity. Every row is timed from the reader's first network call,\n"
      "so the xrootd rows include connect, login and open, and a cold\n"
      "davix async open already carries its window. All rows are\n"
      "CRC-verified against the stored object.\n");
  return 0;
}
