// E9 (ROADMAP "caching" direction): the per-Context block cache.
// Repeated-access analysis workloads re-read the same baskets many
// times; the OSDF/on-demand-cache papers in PAPERS.md show a cache
// layer dominating effective throughput for such patterns. This bench
// measures the block cache behind the real read paths on the WAN
// profile:
//
//   scan  sequential DavPosix::Read through the async read-ahead
//         window (512 KiB chunks, window 4) — cold fill vs warm
//         re-scan (served by the window's cache probe).
//   vec   TTreeCache-style scattered PReadVec (64 fragments) — cold
//         vs warm (cache-satisfied ranges carved out pre-coalesce).
//
// Every run CRC-verifies delivery against the stored object, and a
// cache-disabled control run must be byte-identical (same CRC) to the
// cache-enabled cold run — caching may never change delivered bytes.
// A run's time and request count start before DavPosix::Open, so the
// open's own requests (the HEAD, or a cold scan's first window) count.
// A full run repeats every phase 5 times, each on fresh Contexts
// (--smoke: once), and reports the median with min and max.
//
// Acceptance: warm scan >= 5x cold scan on WAN; disabled CRC == cold
// CRC. Committed results: BENCH_cache.json.

#include "bench/bench_util.h"
#include "common/checksum.h"
#include "common/clock.h"
#include "common/rng.h"
#include "core/context.h"
#include "core/dav_posix.h"

namespace davix {
namespace bench {
namespace {

constexpr char kPath[] = "/hot/dataset.bin";
constexpr uint64_t kChunkBytes = 512 * 1024;
constexpr size_t kWindowChunks = 4;
constexpr size_t kConsumeChunk = 256 * 1024;
constexpr size_t kVecFragments = 64;

size_t ObjectBytes(bool smoke) {
  return (smoke ? 4 : 16) * 1024 * 1024;
}

core::BlockCacheConfig CacheConfig(bool enabled) {
  core::BlockCacheConfig config;
  config.capacity_bytes = enabled ? 64ull * 1024 * 1024 : 0;
  config.block_bytes = 256 * 1024;
  return config;
}

/// The vectored scenario reads basket-sized fragments, so its Context
/// uses basket-sized cache lines: only blocks fully covered by fetched
/// spans become cache lines, and a 256 KiB line would never be covered
/// by a 32 KiB fragment.
core::BlockCacheConfig VecCacheConfig() {
  core::BlockCacheConfig config = CacheConfig(true);
  config.block_bytes = 16 * 1024;
  return config;
}

struct RunOutcome {
  double seconds = 0;
  uint64_t bytes = 0;
  uint32_t crc = 0;
  IoCounters io;
};

/// Full sequential scan of the object through the async window.
RunOutcome RunScan(core::Context* context, const std::string& url,
                   uint64_t object_bytes) {
  core::DavPosix posix(context);
  core::RequestParams params;
  params.metalink_mode = core::MetalinkMode::kDisabled;
  params.readahead_bytes = kChunkBytes;
  params.readahead_window_chunks = kWindowChunks;
  context->ResetCounters();
  RunOutcome outcome;
  Stopwatch stopwatch;
  auto fd = posix.Open(url, params);
  if (!fd.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 fd.status().ToString().c_str());
    std::exit(1);
  }
  while (true) {
    auto chunk = posix.Read(*fd, kConsumeChunk);
    if (!chunk.ok()) {
      std::fprintf(stderr, "read failed: %s\n",
                   chunk.status().ToString().c_str());
      std::exit(1);
    }
    if (chunk->empty()) break;
    outcome.crc = Crc32(*chunk, outcome.crc);
    outcome.bytes += chunk->size();
  }
  outcome.seconds = stopwatch.ElapsedSeconds();
  outcome.io = context->SnapshotCounters();
  if (outcome.bytes != object_bytes) {
    std::fprintf(stderr, "short scan: %llu/%llu bytes\n",
                 static_cast<unsigned long long>(outcome.bytes),
                 static_cast<unsigned long long>(object_bytes));
    std::exit(1);
  }
  (void)posix.Close(*fd);
  return outcome;
}

/// Scattered vectored read: kVecFragments spread over the object.
RunOutcome RunVec(core::Context* context, const std::string& url,
                  uint64_t object_bytes, const std::string& content) {
  core::DavPosix posix(context);
  core::RequestParams params;
  params.metalink_mode = core::MetalinkMode::kDisabled;
  uint64_t fragment = object_bytes / (kVecFragments * 2);
  std::vector<http::ByteRange> ranges;
  ranges.reserve(kVecFragments);
  for (size_t i = 0; i < kVecFragments; ++i) {
    ranges.push_back({i * 2 * fragment, fragment});
  }
  context->ResetCounters();
  RunOutcome outcome;
  Stopwatch stopwatch;
  auto fd = posix.Open(url, params);
  if (!fd.ok()) std::exit(1);
  auto results = posix.PReadVec(*fd, ranges);
  if (!results.ok()) {
    std::fprintf(stderr, "vectored read failed: %s\n",
                 results.status().ToString().c_str());
    std::exit(1);
  }
  outcome.seconds = stopwatch.ElapsedSeconds();
  outcome.io = context->SnapshotCounters();
  for (size_t i = 0; i < results->size(); ++i) {
    const std::string& got = (*results)[i];
    if (got != content.substr(ranges[i].offset, ranges[i].length)) {
      std::fprintf(stderr, "VERIFICATION FAILED: fragment %zu differs\n", i);
      std::exit(1);
    }
    outcome.crc = Crc32(got, outcome.crc);
    outcome.bytes += got.size();
  }
  (void)posix.Close(*fd);
  return outcome;
}

/// One phase's repetitions: the seconds of every run, the last run's
/// outcome (counts and CRC are the same on every run), and whether every
/// run delivered the expected CRC.
struct Phase {
  SampleStats seconds;
  RunOutcome last;
  bool verified = true;

  void Add(const RunOutcome& outcome, uint32_t expect_crc) {
    seconds.Add(outcome.seconds);
    last = outcome;
    verified = verified && outcome.crc == expect_crc;
  }
  double Median() const { return seconds.Percentile(50); }
};

void Report(JsonReporter* json, const netsim::LinkProfile& link,
            const char* scenario, const char* phase, bool cache_enabled,
            const Phase& runs) {
  const RunOutcome& outcome = runs.last;
  double median = runs.Median();
  double mbps = median > 0 ? outcome.bytes / median / 1e6 : 0.0;
  std::printf("%-6s %-6s %-14s %10.3f %6.3f-%-6.3f %12.1f %9llu %9llu %14llu\n",
              link.name.c_str(), scenario, phase, median, runs.seconds.Min(),
              runs.seconds.Max(), mbps,
              static_cast<unsigned long long>(outcome.io.requests),
              static_cast<unsigned long long>(outcome.io.cache_hits),
              static_cast<unsigned long long>(outcome.io.cache_bytes_saved));
  json->AddRow()
      .Str("link", link.name)
      .Str("scenario", scenario)
      .Str("phase", phase)
      .Int("cache_enabled", cache_enabled ? 1 : 0)
      .Median("seconds", runs.seconds)
      .Num("mbps", mbps)
      .Int("bytes", outcome.bytes)
      .Int("requests", outcome.io.requests)
      .Int("cache_hits", outcome.io.cache_hits)
      .Int("cache_misses", outcome.io.cache_misses)
      .Int("cache_evictions", outcome.io.cache_evictions)
      .Int("cache_bytes_saved", outcome.io.cache_bytes_saved)
      .Int("crc32", outcome.crc)
      .Int("verified", runs.verified ? 1 : 0);
}

}  // namespace
}  // namespace bench
}  // namespace davix

int main(int argc, char** argv) {
  using namespace davix;
  using namespace davix::bench;
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintHeader("E9: per-Context block cache (warm vs cold vs disabled)",
              "ROADMAP caching direction; cache papers in PAPERS.md");
  size_t object_bytes = ObjectBytes(args.smoke);
  auto store = std::make_shared<httpd::ObjectStore>();
  Rng rng(9);
  std::string content = rng.Bytes(object_bytes);
  uint32_t content_crc = Crc32(content);
  store->Put(kPath, content);

  netsim::LinkProfile wan = netsim::LinkProfile::Wan();
  HttpNode node = StartHttpNode(wan, store);
  std::string url = node.UrlFor(kPath);

  JsonReporter json("cache");
  std::printf("%-6s %-6s %-14s %10s %13s %12s %9s %9s %14s\n", "link",
              "bench", "phase", "median[s]", "min-max[s]", "MB/s", "requests",
              "hits", "bytes-saved");

  const int reps = args.smoke ? 1 : 5;
  Phase scan_cold, scan_warm, scan_off, vec_cold, vec_warm;
  uint32_t vec_crc = 0;
  for (int rep = 0; rep < reps; ++rep) {
    // --- scan: cold fill, then warm re-scan on the same Context ------
    core::Context cached_context({}, 0, CacheConfig(true));
    scan_cold.Add(RunScan(&cached_context, url, object_bytes), content_crc);
    scan_warm.Add(RunScan(&cached_context, url, object_bytes), content_crc);

    // --- scan: cache-disabled control (must be byte-identical) -------
    core::Context plain_context({}, 0, CacheConfig(false));
    scan_off.Add(RunScan(&plain_context, url, object_bytes), content_crc);

    // --- vectored: cold vs warm on a fresh cached Context ------------
    // RunVec checks every fragment against the object; the CRC of the
    // fragments must then agree across runs and phases.
    core::Context vec_context({}, 0, VecCacheConfig());
    RunOutcome cold = RunVec(&vec_context, url, object_bytes, content);
    if (rep == 0) vec_crc = cold.crc;
    vec_cold.Add(cold, vec_crc);
    vec_warm.Add(RunVec(&vec_context, url, object_bytes, content), vec_crc);
  }
  Report(&json, wan, "scan", "cold", true, scan_cold);
  Report(&json, wan, "scan", "warm", true, scan_warm);
  Report(&json, wan, "scan", "disabled", false, scan_off);
  Report(&json, wan, "vec", "cold", true, vec_cold);
  Report(&json, wan, "vec", "warm", true, vec_warm);

  bool crc_ok = scan_cold.verified && scan_warm.verified &&
                scan_off.verified && vec_cold.verified && vec_warm.verified;
  double scan_speedup = scan_warm.Median() > 0
                            ? scan_cold.Median() / scan_warm.Median()
                            : 0.0;
  double vec_speedup =
      vec_warm.Median() > 0 ? vec_cold.Median() / vec_warm.Median() : 0.0;
  std::printf(
      "\nwarm-over-cold speedup (medians): scan %.1fx, vectored %.1fx; "
      "warm scan requests: %llu\n"
      "CRC check (enabled cold == disabled == stored object): %s\n",
      scan_speedup, vec_speedup,
      static_cast<unsigned long long>(scan_warm.last.io.requests),
      crc_ok ? "OK" : "MISMATCH");
  json.AddRow()
      .Str("link", wan.name)
      .Str("scenario", "summary")
      .Num("scan_warm_over_cold", scan_speedup)
      .Num("vec_warm_over_cold", vec_speedup)
      .Int("warm_scan_requests", scan_warm.last.io.requests)
      .Int("crc_identical", crc_ok ? 1 : 0);
  json.WriteTo(args.json_path);

  if (!crc_ok) {
    std::fprintf(stderr,
                 "VERIFICATION FAILED: cache changed delivered bytes\n");
    return 1;
  }
  std::printf(
      "\nexpected shape: the cold scan pays one WAN round trip per chunk\n"
      "(hidden partly by the async window; its open sends the first\n"
      "window, so it costs no extra request); the warm scan's only\n"
      "request is the open's revalidation HEAD — every chunk is served\n"
      "by the cache probe — so it runs in about one round trip, far\n"
      "beyond the 5x acceptance bar. The vectored phases pay the open's\n"
      "HEAD too. The disabled control matches the cold CRC bit for bit:\n"
      "the cache never changes delivered bytes, only where they come\n"
      "from.\n");
  return 0;
}
