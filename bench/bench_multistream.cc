// E6 (§2.4), reworked onto the ReplicaSet subsystem: replica-striped
// multi-source download. The paper: "libdavix will ... proceed to a
// multi-source parallel download of each referenced chunk of data from a
// different replica. This approach has the advantage to maximize the
// network bandwidth usage on the client side ... However, it has for
// main drawback to overload considerably the servers."
//
// Workload: download a 24 MiB resource replicated on 3 servers through
// core::ReplicaSet — single-source (1 stream, pinned to the best
// replica) vs striped multi-source (2/3 streams, chunk range-GETs
// rotated across the health-ranked replicas) — on LAN (one stream
// saturates) and WAN (per-connection throughput is TCP-window-limited,
// so stripes aggregate). A second phase reruns the striped WAN download
// against a warm per-Context block cache: the rerun must issue zero
// chunk range-GETs. Every delivered stream is CRC-verified; the binary
// exits non-zero on any mismatch or on warm-cache wire traffic. A full
// run repeats every cell 5 times (--smoke: once), each on a fresh
// deployment, and reports its median with min and max; the summary
// ratio is taken from the medians.

#include "bench/bench_util.h"
#include "common/checksum.h"
#include "common/clock.h"
#include "common/rng.h"
#include "core/context.h"
#include "core/metalink_engine.h"
#include "fed/federation_handler.h"
#include "fed/replica_catalog.h"

namespace davix {
namespace bench {
namespace {

constexpr char kPath[] = "/big/dataset.bin";

size_t ObjectBytes(bool smoke) { return (smoke ? 6 : 24) * 1024 * 1024; }
uint64_t ChunkBytes(bool smoke) { return (smoke ? 512 : 2048) * 1024; }

struct Deployment {
  std::vector<HttpNode> replicas;
  std::shared_ptr<fed::ReplicaCatalog> catalog;
  std::shared_ptr<fed::FederationHandler> federation;
  std::shared_ptr<httpd::Router> fed_router;
  std::unique_ptr<httpd::HttpServer> fed_server;

  void Stop() {
    for (HttpNode& node : replicas) node.server->Stop();
    fed_server->Stop();
  }
};

Deployment Deploy(const netsim::LinkProfile& link, const std::string& body) {
  Deployment d;
  d.catalog = std::make_shared<fed::ReplicaCatalog>();
  for (int i = 0; i < 3; ++i) {
    auto store = std::make_shared<httpd::ObjectStore>();
    store->Put(kPath, body);
    d.replicas.push_back(StartHttpNode(link, store));
    d.catalog->AddReplica(kPath, d.replicas.back().UrlFor(kPath), i + 1);
  }
  d.catalog->SetFileMeta(kPath, body.size(), Md5::HexDigest(body));
  d.federation = std::make_shared<fed::FederationHandler>(d.catalog);
  d.fed_router = std::make_shared<httpd::Router>();
  d.federation->Register(d.fed_router.get(), "/");
  auto server = httpd::HttpServer::Start({}, d.fed_router);
  if (!server.ok()) std::exit(1);
  d.fed_server = std::move(*server);
  return d;
}

bool g_verify_failed = false;

core::RequestParams MultiSourceParams(const Deployment& d, size_t streams,
                                      uint64_t chunk_bytes) {
  core::RequestParams params;
  params.metalink_mode = core::MetalinkMode::kMultiStream;
  params.metalink_resolver = d.fed_server->BaseUrl();
  params.multistream_chunk_bytes = chunk_bytes;
  params.multistream_max_streams = streams;
  return params;
}

/// One throughput cell: `reps` downloads via the ReplicaSet path with the
/// given stream count, each on a fresh deployment and Context (cold
/// pool, like a job). Returns the median wall seconds (for the summary
/// ratio); the counters are the last run's.
double RunCell(const netsim::LinkProfile& link, const std::string& body,
               size_t streams, uint64_t chunk_bytes, int reps,
               JsonReporter* json) {
  SampleStats seconds;
  bool ok = true;
  IoCounters io;
  std::vector<uint64_t> replica_requests;
  for (int rep = 0; rep < reps; ++rep) {
    Deployment d = Deploy(link, body);
    core::Context context;
    core::RequestParams params = MultiSourceParams(d, streams, chunk_bytes);
    params.use_block_cache = false;  // throughput cells measure the wire

    core::HttpClient client(&context);
    core::MetalinkEngine engine(&client);
    Stopwatch stopwatch;
    Result<std::string> data = engine.MultiStreamGet(
        *Uri::Parse(d.replicas[0].UrlFor(kPath)), params);
    seconds.Add(stopwatch.ElapsedSeconds());

    if (!data.ok() || Crc32(*data) != Crc32(body)) {
      std::fprintf(stderr, "download failed: %s\n",
                   data.ok() ? "crc mismatch"
                             : data.status().ToString().c_str());
      g_verify_failed = true;
      ok = false;
    }
    io = context.SnapshotCounters();
    replica_requests.clear();
    for (const HttpNode& replica : d.replicas) {
      replica_requests.push_back(replica.handler->stats().get_requests.load());
    }
    d.Stop();
  }
  double median = seconds.Percentile(50);
  double mbps = static_cast<double>(body.size()) / median / 1e6;
  std::printf("%-6s %8zu %10.3f %6.3f-%-6.3f %9.1f %11llu %10llu  ",
              link.name.c_str(), streams, median, seconds.Min(), seconds.Max(),
              mbps, static_cast<unsigned long long>(io.multisource_chunks),
              static_cast<unsigned long long>(io.replica_failovers));
  JsonReporter::Row& row = json->AddRow()
                               .Str("link", link.name)
                               .Str("scenario", "throughput")
                               .Int("streams", streams)
                               .Median("seconds", seconds)
                               .Num("mbps", mbps)
                               .Int("chunk_range_gets", io.multisource_chunks)
                               .Int("failovers", io.replica_failovers)
                               .Int("verified", ok ? 1 : 0);
  uint64_t total_requests = 0;
  for (size_t i = 0; i < replica_requests.size(); ++i) {
    uint64_t requests = replica_requests[i];
    total_requests += requests;
    std::printf(" %4llu", static_cast<unsigned long long>(requests));
    row.Int("replica" + std::to_string(i) + "_requests", requests);
  }
  row.Int("total_requests", total_requests);
  std::printf("\n");
  return median;
}

/// Warm-cache phase, `reps` times on a fresh deployment and Context:
/// the cold striped download fills the per-Context block cache; the
/// rerun must be served entirely by the cache probe — zero chunk
/// range-GETs on the wire.
void RunCachePhase(const netsim::LinkProfile& link, const std::string& body,
                   uint64_t chunk_bytes, int reps, JsonReporter* json) {
  const char* const kPhases[] = {"cold", "warm"};
  SampleStats seconds[2];
  uint64_t range_gets[2] = {};
  uint64_t cache_chunks[2] = {};
  bool ok[2] = {true, true};
  for (int rep = 0; rep < reps; ++rep) {
    Deployment d = Deploy(link, body);
    core::BlockCacheConfig cache_config;
    cache_config.capacity_bytes = 64ull << 20;
    core::Context context(core::SessionPoolConfig{}, 0, cache_config);
    core::RequestParams params = MultiSourceParams(d, 3, chunk_bytes);
    core::HttpClient client(&context);
    core::MetalinkEngine engine(&client);
    Uri resource = *Uri::Parse(d.replicas[0].UrlFor(kPath));

    for (int phase = 0; phase < 2; ++phase) {
      IoCounters before = context.SnapshotCounters();
      Stopwatch stopwatch;
      Result<std::string> data = engine.MultiStreamGet(resource, params);
      seconds[phase].Add(stopwatch.ElapsedSeconds());
      IoCounters after = context.SnapshotCounters();
      range_gets[phase] =
          after.multisource_chunks - before.multisource_chunks;
      cache_chunks[phase] =
          after.multisource_cache_chunks - before.multisource_cache_chunks;

      bool good = data.ok() && Crc32(*data) == Crc32(body);
      if (phase == 1 && range_gets[phase] != 0) {
        std::fprintf(stderr,
                     "warm rerun put %llu chunk range-GETs on the wire\n",
                     static_cast<unsigned long long>(range_gets[phase]));
        good = false;
      }
      if (!good) {
        ok[phase] = false;
        g_verify_failed = true;
      }
    }
    d.Stop();
  }

  for (int phase = 0; phase < 2; ++phase) {
    double median = seconds[phase].Percentile(50);
    double mbps = static_cast<double>(body.size()) / median / 1e6;
    std::printf("%-6s %8s %10.3f %6.3f-%-6.3f %9.1f %11llu %10llu\n",
                link.name.c_str(), kPhases[phase], median,
                seconds[phase].Min(), seconds[phase].Max(), mbps,
                static_cast<unsigned long long>(range_gets[phase]),
                static_cast<unsigned long long>(cache_chunks[phase]));
    json->AddRow()
        .Str("link", link.name)
        .Str("scenario", std::string("cache_") + kPhases[phase])
        .Int("streams", 3)
        .Median("seconds", seconds[phase])
        .Num("mbps", mbps)
        .Int("chunk_range_gets", range_gets[phase])
        .Int("cache_chunks", cache_chunks[phase])
        .Int("verified", ok[phase] ? 1 : 0);
  }
}

}  // namespace
}  // namespace bench
}  // namespace davix

int main(int argc, char** argv) {
  using namespace davix;
  using namespace davix::bench;
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintHeader("E6: replica-striped multi-source download (ReplicaSet)",
              "§2.4 of the libdavix paper (multi-stream strategy)");
  Rng rng(6);
  std::string body = rng.Bytes(ObjectBytes(args.smoke));
  uint64_t chunk_bytes = ChunkBytes(args.smoke);
  int reps = args.smoke ? 1 : 5;

  JsonReporter json("multisource");
  std::printf("%-6s %8s %10s %13s %9s %11s %10s   %s\n", "link", "streams",
              "median[s]", "min-max[s]", "MB/s", "chunk-GETs", "failovers",
              "requests per replica");
  std::vector<netsim::LinkProfile> links =
      args.smoke
          ? std::vector<netsim::LinkProfile>{netsim::LinkProfile::Lan()}
          : std::vector<netsim::LinkProfile>{netsim::LinkProfile::Lan(),
                                             netsim::LinkProfile::Wan()};
  for (const netsim::LinkProfile& link : links) {
    double single_seconds = 0;
    double seconds = 0;
    for (size_t streams : {1u, 2u, 3u}) {
      seconds = RunCell(link, body, streams, chunk_bytes, reps, &json);
      if (streams == 1) single_seconds = seconds;
    }
    double striped_over_single = seconds > 0 ? single_seconds / seconds : 0;
    std::printf("%-6s  striped(3) over single-source: %.2fx\n",
                link.name.c_str(), striped_over_single);
    json.AddRow()
        .Str("link", link.name)
        .Str("scenario", "summary")
        .Num("striped_over_single", striped_over_single);
  }

  std::printf(
      "\nwarm-cache rerun (striped, %s):\n%-6s %8s %10s %13s %9s %11s %10s\n",
      args.smoke ? "LAN" : "WAN", "link", "phase", "median[s]", "min-max[s]",
      "MB/s", "chunk-GETs", "cache-hits");
  RunCachePhase(args.smoke ? netsim::LinkProfile::Lan()
                           : netsim::LinkProfile::Wan(),
                body, chunk_bytes, reps, &json);

  json.WriteTo(args.json_path);
  std::printf(
      "\nexpected shape: on WAN, per-connection throughput is window-\n"
      "limited (~10 MB/s), so striping chunks across replicas aggregates\n"
      "substantially (>= 1.5x single-source); on LAN one stream already\n"
      "saturates the link and striping only spreads server load (the\n"
      "paper's stated drawback). The warm-cache rerun is served entirely\n"
      "from the block cache: zero chunk range-GETs.\n");
  return g_verify_failed ? 1 : 0;
}
