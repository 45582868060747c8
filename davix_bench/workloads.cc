#include "davix_bench/workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/context.h"
#include "core/dav_file.h"
#include "core/dav_posix.h"
#include "davix_bench/trace.h"
#include "httpd/dav_handler.h"
#include "httpd/object_store.h"
#include "httpd/router.h"
#include "httpd/server.h"
#include "muxhttp/mux.h"
#include "netsim/link_profile.h"
#include "root/analysis_job.h"
#include "root/storage_adapter.h"
#include "root/tree_format.h"
#include "root/tree_reader.h"

namespace davix {
namespace bench {

const std::vector<MetricDef> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},
    {"rss_peak_MB", "MB"},
};

const std::vector<MetricDef> kPerLayerMetrics = {
    {"root.io_wait_s", "s"},
    {"root.cpu_s", "s"},
    {"root.cluster_wait_ms_p50", "ms"},
    {"root.cluster_wait_ms_p90", "ms"},
    {"root.local_floor_s", "s"},
    {"root.residual_share", "share"},
    {"root.vec_calls", "count/op"},
    {"root.async_prefetches", "count/op"},
    {"root.prefetch_wait_s", "s"},
    {"root.bytes_fetched", "B/op"},
    {"compress.decode_s", "s"},
    {"compress.decode_MBps", "MB/s"},
    {"core.requests", "count/op"},
    {"core.round_trips", "count/op"},
    {"core.ranges_per_query", "count"},
    {"core.connections_opened", "count/op"},
    {"core.reuse_share", "share"},
    {"core.retries", "count/op"},
    {"core.wire_bytes_per_payload_byte", "ratio"},
    {"core.mux.streams", "count/op"},
    {"core.mux.backpressure_waits", "count/op"},
    {"core.readahead.read_wait_ms_p50", "ms"},
    {"core.readahead.read_wait_ms_p99", "ms"},
    {"core.cache.hit_share", "share"},
    {"core.cache.bytes_saved", "B/op"},
    {"core.cache.evictions", "count/op"},
    {"core.op.get_range_ms_p50", "ms"},
    {"core.op.get_range_ms_p99", "ms"},
    {"core.op.get_vec_ms_p50", "ms"},
    {"core.op.get_vec_ms_p99", "ms"},
    {"core.op.stat_ms_p50", "ms"},
    {"core.op.stat_ms_p99", "ms"},
    {"core.op.propfind_ms_p50", "ms"},
    {"core.op.propfind_ms_p99", "ms"},
    {"core.op.put_ms_p50", "ms"},
    {"core.op.put_ms_p99", "ms"},
    {"httpd.requests_handled", "count/op"},
    {"httpd.keepalive_reuses", "count/op"},
    {"httpd.connections_accepted", "count/op"},
    {"httpd.requests_shed", "count/op"},
    {"bench.closed_loop_ops_per_s", "1/s"},
    {"bench.lateness_p99_ms", "ms"},
    {"bench.trace_overhead_share", "share"},
};

void WorkloadResult::Problem(const std::string& what) {
  correct = false;
  if (problems.size() < 10) problems.push_back(what);
}

namespace {

/// Offered rate of dav_ops_mixed phase 2, in operations per second over
/// all client threads: a quarter of the closed-loop rate (25 000 ops/s)
/// measured when the benchmark was introduced. A constant, so every commit
/// is offered the same load. At half that capacity the p90 was mostly
/// queueing behind the host's capacity swings and spread 40 % across runs.
constexpr double kDavOpsOfferedPerSec = 6250;

/// Each workload sets up this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 3;

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "davix_bench: fatal: %s\n", what.c_str());
  std::exit(2);
}

/// Nanoseconds on the clock MonotonicMicros reads: small operations take a
/// few hundred microseconds, which whole microseconds would quantise.
int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Pct(const SampleStats& stats, double q) {
  return stats.count() == 0 ? 0.0 : stats.Percentile(q);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void Merge(SampleStats* into, const SampleStats& from) {
  for (double v : from.samples()) into->Add(v);
}

/// Named counter snapshots, so deltas and per-op shares are one loop.
using Counts = std::map<std::string, double>;

Counts Minus(Counts a, const Counts& b) {
  for (auto& [key, value] : a) value -= b.at(key);
  return a;
}

void Accumulate(Counts* into, const Counts& add) {
  for (const auto& [key, value] : add) (*into)[key] += value;
}

Counts CoreCounts(core::Context& context) {
  IoCounters c = context.SnapshotCounters();
  return {
      {"requests", static_cast<double>(c.requests)},
      {"round_trips", static_cast<double>(c.network_round_trips)},
      {"vector_queries", static_cast<double>(c.vector_queries)},
      {"ranges", static_cast<double>(c.ranges_requested)},
      {"connections", static_cast<double>(c.connections_opened +
                                          c.mux_connections_opened)},
      {"retries", static_cast<double>(c.retries)},
      {"wire_bytes", static_cast<double>(c.bytes_read)},
      {"mux_streams", static_cast<double>(c.mux_streams_opened)},
      {"mux_waits", static_cast<double>(c.mux_backpressure_waits)},
      {"cache_hits", static_cast<double>(c.cache_hits)},
      {"cache_misses", static_cast<double>(c.cache_misses)},
      {"cache_saved", static_cast<double>(c.cache_bytes_saved)},
      {"cache_evictions", static_cast<double>(c.cache_evictions)},
  };
}

Counts ServerCounts(httpd::HttpServer& server) {
  httpd::ServerStats& s = server.stats();
  return {{"requests", static_cast<double>(s.requests_handled.load())},
          {"keepalive", static_cast<double>(s.keepalive_reuses.load())},
          {"accepted", static_cast<double>(s.connections_accepted.load())},
          {"shed", static_cast<double>(s.requests_shed.load())}};
}

/// The mux server has no keep-alive or admission-shedding counters.
Counts ServerCounts(muxhttp::MuxServer& server) {
  muxhttp::MuxServerStats& s = server.stats();
  return {{"requests", static_cast<double>(s.requests_handled.load())},
          {"keepalive", 0.0},
          {"accepted", static_cast<double>(s.connections_accepted.load())},
          {"shed", 0.0}};
}

/// core.* per-layer metrics from counter deltas over `units` operations;
/// `payload_bytes` is what the workload's reads delivered.
void PutCoreLayer(const Counts& c, double units, double payload_bytes,
                  WorkloadResult* result) {
  auto& m = result->metrics;
  m["core.requests"] = Ratio(c.at("requests"), units);
  m["core.round_trips"] = Ratio(c.at("round_trips"), units);
  m["core.ranges_per_query"] = Ratio(c.at("ranges"), c.at("vector_queries"));
  m["core.connections_opened"] = Ratio(c.at("connections"), units);
  m["core.reuse_share"] =
      c.at("round_trips") > 0 ? 1.0 - c.at("connections") / c.at("round_trips")
                              : 0.0;
  m["core.retries"] = Ratio(c.at("retries"), units);
  m["core.wire_bytes_per_payload_byte"] =
      Ratio(c.at("wire_bytes"), payload_bytes);
  m["core.mux.streams"] = Ratio(c.at("mux_streams"), units);
  m["core.mux.backpressure_waits"] = Ratio(c.at("mux_waits"), units);
  m["core.cache.hit_share"] = Ratio(
      c.at("cache_hits"), c.at("cache_hits") + c.at("cache_misses"));
  m["core.cache.bytes_saved"] = Ratio(c.at("cache_saved"), units);
  m["core.cache.evictions"] = Ratio(c.at("cache_evictions"), units);
}

void PutServerLayer(const Counts& s, double units, WorkloadResult* result) {
  auto& m = result->metrics;
  m["httpd.requests_handled"] = Ratio(s.at("requests"), units);
  m["httpd.keepalive_reuses"] = Ratio(s.at("keepalive"), units);
  m["httpd.connections_accepted"] = Ratio(s.at("accepted"), units);
  m["httpd.requests_shed"] = Ratio(s.at("shed"), units);
}

/// The measured window: wall clock and the spans opened in it.
class Window {
 public:
  Window() : spans_before_(Tracer::Get().seen()) {}

  double seconds() const { return stopwatch_.ElapsedSeconds(); }

  /// Ends the window, recording the tracing-cost inputs.
  void Close(double client_busy_seconds, WorkloadResult* result) const {
    result->window_spans = Tracer::Get().seen() - spans_before_;
    result->client_busy_seconds = client_busy_seconds;
  }

 private:
  Stopwatch stopwatch_;
  uint64_t spans_before_;
};

/// Samples bucketed into equal time slices of a window. A shared virtual
/// machine's host can stall every thread for tens of milliseconds at a
/// time, and its interference comes and goes within a run; a statistic
/// over slices confines a burst to the slices it hit instead of letting it
/// move the whole run.
class Slices {
 public:
  Slices(int64_t start_micros, double seconds, double slice_seconds)
      : start_micros_(start_micros),
        slice_micros_(static_cast<int64_t>(slice_seconds * 1e6)),
        slices_(std::max<size_t>(1, static_cast<size_t>(seconds /
                                                        slice_seconds))) {}

  /// Samples taken after the last whole slice are dropped.
  void Add(int64_t at_micros, double value) {
    if (at_micros < start_micros_) return;
    auto i = static_cast<size_t>((at_micros - start_micros_) / slice_micros_);
    if (i < slices_.size()) slices_[i].Add(value);
  }

  /// Lower quartile across slices of each slice's q-th percentile:
  /// interference only ever adds latency, so the quieter slices measure
  /// the program with the least of it.
  double LowerQuartileOf(double q) const {
    SampleStats per_slice;
    for (const SampleStats& slice : slices_) {
      if (slice.count() > 0) per_slice.Add(slice.Percentile(q));
    }
    return Pct(per_slice, 25);
  }

  /// Median across slices of samples per second.
  double MedianRate() const {
    SampleStats per_slice;
    for (const SampleStats& slice : slices_) {
      per_slice.Add(static_cast<double>(slice.count()) * 1e6 /
                    static_cast<double>(slice_micros_));
    }
    return Pct(per_slice, 50);
  }

 private:
  int64_t start_micros_;
  int64_t slice_micros_;
  std::vector<SampleStats> slices_;
};

/// Runs `build` kSetupRepeats times, keeps the last node and reports the
/// median build time as setup_s. The previous node is torn down (untimed)
/// before the next build, so memory never holds two datasets.
template <typename Build>
auto RepeatSetup(WorkloadResult* result, Build build) -> decltype(build()) {
  SampleStats seconds;
  decltype(build()) node;
  for (int i = 0; i < kSetupRepeats; ++i) {
    node.reset();
    Stopwatch stopwatch;
    node = build();
    seconds.Add(stopwatch.ElapsedSeconds());
  }
  result->metrics["setup_s"] = Pct(seconds, 50);
  return node;
}

std::shared_ptr<httpd::Router> DavRouter(
    std::shared_ptr<httpd::ObjectStore> store) {
  auto handler = std::make_shared<httpd::DavHandler>(std::move(store));
  auto router = std::make_shared<httpd::Router>();
  handler->Register(router.get(), "/");  // the route keeps the handler
  return router;
}

std::unique_ptr<httpd::HttpServer> StartHttp(
    const netsim::LinkProfile& link, std::shared_ptr<httpd::Router> router) {
  httpd::ServerConfig config;
  config.link = link;
  auto server = httpd::HttpServer::Start(config, std::move(router));
  if (!server.ok()) Fatal("http server: " + server.status().ToString());
  return std::move(*server);
}

// --- analysis_wan / analysis_lan_mux -------------------------------------

constexpr char kTreePath[] = "/atlas/events.rnt";

/// The Figure 4 async cell's dispatcher: pipeline depth x chunked batches
/// of sleep-bound shaped I/O, so it is not clamped to the core count.
constexpr size_t kFig4DispatcherThreads = 32;

/// The Figure 4 dataset: 12000 events in baskets of 125, eight branches
/// with one fat calorimeter branch (about 37 MB stored).
root::TreeSpec Fig4Spec(bool smoke) {
  root::TreeSpec spec;
  spec.n_events = smoke ? 1500 : 12000;
  spec.events_per_basket = 125;
  spec.codec = compress::CodecType::kDlz;
  spec.branches = {
      {"event_id", 8}, {"pt", 4},        {"eta", 4},
      {"phi", 4},      {"energy", 4},    {"charge", 1},
      {"n_tracks", 2}, {"cells", 4096},
  };
  return spec;
}

/// The Figure 4 async job: TreeCache clusters of 4 basket rows, a
/// four-deep prefetch pipeline over a five-cluster byte window, engaged
/// once a synchronous cluster fetch takes longer than 200 ms.
root::AnalysisConfig Fig4Config(const root::TreeSpec& spec,
                                uint64_t tree_bytes, uint32_t compute_iters) {
  root::AnalysisConfig config;
  config.compute_iterations_per_event = compute_iters;
  config.cache.cluster_rows = 4;
  config.cache.async_prefetch = true;
  config.cache.prefetch_pipeline_clusters = 4;
  uint64_t cluster_bytes = tree_bytes / spec.BasketCountPerBranch() * 4;
  config.cache.prefetch_window_bytes = cluster_bytes * 5;
  config.cache.prefetch_latency_threshold_micros = 200'000;
  return config;
}

core::RequestParams Fig4Request() {
  core::RequestParams params;
  params.metalink_mode = core::MetalinkMode::kDisabled;
  params.vector_parallel_chunk_bytes = 256 * 1024;
  return params;
}

struct AnalysisShape {
  const char* scheme;  ///< "davix" (pooled) or "davix+mux"
  netsim::LinkProfile link;
  uint32_t compute_iters;
};

struct AnalysisNode {
  std::string tree;
  std::unique_ptr<httpd::HttpServer> http;
  std::unique_ptr<muxhttp::MuxServer> mux;
  std::string url;

  Counts Server() { return http ? ServerCounts(*http) : ServerCounts(*mux); }
};

std::unique_ptr<AnalysisNode> BuildAnalysisNode(const AnalysisShape& shape,
                                                const root::TreeSpec& spec,
                                                uint64_t seed) {
  auto node = std::make_unique<AnalysisNode>();
  node->tree = root::BuildTreeFile(spec, seed);
  auto store = std::make_shared<httpd::ObjectStore>();
  store->Put(kTreePath, node->tree);
  auto router = DavRouter(store);
  uint16_t port = 0;
  if (std::string(shape.scheme) == "davix+mux") {
    muxhttp::MuxServerConfig config;
    config.link = shape.link;
    auto mux = muxhttp::MuxServer::Start(config, router);
    if (!mux.ok()) Fatal("mux server: " + mux.status().ToString());
    node->mux = std::move(*mux);
    port = node->mux->port();
  } else {
    node->http = StartHttp(shape.link, router);
    port = node->http->port();
  }
  node->url = std::string(shape.scheme) + "://127.0.0.1:" +
              std::to_string(port) + kTreePath;
  // Warm-up: open the tree once over the link (stat + header + index).
  core::Context context(core::SessionPoolConfig{}, kFig4DispatcherThreads);
  root::StorageOpenParams storage{&context, Fig4Request()};
  auto tree = root::OpenTreeUrl(node->url, storage);
  if (!tree.ok()) Fatal("warm-up open: " + tree.status().ToString());
  return node;
}

/// One analysis job. Traced jobs go through the timing decorator so the
/// analysis thread's blocked time lands in `io`; untraced jobs call the
/// library exactly as a user would.
Result<root::AnalysisReport> RunJob(const std::string& url,
                                    const root::AnalysisConfig& config,
                                    const root::StorageOpenParams& storage,
                                    RootIoTimes* io) {
  if (io == nullptr) return root::RunAnalysisOnUrl(url, config, storage);
  Span job("root.job");
  int64_t start = MonotonicMicros();
  auto file = [&] {
    Span open("core.open");
    return root::OpenStorage(url, storage);
  }();
  io->io_wait_micros += MonotonicMicros() - start;
  if (!file.ok()) return file.status();
  TimedFile timed(std::move(*file), io);
  return root::RunAnalysis(&timed, config);
}

/// Decompression cost of one job: every basket of the tree decoded, the
/// median of three passes. Returns {seconds, decoded bytes}.
std::pair<double, double> TimeDecode(const std::string& tree) {
  root::MemoryFile file(tree);
  auto reader = root::TreeReader::Open(&file);
  if (!reader.ok()) Fatal("decode: " + reader.status().ToString());
  std::string_view bytes(tree);
  SampleStats passes;
  double decoded = 0;
  for (int pass = 0; pass < 3; ++pass) {
    decoded = 0;
    Stopwatch stopwatch;
    for (const auto& branch : reader->index().baskets) {
      for (const root::BasketInfo& basket : branch) {
        Span span("compress.decode");
        auto out = root::TreeReader::DecodeBasket(
            bytes.substr(basket.offset, basket.stored_length));
        if (!out.ok()) Fatal("decode: " + out.status().ToString());
        decoded += static_cast<double>(out->size());
      }
    }
    passes.Add(stopwatch.ElapsedSeconds());
  }
  return {Pct(passes, 50), decoded};
}

void RunAnalysisWorkload(const AnalysisShape& shape, const RunOptions& options,
                         WorkloadResult* result) {
  root::TreeSpec spec = Fig4Spec(options.smoke);
  uint32_t compute_iters =
      options.smoke ? shape.compute_iters / 40 : shape.compute_iters;
  auto node = RepeatSetup(
      result, [&] { return BuildAnalysisNode(shape, spec, options.seed); });
  root::AnalysisConfig config =
      Fig4Config(spec, node->tree.size(), compute_iters);

  // Truth for the physics_sum check; its wall time is the local floor.
  Stopwatch floor_stopwatch;
  Result<root::AnalysisReport> truth = [&] {
    Span span("root.local_job");
    root::MemoryFile local(node->tree);
    return root::RunAnalysis(&local, config);
  }();
  double local_floor_s = floor_stopwatch.ElapsedSeconds();
  if (!truth.ok()) Fatal("local analysis: " + truth.status().ToString());

  SampleStats job_ms, io_wait_s, cpu_s, prefetch_wait_s, cluster_wait_ms;
  double bytes = 0, vec_calls = 0, prefetches = 0;
  Counts core_total, server_total;
  uint64_t jobs = 0;
  Window window;
  while (result->attempted == 0 || window.seconds() < options.seconds) {
    ++result->attempted;
    SetTraceOp(result->attempted);
    // A fresh Context per job: every job pays cold connections, as in
    // Figure 4.
    core::Context context(core::SessionPoolConfig{}, kFig4DispatcherThreads);
    root::StorageOpenParams storage{&context, Fig4Request()};
    Counts server_before = node->Server();
    RootIoTimes io;
    Stopwatch stopwatch;
    auto report = RunJob(node->url, config, storage,
                         options.traced ? &io : nullptr);
    double seconds = stopwatch.ElapsedSeconds();
    if (!report.ok()) {
      ++result->failed;
      std::fprintf(stderr, "analysis job failed: %s\n",
                   report.status().ToString().c_str());
      continue;
    }
    if (report->physics_sum != truth->physics_sum ||
        report->events_processed != truth->events_processed) {
      result->Problem("physics_sum differs from the local truth");
    }
    if (report->io.bytes_fetched != truth->io.bytes_fetched) {
      result->Problem("job fetched a different byte volume than the truth");
    }
    ++jobs;
    job_ms.Add(seconds * 1e3);
    bytes += static_cast<double>(report->io.bytes_fetched);
    if (options.traced) {
      double io_s = static_cast<double>(io.io_wait_micros) / 1e6;
      io_wait_s.Add(io_s);
      cpu_s.Add(seconds - io_s);
      Merge(&cluster_wait_ms, io.cluster_wait_ms);
      prefetch_wait_s.Add(
          static_cast<double>(report->io.prefetch_wait_micros) / 1e6);
      vec_calls += static_cast<double>(report->io.vector_reads);
      prefetches += static_cast<double>(report->io.async_prefetches);
      Accumulate(&core_total, CoreCounts(context));
      Accumulate(&server_total, Minus(node->Server(), server_before));
    }
  }
  window.Close(window.seconds(), result);

  auto& m = result->metrics;
  m["op_p50_ms"] = Pct(job_ms, 50);
  m["op_p90_ms"] = Pct(job_ms, 90);
  if (!options.traced) return;

  double n = static_cast<double>(jobs);
  double job_s = Pct(job_ms, 50) / 1e3;
  m["root.io_wait_s"] = Pct(io_wait_s, 50);
  m["root.cpu_s"] = Pct(cpu_s, 50);
  m["root.cluster_wait_ms_p50"] = Pct(cluster_wait_ms, 50);
  m["root.cluster_wait_ms_p90"] = Pct(cluster_wait_ms, 90);
  m["root.local_floor_s"] = local_floor_s;
  m["root.residual_share"] =
      (job_s - Pct(io_wait_s, 50) - local_floor_s) / job_s;
  m["root.vec_calls"] = vec_calls / n;
  m["root.async_prefetches"] = prefetches / n;
  m["root.prefetch_wait_s"] = Pct(prefetch_wait_s, 50);
  m["root.bytes_fetched"] = bytes / n;
  auto [decode_s, decoded_bytes] = TimeDecode(node->tree);
  m["compress.decode_s"] = decode_s;
  m["compress.decode_MBps"] = decoded_bytes / decode_s / 1e6;
  PutCoreLayer(core_total, n, bytes, result);
  PutServerLayer(server_total, n, result);
}

void AnalysisWan(const RunOptions& options, WorkloadResult* result) {
  RunAnalysisWorkload({"davix", netsim::LinkProfile::Wan(), 80'000}, options,
                      result);
}

void AnalysisLanMux(const RunOptions& options, WorkloadResult* result) {
  RunAnalysisWorkload({"davix+mux", netsim::LinkProfile::Lan(), 20'000},
                      options, result);
}

// --- scan_pan_zipf --------------------------------------------------------

constexpr size_t kScanReadBytes = 256 * 1024;

/// Object choices of the scan. Item k (0-based) of n has Zipf weight
/// 1 / (k + 1)^s; every kDeckSize consecutive choices hold each item in
/// proportion to its weight (largest-remainder rounding), in an order the
/// seed shuffles. Popularity is Zipf as with independent draws, but every
/// run sees the same mix, so the cache hit share — and with it the pass
/// rate — does not swing with the luck of a seed's draws.
class ZipfDeck {
 public:
  static constexpr size_t kDeckSize = 100;

  ZipfDeck(size_t n, double s, uint64_t seed) : rng_(seed) {
    std::vector<double> quota(n);
    double total = 0;
    for (size_t k = 0; k < n; ++k) {
      quota[k] = 1.0 / std::pow(static_cast<double>(k + 1), s);
      total += quota[k];
    }
    std::vector<std::pair<double, size_t>> remainders;
    for (size_t k = 0; k < n; ++k) {
      quota[k] *= kDeckSize / total;
      size_t whole = static_cast<size_t>(quota[k]);
      deck_.insert(deck_.end(), whole, k);
      remainders.emplace_back(quota[k] - static_cast<double>(whole), k);
    }
    std::sort(remainders.rbegin(), remainders.rend());
    for (size_t i = 0; deck_.size() < kDeckSize; ++i) {
      deck_.push_back(remainders[i].second);
    }
    next_ = deck_.size();
  }

  size_t Next() {
    if (next_ == deck_.size()) {
      for (size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[rng_.Below(i + 1)]);
      }
      next_ = 0;
    }
    return deck_[next_++];
  }

 private:
  Rng rng_;
  std::vector<size_t> deck_;
  size_t next_ = 0;
};

struct ScanNode {
  std::shared_ptr<httpd::ObjectStore> store;
  std::unique_ptr<httpd::HttpServer> http;
  // Destroyed before the server, the descriptors before their Context.
  std::unique_ptr<core::Context> context;
  std::unique_ptr<core::DavPosix> posix;
  std::vector<std::string> paths;
};

core::RequestParams ScanRequest() {
  core::RequestParams params;
  params.metalink_mode = core::MetalinkMode::kDisabled;
  params.readahead_bytes = 512 * 1024;
  params.readahead_window_chunks = 4;
  return params;
}

enum class PassOutcome { kOk, kFailed, kWrongBytes };

/// Opens object `k` and streams it to EOF in kScanReadBytes reads,
/// comparing every byte with the stored object. `read_wait_ms` (traced
/// runs) gets the time of each Read.
PassOutcome ScanPass(ScanNode* node, size_t k, uint64_t* delivered,
                     SampleStats* read_wait_ms, WorkloadResult* result) {
  const std::string& path = node->paths[k];
  // The server's own copy is the truth: scan objects are never rewritten.
  auto stored = node->store->Get(path);
  if (!stored.ok()) Fatal("scan object missing: " + path);
  const std::string& want = (*stored)->data;
  auto fd = [&] {
    Span span("core.open");
    return node->posix->Open(node->http->BaseUrl() + path, ScanRequest());
  }();
  if (!fd.ok()) return PassOutcome::kFailed;
  PassOutcome outcome = PassOutcome::kOk;
  uint64_t offset = 0;
  while (true) {
    int64_t start = MonotonicMicros();
    auto chunk = [&] {
      Span span("core.read");
      return node->posix->Read(*fd, kScanReadBytes);
    }();
    if (read_wait_ms != nullptr) {
      read_wait_ms->Add(static_cast<double>(MonotonicMicros() - start) / 1e3);
    }
    if (!chunk.ok()) {
      outcome = PassOutcome::kFailed;
      break;
    }
    if (chunk->empty()) break;
    if (offset + chunk->size() > want.size() ||
        std::memcmp(chunk->data(), want.data() + offset, chunk->size()) != 0) {
      result->Problem("scan: bytes differ from " + path + " at offset " +
                      std::to_string(offset));
      outcome = PassOutcome::kWrongBytes;
      break;
    }
    offset += chunk->size();
  }
  {
    Span span("core.close");
    node->posix->Close(*fd);
  }
  if (outcome == PassOutcome::kOk && offset != want.size()) {
    result->Problem("scan: short read of " + path);
    outcome = PassOutcome::kWrongBytes;
  }
  *delivered += offset;
  return outcome;
}

void ScanPanZipf(const RunOptions& options, WorkloadResult* result) {
  // 16 objects of 8 MiB against a 64 MiB cache: the working set is twice
  // the cache, so Zipf-popular objects hit and the tail misses.
  const size_t objects = options.smoke ? 4 : 16;
  const size_t object_bytes = options.smoke ? (1u << 20) : (8u << 20);
  const uint64_t cache_bytes = objects * object_bytes / 2;
  const int warmup_passes = options.smoke ? 2 : 8;

  auto node = RepeatSetup(result, [&] {
    auto built = std::make_unique<ScanNode>();
    built->store = std::make_shared<httpd::ObjectStore>();
    Rng data_rng(options.seed * 0x9E3779B97F4A7C15ull + 1);
    for (size_t k = 0; k < objects; ++k) {
      built->paths.push_back("/scan/obj" + std::to_string(k));
      built->store->Put(built->paths.back(), data_rng.Bytes(object_bytes));
    }
    built->http = StartHttp(netsim::LinkProfile::PanEuropean(),
                           DavRouter(built->store));
    core::BlockCacheConfig cache;
    cache.capacity_bytes = cache_bytes;
    built->context = std::make_unique<core::Context>(core::SessionPoolConfig{},
                                                    0, cache);
    built->posix = std::make_unique<core::DavPosix>(built->context.get());
    // Warm-up: untimed passes that open connections and fill the cache.
    ZipfDeck warm_deck(objects, 1.0, options.seed * 0x9E3779B97F4A7C15ull + 2);
    for (int i = 0; i < warmup_passes; ++i) {
      uint64_t ignored = 0;
      if (ScanPass(built.get(), warm_deck.Next(), &ignored, nullptr,
                   result) != PassOutcome::kOk) {
        Fatal("scan warm-up pass failed");
      }
    }
    return built;
  });

  ZipfDeck deck(objects, 1.0, options.seed * 0x9E3779B97F4A7C15ull + 3);
  SampleStats pass_ms, read_wait_ms;
  uint64_t passes = 0, delivered = 0;
  Counts core_before = CoreCounts(*node->context);
  Counts server_before = ServerCounts(*node->http);
  Window window;
  while (result->attempted == 0 || window.seconds() < options.seconds) {
    ++result->attempted;
    SetTraceOp(result->attempted);
    Span span("bench.pass");
    Stopwatch stopwatch;
    PassOutcome outcome =
        ScanPass(node.get(), deck.Next(), &delivered,
                 options.traced ? &read_wait_ms : nullptr, result);
    if (outcome == PassOutcome::kFailed) ++result->failed;
    if (outcome != PassOutcome::kOk) continue;
    ++passes;
    pass_ms.Add(stopwatch.ElapsedSeconds() * 1e3);
  }
  window.Close(window.seconds(), result);

  auto& m = result->metrics;
  m["op_p50_ms"] = Pct(pass_ms, 50);
  m["op_p90_ms"] = Pct(pass_ms, 90);
  if (!options.traced) return;

  double n = static_cast<double>(passes);
  m["core.readahead.read_wait_ms_p50"] = Pct(read_wait_ms, 50);
  m["core.readahead.read_wait_ms_p99"] = Pct(read_wait_ms, 99);
  PutCoreLayer(Minus(CoreCounts(*node->context), core_before), n,
               static_cast<double>(delivered), result);
  PutServerLayer(Minus(ServerCounts(*node->http), server_before), n, result);
}

// --- dav_ops_mixed --------------------------------------------------------

constexpr uint32_t kOpsThreads = 4;
constexpr size_t kOpsCollections = 4;
constexpr size_t kOpsPerCollection = 64;
constexpr size_t kOpsObjectBytes = 64 * 1024;
constexpr size_t kOpsReadBytes = 4 * 1024;
constexpr size_t kOpsVecRanges = 8;
constexpr size_t kOpsVecRangeBytes = 1024;
constexpr size_t kOpsPutBytes = 16 * 1024;
constexpr size_t kOpsWriteSlots = 16;

enum OpKind { kGetRange, kGetVec, kStat, kPropfind, kPut, kOpKinds };
const char* const kOpSpanNames[kOpKinds] = {
    "core.get_range", "core.get_vec", "core.stat", "core.propfind",
    "core.put"};
const char* const kOpMetricNames[kOpKinds] = {"get_range", "get_vec", "stat",
                                              "propfind", "put"};

struct OpsNode {
  std::shared_ptr<httpd::ObjectStore> store;
  std::unique_ptr<httpd::HttpServer> http;
  std::unique_ptr<core::Context> context;
  std::unique_ptr<core::DavPosix> posix;
  std::string base;
};

std::string ReadPath(size_t object) {
  return "/r/" + std::to_string(object / kOpsPerCollection) + "/o" +
         std::to_string(object % kOpsPerCollection);
}

/// The server's copy of a read-only object: the truth reads compare
/// against. The store keeps it alive; /r/ objects are never replaced.
std::string_view StoredBytes(const OpsNode& node, const std::string& path) {
  auto stored = node.store->Get(path);
  if (!stored.ok()) Fatal("dav_ops object missing: " + path);
  return (*stored)->data;
}

Result<core::DavFile> DavFileAt(const OpsNode& node, const std::string& path) {
  return core::DavFile::Make(node.context.get(), node.base + path);
}

core::RequestParams OpsRequest() {
  core::RequestParams params;
  params.metalink_mode = core::MetalinkMode::kDisabled;
  return params;
}

/// One client thread: its own op stream, the objects it wrote under
/// /w/<tid>/, and its samples. Touched by its thread only until joined.
struct OpsClient {
  OpsClient(uint64_t seed, uint32_t id)
      : rng(seed), tid(id), written(kOpsWriteSlots) {}

  Rng rng;
  uint32_t tid;
  /// Expected content of /w/<tid>/<slot>; empty = not written yet.
  std::vector<std::string> written;
  std::vector<size_t> written_slots;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t read_bytes = 0;
  /// Phase 1: completion time of each op.
  std::vector<int64_t> completions;
  /// Phase 2: due time and latency (from the due time) of each op.
  std::vector<std::pair<int64_t, double>> latency_ms;
  SampleStats lateness_ms;  ///< phase 2, start minus due time
  SampleStats service_ms[kOpKinds];  ///< traced runs, call time per kind
  std::vector<std::string> problems;
};

/// Draws one operation from the mix and runs it, checking every byte it
/// reads. Returns false when the operation failed.
bool RunOp(OpsNode* node, OpsClient* d, bool traced) {
  Rng& rng = d->rng;
  uint64_t dice = rng.Below(100);
  OpKind kind = dice < 55   ? kGetRange
                : dice < 70 ? kGetVec
                : dice < 80 ? kStat
                : dice < 85 ? kPropfind
                            : kPut;
  const core::RequestParams params = OpsRequest();
  std::string problem;
  bool ok = true;
  int64_t start = MonotonicNanos();
  switch (kind) {
    case kGetRange: {
      // One read in four goes back to this thread's own writes.
      std::string path;
      std::string_view want;
      if (!d->written_slots.empty() && rng.Below(4) == 0) {
        size_t slot = d->written_slots[rng.Below(d->written_slots.size())];
        path = "/w/" + std::to_string(d->tid) + "/" + std::to_string(slot);
        want = d->written[slot];
      } else {
        path = ReadPath(rng.Below(kOpsCollections * kOpsPerCollection));
        want = StoredBytes(*node, path);
      }
      uint64_t offset = rng.Below(want.size() - kOpsReadBytes + 1);
      auto got = [&] {
        Span span(kOpSpanNames[kind]);
        auto made = DavFileAt(*node, path);
        if (!made.ok()) return Result<std::string>(made.status());
        return made->ReadPartial(offset, kOpsReadBytes, params);
      }();
      if (!got.ok()) {
        ok = false;
      } else if (*got != want.substr(offset, kOpsReadBytes)) {
        problem = "get_range: wrong bytes from " + path;
      } else {
        d->read_bytes += got->size();
      }
      break;
    }
    case kGetVec: {
      std::string path =
          ReadPath(rng.Below(kOpsCollections * kOpsPerCollection));
      std::string_view want = StoredBytes(*node, path);
      // Eight distinct 1 KiB blocks of the object, in offset order.
      std::vector<uint64_t> blocks(kOpsObjectBytes / kOpsVecRangeBytes);
      for (size_t i = 0; i < blocks.size(); ++i) blocks[i] = i;
      for (size_t i = 0; i < kOpsVecRanges; ++i) {
        std::swap(blocks[i], blocks[i + rng.Below(blocks.size() - i)]);
      }
      blocks.resize(kOpsVecRanges);
      std::sort(blocks.begin(), blocks.end());
      std::vector<http::ByteRange> ranges;
      for (uint64_t b : blocks) {
        ranges.push_back({b * kOpsVecRangeBytes, kOpsVecRangeBytes});
      }
      auto got = [&] {
        Span span(kOpSpanNames[kind]);
        auto made = DavFileAt(*node, path);
        if (!made.ok()) {
          return Result<std::vector<std::string>>(made.status());
        }
        return made->ReadPartialVec(ranges, params);
      }();
      if (!got.ok()) {
        ok = false;
        break;
      }
      for (size_t i = 0; i < ranges.size(); ++i) {
        if (got->size() != ranges.size() ||
            (*got)[i] != want.substr(ranges[i].offset, ranges[i].length)) {
          problem = "get_vec: wrong bytes from " + path;
          break;
        }
        d->read_bytes += (*got)[i].size();
      }
      break;
    }
    case kStat: {
      std::string path =
          ReadPath(rng.Below(kOpsCollections * kOpsPerCollection));
      auto info = [&] {
        Span span(kOpSpanNames[kind]);
        return node->posix->Stat(node->base + path, params);
      }();
      if (!info.ok()) {
        ok = false;
      } else if (info->size != kOpsObjectBytes) {
        problem = "stat: wrong size for " + path;
      }
      break;
    }
    case kPropfind: {
      // No trailing slash: the server lists nothing for "/r/<g>/".
      std::string path = "/r/" + std::to_string(rng.Below(kOpsCollections));
      auto names = [&] {
        Span span(kOpSpanNames[kind]);
        return node->posix->ListDir(node->base + path, params);
      }();
      if (!names.ok()) {
        ok = false;
      } else if (names->size() != kOpsPerCollection) {
        problem = "propfind: " + std::to_string(names->size()) +
                  " entries in " + path;
      }
      break;
    }
    case kPut: {
      size_t slot = rng.Below(kOpsWriteSlots);
      std::string path =
          "/w/" + std::to_string(d->tid) + "/" + std::to_string(slot);
      std::string content = rng.Bytes(kOpsPutBytes);
      Status status = [&] {
        Span span(kOpSpanNames[kind]);
        auto made = DavFileAt(*node, path);
        if (!made.ok()) return made.status();
        return made->Put(content, params);
      }();
      if (!status.ok()) {
        ok = false;
        break;
      }
      if (d->written[slot].empty()) d->written_slots.push_back(slot);
      d->written[slot] = std::move(content);
      break;
    }
    case kOpKinds:
      break;
  }
  if (traced) {
    d->service_ms[kind].Add(static_cast<double>(MonotonicNanos() - start) /
                            1e6);
  }
  if (!problem.empty() && d->problems.size() < 10) {
    d->problems.push_back(problem);
  }
  ++d->ops;
  if (!ok) ++d->failed;
  return ok;
}

/// Runs `body(client)` on one thread per client and joins them all.
template <typename Body>
void OnClientThreads(std::vector<std::unique_ptr<OpsClient>>* clients,
                     Body body) {
  std::vector<std::thread> threads;
  for (auto& client : *clients) {
    OpsClient* d = client.get();
    threads.emplace_back([d, &body] {
      SetTraceThread(d->tid + 1);
      body(d);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

void DavOpsMixed(const RunOptions& options, WorkloadResult* result) {
  auto node = RepeatSetup(result, [&] {
    auto built = std::make_unique<OpsNode>();
    built->store = std::make_shared<httpd::ObjectStore>();
    Rng data_rng(options.seed * 0x9E3779B97F4A7C15ull + 4);
    for (size_t i = 0; i < kOpsCollections * kOpsPerCollection; ++i) {
      built->store->Put(ReadPath(i), data_rng.Bytes(kOpsObjectBytes));
    }
    built->http =
        StartHttp(netsim::LinkProfile::Loopback(), DavRouter(built->store));
    built->base = built->http->BaseUrl();
    built->context = std::make_unique<core::Context>();
    built->posix = std::make_unique<core::DavPosix>(built->context.get());
    // Warm-up: every client thread's connection, plus a short burst of
    // ops from a throw-away stream.
    std::vector<std::unique_ptr<OpsClient>> warm;
    for (uint32_t t = 0; t < kOpsThreads; ++t) {
      warm.push_back(std::make_unique<OpsClient>(options.seed + 1000 + t,
                                                 kOpsThreads + t));
    }
    OnClientThreads(&warm, [&](OpsClient* d) {
      for (int i = 0; i < 200; ++i) RunOp(built.get(), d, false);
    });
    for (auto& d : warm) {
      if (d->failed > 0 || !d->problems.empty()) {
        Fatal("dav_ops warm-up: " + std::to_string(d->failed) + " failed, " +
              (d->problems.empty() ? "no wrong output" : d->problems[0]));
      }
    }
    return built;
  });

  std::vector<std::unique_ptr<OpsClient>> clients;
  for (uint32_t t = 0; t < kOpsThreads; ++t) {
    clients.push_back(std::make_unique<OpsClient>(
        options.seed * 0x9E3779B97F4A7C15ull + 16 + t, t));
  }
  const double phase1_s = options.seconds / 5;
  const double phase2_s = options.seconds - phase1_s;
  const double offered = options.smoke ? 400 : kDavOpsOfferedPerSec;

  Counts core_before = CoreCounts(*node->context);
  Counts server_before = ServerCounts(*node->http);
  Window window;

  // Phase 1: closed loop, every thread issues its next op as soon as the
  // previous one returns — the highest rate the stack sustains (reported
  // by traced runs only: on a shared host it swings too much to bound).
  Stopwatch phase1;
  const int64_t phase1_start = MonotonicMicros();
  const int64_t phase1_end =
      phase1_start + static_cast<int64_t>(phase1_s * 1e6);
  OnClientThreads(&clients, [&](OpsClient* d) {
    while (MonotonicMicros() < phase1_end) {
      SetTraceOp((static_cast<uint64_t>(d->tid) << 40) | d->ops);
      {
        Span span("bench.op");
        RunOp(node.get(), d, options.traced);
      }
      d->completions.push_back(MonotonicMicros());
    }
  });
  double phase1_wall = phase1.ElapsedSeconds();

  // Phase 2: open loop at a fixed offered rate. Thread t sends ops
  // t, t + 4, t + 8, ... of one global schedule; latency counts from when
  // the op was due, so a stall also charges the ops queued behind it.
  Stopwatch phase2;
  const int64_t phase2_start_ns = MonotonicNanos() + 1'000'000;
  const int64_t phase2_start = phase2_start_ns / 1000;
  const int64_t phase2_end_ns =
      phase2_start_ns + static_cast<int64_t>(phase2_s * 1e9);
  OnClientThreads(&clients, [&](OpsClient* d) {
    for (uint64_t k = 0;; ++k) {
      int64_t due =
          phase2_start_ns +
          static_cast<int64_t>(static_cast<double>(d->tid + k * kOpsThreads) *
                               1e9 / offered);
      if (due >= phase2_end_ns) break;
      int64_t now = MonotonicNanos();
      if (now < due) SleepForMicros((due - now) / 1000);
      int64_t begin = MonotonicNanos();
      SetTraceOp((static_cast<uint64_t>(d->tid) << 40) | d->ops);
      bool ok = [&] {
        Span span("bench.op");
        return RunOp(node.get(), d, options.traced);
      }();
      int64_t end = MonotonicNanos();
      d->lateness_ms.Add(static_cast<double>(begin - due) / 1e6);
      if (ok) {
        d->latency_ms.emplace_back(due / 1000,
                                   static_cast<double>(end - due) / 1e6);
      }
    }
  });
  double phase2_wall = phase2.ElapsedSeconds();

  // Slices of about 0.25 s of closed loop and 0.5 s (about 3000 ops) of
  // open loop at the default length.
  Slices throughput(phase1_start, phase1_s, phase1_s / 12);
  Slices latency(phase2_start, phase2_s, phase2_s / 24);
  SampleStats lateness_ms, service_ms[kOpKinds];
  uint64_t ops = 0, read_bytes = 0;
  for (auto& d : clients) {
    ops += d->ops;
    read_bytes += d->read_bytes;
    result->attempted += d->ops;
    result->failed += d->failed;
    for (const std::string& p : d->problems) result->Problem(p);
    for (int64_t at : d->completions) throughput.Add(at, 0);
    for (const auto& [due, ms] : d->latency_ms) latency.Add(due, ms);
    Merge(&lateness_ms, d->lateness_ms);
    for (int k = 0; k < kOpKinds; ++k) Merge(&service_ms[k], d->service_ms[k]);
  }
  window.Close(kOpsThreads * (phase1_wall + phase2_wall), result);

  auto& m = result->metrics;
  m["op_p50_ms"] = latency.LowerQuartileOf(50);
  m["op_p90_ms"] = latency.LowerQuartileOf(90);
  if (!options.traced) return;

  m["bench.closed_loop_ops_per_s"] = throughput.MedianRate();
  double n = static_cast<double>(ops);
  for (int k = 0; k < kOpKinds; ++k) {
    std::string prefix = std::string("core.op.") + kOpMetricNames[k];
    m[prefix + "_ms_p50"] = Pct(service_ms[k], 50);
    m[prefix + "_ms_p99"] = Pct(service_ms[k], 99);
  }
  m["bench.lateness_p99_ms"] = Pct(lateness_ms, 99);
  PutCoreLayer(Minus(CoreCounts(*node->context), core_before), n,
               static_cast<double>(read_bytes), result);
  PutServerLayer(Minus(ServerCounts(*node->http), server_before), n, result);
}

}  // namespace

const std::vector<WorkloadDef>& AllWorkloads() {
  static const std::vector<WorkloadDef> workloads = {
      {"analysis_wan", &AnalysisWan},
      {"analysis_lan_mux", &AnalysisLanMux},
      {"scan_pan_zipf", &ScanPanZipf},
      {"dav_ops_mixed", &DavOpsMixed},
  };
  return workloads;
}

}  // namespace bench
}  // namespace davix
