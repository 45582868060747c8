// E1 (Figure 4): execution time of a ROOT-style data analysis job reading
// events from a remote tree file over the paper's three network classes —
// now a five-column transport matrix selected by URL through the
// StorageAdapter registry:
//
//   naive       davix://      TreeCache disabled: one read per basket,
//                             the §2.3 "very large number of individual
//                             data access operations"
//   sync        davix://      synchronous TreeCache vectored reads — the
//                             paper's davix design point
//   async       davix://      pipelined TreeCache prefetch over the
//                             dispatcher-backed async ReadPartialVec
//   async+mux   davix+mux://  same, over the framed mux transport
//   xrootd      xrd://        the async baseline, same pipelined cache
//
// Paper numbers (seconds, 100 % of events):
//   CERN<->CERN (LAN)    HTTP  97.22   XRootD  97.91   (HTTP 0.7 % faster)
//   UK<->CERN   (PAN)    HTTP 107.88   XRootD 107.80   (parity)
//   USA<->CERN  (WAN)    HTTP 203.49   XRootD 173.20   (XRootD 17.5 % faster)
//
// The paper's WAN gap exists because its davix executed vector queries
// synchronously while XRootD overlapped prefetch with compute. The async
// davix column closes it: the acceptance gates below require async-davix
// to be >= 2x the sync column at WAN and within 1.25x of XRootD.
//
// Every cell is CRC-gated: physics_sum must equal the local (MemoryFile)
// truth, and the cached modes must fetch byte-identical volumes (the
// prefetch window never refetches or skips a basket byte).
//
// Usage: bench_fig4_analysis [--reps N] [--fractions] [--quick] [--smoke]

#include <cstring>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "common/stats.h"
#include "core/context.h"
#include "muxhttp/mux.h"
#include "root/analysis_job.h"
#include "root/tree_format.h"

namespace davix {
namespace bench {
namespace {

constexpr char kTreePath[] = "/atlas/events.rnt";

/// Scaled-down stand-in for the paper's 700 MB / 12000-event file: same
/// event count, smaller events (the cells branch dominates volume). The
/// basket granularity keeps the cluster count near the real file's scale
/// (dozens of clusters, not a handful) so one-time connection warm-up is
/// amortised the way it is in the paper's runs.
root::TreeSpec BenchSpec(bool quick) {
  root::TreeSpec spec;
  spec.n_events = quick ? 3000 : 12000;
  spec.events_per_basket = 125;
  spec.codec = compress::CodecType::kDlz;
  spec.branches = {
      {"event_id", 8}, {"pt", 4},        {"eta", 4},
      {"phi", 4},      {"energy", 4},    {"charge", 1},
      {"n_tracks", 2}, {"cells", 4096},
  };
  return spec;
}

enum class Mode { kNaive, kSync, kAsync, kAsyncMux, kXrd };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kNaive:    return "naive";
    case Mode::kSync:     return "sync";
    case Mode::kAsync:    return "async";
    case Mode::kAsyncMux: return "async+mux";
    case Mode::kXrd:      return "xrootd";
  }
  return "?";
}

root::AnalysisConfig JobConfig(Mode mode, double fraction,
                               uint64_t window_bytes, uint32_t compute_iters) {
  root::AnalysisConfig config;
  config.fraction = fraction;
  // Physics compute dominates LAN runs, as in the paper (the LAN column is
  // nearly flat across protocols because the job is CPU-bound there).
  config.compute_iterations_per_event = compute_iters;
  config.cache.cluster_rows = 4;
  config.cache.enabled = mode != Mode::kNaive;
  bool async = mode == Mode::kAsync || mode == Mode::kAsyncMux ||
               mode == Mode::kXrd;
  config.cache.async_prefetch = async;
  // The sliding-window budget: how many bytes of upcoming clusters may be
  // requested while the current one is being processed, spread over a
  // pipeline up to four clusters deep — deep enough that a WAN round
  // trip is always in flight behind the compute.
  config.cache.prefetch_window_bytes = window_bytes;
  config.cache.prefetch_pipeline_clusters = 4;
  // Adaptive readahead: keep refilling the window only on high-latency
  // paths (where the paper's §3 places XRootD's advantage); LAN/PAN
  // cluster fetches stay below this threshold, so they get the first
  // fill alone.
  config.cache.prefetch_latency_threshold_micros = 200'000;
  return config;
}

struct Cell {
  double mean_seconds = 0;
  double stddev = 0;
  root::TreeCacheStats io;
  double physics_sum = 0;
  uint64_t events = 0;
};

/// All the servers one link's column shares: the HTTP node, a framed mux
/// server on the same router/link, and an xrootd node on the same store.
struct LinkNodes {
  HttpNode http;
  std::unique_ptr<muxhttp::MuxServer> mux;
  std::unique_ptr<xrootd::XrdServer> xrd;

  std::string UrlFor(Mode mode) const {
    switch (mode) {
      case Mode::kAsyncMux:
        return "davix+mux://127.0.0.1:" + std::to_string(mux->port()) +
               kTreePath;
      case Mode::kXrd:
        return "xrd://127.0.0.1:" + std::to_string(xrd->port()) + kTreePath;
      default:
        return "davix://127.0.0.1:" + std::to_string(http.server->port()) +
               kTreePath;
    }
  }
};

LinkNodes StartNodes(const netsim::LinkProfile& link,
                     std::shared_ptr<httpd::ObjectStore> store) {
  LinkNodes nodes;
  nodes.http = StartHttpNode(link, store);
  muxhttp::MuxServerConfig mux_config;
  mux_config.link = link;
  auto mux = muxhttp::MuxServer::Start(mux_config, nodes.http.router);
  if (!mux.ok()) {
    std::fprintf(stderr, "fatal: cannot start mux node: %s\n",
                 mux.status().ToString().c_str());
    std::exit(1);
  }
  nodes.mux = std::move(*mux);
  nodes.xrd = StartXrdNode(link, store);
  return nodes;
}

void StopNodes(LinkNodes* nodes) {
  nodes->http.server->Stop();
  nodes->mux->Stop();
  nodes->xrd->Stop();
}

Cell RunCell(const LinkNodes& nodes, Mode mode, double fraction, int reps,
             uint64_t window_bytes, uint32_t compute_iters) {
  Cell cell;
  SampleStats stats;
  for (int rep = 0; rep < reps; ++rep) {
    // Fresh context per run: cold pool, like a job. The dispatcher is
    // sized for the async columns' fan-out — pipeline depth x chunked
    // batches of sleep-bound shaped IO, not CPU work, so it must not be
    // clamped to the (possibly single-digit) core count or the chunk
    // requests of concurrent prefetches serialize.
    core::Context context(core::SessionPoolConfig{}, /*dispatcher_threads=*/32);
    root::StorageOpenParams storage;
    storage.context = &context;
    storage.request.metalink_mode = core::MetalinkMode::kDisabled;
    if (mode == Mode::kAsync || mode == Mode::kAsyncMux) {
      // The async davix columns run the multi-stream chunked vector path
      // (§2.4 parallel streams applied to §2.3 vector reads): cluster
      // fetches fan out across pooled connections instead of being bound
      // by one connection's congestion window. 256 KiB chunks clear TCP
      // slow start in ~4 round trips on a cold connection, and a cluster's
      // worth of chunks times the pipeline depth stays within the pool's
      // idle cap, so the steady state runs entirely on warm connections.
      // The sync column keeps the paper's single-stream vectored read —
      // that contrast is Figure 4.
      storage.request.vector_parallel_chunk_bytes = 256 * 1024;
    }
    Stopwatch stopwatch;
    auto report = root::RunAnalysisOnUrl(
        nodes.UrlFor(mode), JobConfig(mode, fraction, window_bytes,
                                      compute_iters),
        storage);
    if (!report.ok()) {
      std::fprintf(stderr, "analysis (%s) failed: %s\n", ModeName(mode),
                   report.status().ToString().c_str());
      std::exit(1);
    }
    stats.Add(stopwatch.ElapsedSeconds());
    cell.io = report->io;
    cell.physics_sum = report->physics_sum;
    cell.events = report->events_processed;
  }
  cell.mean_seconds = stats.Mean();
  cell.stddev = stats.Stddev();
  return cell;
}

/// Exit-gate helper: CRC / accounting mismatches are correctness bugs,
/// not noise — fail loudly, in smoke runs too.
void Require(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "GATE FAILED: %s\n", what);
  std::exit(1);
}

/// Timing-gate outcome of one matrix, enforced by the caller after the
/// JSON artifact is written — a failed ratio still leaves the numbers on
/// disk for CI to archive.
struct TimingGates {
  bool enforce = false;
  double wan_sync = 0;
  double wan_async = 0;
  double wan_xrd = 0;
};

TimingGates RunMatrix(double fraction, int reps, uint64_t window_bytes,
                      uint32_t compute_iters, bool full_gates,
                      const std::string& tree,
                      std::shared_ptr<httpd::ObjectStore> store,
                      JsonReporter* json) {
  std::printf("\n--- fraction of events read: %.0f %% ---\n", fraction * 100);
  std::printf("%-6s %-10s %9s %7s %8s %10s %9s %12s   %s\n", "link",
              "mode", "time[s]", "sd", "vecreads", "prefetch", "discard",
              "MB fetched", "profile");

  // Local truth for the CRC gate.
  root::MemoryFile local(tree);
  auto truth = root::RunAnalysis(
      &local,
      JobConfig(Mode::kSync, fraction, window_bytes, compute_iters));
  if (!truth.ok()) std::exit(1);

  const Mode kModes[] = {Mode::kNaive, Mode::kSync, Mode::kAsync,
                         Mode::kAsyncMux, Mode::kXrd};
  struct Row {
    std::string link;
    Mode mode;
    Cell cell;
  };
  std::vector<Row> rows;
  for (const netsim::LinkProfile& link : PaperProfiles()) {
    LinkNodes nodes = StartNodes(link, store);
    for (Mode mode : kModes) {
      // The naive column exists to show the §2.3 problem, not to be
      // averaged: one repetition (it is ~10x slower at WAN).
      int mode_reps = mode == Mode::kNaive ? 1 : reps;
      rows.push_back({link.name, mode,
                      RunCell(nodes, mode, fraction, mode_reps, window_bytes,
                              compute_iters)});
    }
    StopNodes(&nodes);
  }

  double max_time = 0;
  for (const Row& row : rows) {
    max_time = std::max(max_time, row.cell.mean_seconds);
  }
  for (const Row& row : rows) {
    const root::TreeCacheStats& io = row.cell.io;
    std::printf("%-6s %-10s %9.3f %7.3f %8llu %10llu %9llu %12.2f   %s\n",
                row.link.c_str(), ModeName(row.mode), row.cell.mean_seconds,
                row.cell.stddev,
                static_cast<unsigned long long>(io.vector_reads),
                static_cast<unsigned long long>(io.async_prefetches),
                static_cast<unsigned long long>(io.prefetch_discards),
                static_cast<double>(io.bytes_fetched) / 1e6,
                Bar(row.cell.mean_seconds, max_time).c_str());
    json->AddRow()
        .Str("link", row.link)
        .Str("mode", ModeName(row.mode))
        .Num("fraction", fraction)
        .Num("mean_seconds", row.cell.mean_seconds)
        .Num("stddev_seconds", row.cell.stddev)
        .Int("vector_reads", io.vector_reads)
        .Int("ranges_requested", io.ranges_requested)
        .Int("single_reads", io.single_reads)
        .Int("async_prefetches", io.async_prefetches)
        .Int("prefetch_discards", io.prefetch_discards)
        .Int("bytes_fetched", io.bytes_fetched)
        .Int("bytes_prefetched_early", io.bytes_prefetched_early)
        .Num("prefetch_wait_seconds",
             static_cast<double>(io.prefetch_wait_micros) / 1e6);

    // Correctness gates, every cell, every run shape.
    Require(row.cell.physics_sum == truth->physics_sum,
            "physics_sum differs from local truth (CRC mismatch)");
    Require(row.cell.events == truth->events_processed,
            "events_processed differs from local truth");
  }

  auto cell = [&](const std::string& link, Mode mode) -> const Cell& {
    for (const Row& row : rows) {
      if (row.link == link && row.mode == mode) return row.cell;
    }
    std::fprintf(stderr, "missing cell\n");
    std::exit(1);
  };

  // The prefetch window must be an overlap optimisation only: byte-for-
  // byte the cached modes fetch exactly what the sync mode fetches.
  for (const netsim::LinkProfile& link : PaperProfiles()) {
    uint64_t sync_bytes = cell(link.name, Mode::kSync).io.bytes_fetched;
    Require(cell(link.name, Mode::kAsync).io.bytes_fetched == sync_bytes,
            "async davix fetched different byte volume than sync");
    Require(cell(link.name, Mode::kAsyncMux).io.bytes_fetched == sync_bytes,
            "async mux fetched different byte volume than sync");
    Require(cell(link.name, Mode::kXrd).io.bytes_fetched == sync_bytes,
            "xrootd fetched different byte volume than sync");
  }

  // WAN is where overlap pays: the async davix column must actually
  // prefetch there (the adaptive latch engages past the threshold).
  Require(cell("WAN", Mode::kAsync).io.async_prefetches > 0,
          "async davix did not prefetch at WAN");
  Require(cell("WAN", Mode::kXrd).io.async_prefetches > 0,
          "xrootd did not prefetch at WAN");

  double wan_sync = cell("WAN", Mode::kSync).mean_seconds;
  double wan_async = cell("WAN", Mode::kAsync).mean_seconds;
  double wan_xrd = cell("WAN", Mode::kXrd).mean_seconds;
  double lan_sync = cell("LAN", Mode::kSync).mean_seconds;
  double wan_naive = cell("WAN", Mode::kNaive).mean_seconds;

  std::printf("\nclaims (paper -> measured):\n");
  std::printf("  naive  penalty at WAN: %.1fx slower than sync TreeCache\n",
              wan_sync > 0 ? wan_naive / wan_sync : 0.0);
  std::printf("  paper WAN design point: xrootd 17.5%% ahead of sync HTTP "
              "-> measured %+.1f%%\n",
              wan_xrd > 0 ? (wan_sync - wan_xrd) / wan_xrd * 100 : 0.0);
  std::printf("  async davix at WAN: %.2fx faster than sync "
              "(gate >= 2x), %.2fx of xrootd (gate <= 1.25x)\n",
              wan_async > 0 ? wan_sync / wan_async : 0.0,
              wan_xrd > 0 ? wan_async / wan_xrd : 0.0);
  std::printf("  WAN/LAN slowdown (sync davix): paper 2.09x -> "
              "measured %.2fx\n",
              lan_sync > 0 ? wan_sync / lan_sync : 0.0);
  json->AddRow()
      .Str("link", "summary")
      .Num("fraction", fraction)
      .Num("wan_naive_over_sync", wan_sync > 0 ? wan_naive / wan_sync : 0.0)
      .Num("wan_sync_over_async", wan_async > 0 ? wan_sync / wan_async : 0.0)
      .Num("wan_async_over_xrd", wan_xrd > 0 ? wan_async / wan_xrd : 0.0)
      .Num("wan_over_lan_sync", lan_sync > 0 ? wan_sync / lan_sync : 0.0);

  TimingGates gates;
  gates.enforce = full_gates;
  gates.wan_sync = wan_sync;
  gates.wan_async = wan_async;
  gates.wan_xrd = wan_xrd;
  return gates;
}

int Main(int argc, char** argv) {
  int reps = 3;
  bool fractions = false;
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--fractions") == 0) {
      fractions = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      // CI smoke mode: smallest dataset, one repetition, no fractions.
      quick = true;
      fractions = false;
      reps = 1;
    }
  }
  if (reps < 1) reps = 1;

  PrintHeader("E1: ROOT analysis job execution time (Figure 4 matrix)",
              "naive / sync / async / async+mux davix vs xrootd, by URL");

  root::TreeSpec spec = BenchSpec(quick);
  // Smaller per-event compute in quick mode keeps sanitizer smokes fast;
  // the full run uses the CPU-heavy figure the paper's LAN parity needs.
  uint32_t compute_iters = quick ? 20'000 : 80'000;
  std::printf("dataset: %llu events, %zu branches, %llu B/event, "
              "building tree file...\n",
              static_cast<unsigned long long>(spec.n_events),
              spec.branches.size(),
              static_cast<unsigned long long>(spec.BytesPerEvent()));
  std::string tree = root::BuildTreeFile(spec, /*seed=*/2014);
  std::printf("tree file: %s stored (%s raw)\n",
              HumanBytes(tree.size()).c_str(),
              HumanBytes(spec.BytesPerEvent() * spec.n_events).c_str());

  // Sliding-window budget: five clusters' worth of stored bytes over a
  // four-deep pipeline — full clusters stay in flight (stored sizes vary
  // with compression, so the window needs headroom above depth x mean or
  // the last slot degenerates into a truncated prefix) and a WAN round
  // trip is always in flight while the current cluster decompresses.
  uint64_t rows = spec.BasketCountPerBranch();
  uint64_t cluster_bytes = tree.size() / rows * 4;  // cluster_rows = 4
  uint64_t window_bytes = cluster_bytes * 5;
  std::printf("cluster ~%s, prefetch window %s (pipeline depth 4)\n",
              HumanBytes(cluster_bytes).c_str(),
              HumanBytes(window_bytes).c_str());

  auto store = std::make_shared<httpd::ObjectStore>();
  store->Put(kTreePath, tree);

  JsonReporter json("fig4_analysis");
  TimingGates gates = RunMatrix(1.0, reps, window_bytes, compute_iters,
                                !quick, tree, store, &json);
  if (fractions) {
    RunMatrix(0.5, reps, window_bytes, compute_iters, false, tree, store,
              &json);
    RunMatrix(0.1, reps, window_bytes, compute_iters, false, tree, store,
              &json);
  }
  // Write the artifact before enforcing timing ratios: a failed gate
  // should still leave the measured numbers on disk for CI to archive.
  json.WriteTo(json_path);
  if (gates.enforce) {
    // The acceptance gates of the full-size run. Smoke datasets are too
    // small for stable timing ratios, so these only run full-size.
    Require(gates.wan_async * 2 <= gates.wan_sync,
            "async davix not >= 2x faster than sync at WAN");
    Require(gates.wan_async <= gates.wan_xrd * 1.25,
            "async davix more than 1.25x slower than xrootd at WAN");
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace davix

int main(int argc, char** argv) { return davix::bench::Main(argc, argv); }
