// E4 (§2.3): vectored I/O via HTTP multi-range queries. The paper: "This
// approach reduces drastically the number of remote network I/O
// operations and offers the advantage to reduce the necessity of parallel
// I/O operations".
//
// Workload: M scattered small reads (the HEP event-fragment pattern)
// against a 32 MiB object, executed (a) naively — one ranged GET per
// fragment, (b) as davix vectored queries — coalescing + multi-range
// batches over one connection, (c) with the parallel dispatcher — the
// same batches in flight concurrently, each on its own pooled session.
// Reported: wall time, HTTP requests on the wire and round trips, per
// network class. Modes (b) and (c) put the *same* requests on the wire;
// the parallel column shows what overlapping their round trips buys as
// link latency grows. Each cell runs 5 times (once with --smoke) on a
// fresh server and Context; the JSON carries the median seconds with
// min/max, and the counts, which repeat exactly.
//
// Usage: bench_vectored_io [--smoke] [--json <path>]

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/rng.h"
#include "core/context.h"
#include "core/dav_file.h"

namespace davix {
namespace bench {
namespace {

constexpr size_t kObjectBytes = 32 * 1024 * 1024;
constexpr uint64_t kFragmentBytes = 8 * 1024;

enum class Mode { kNaive, kVectored, kParallel };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kNaive:
      return "naive";
    case Mode::kVectored:
      return "vectored";
    case Mode::kParallel:
      return "parallel";
  }
  return "?";
}

std::vector<http::ByteRange> MakeFragments(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<http::ByteRange> ranges;
  ranges.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t offset = rng.Below(kObjectBytes - kFragmentBytes);
    ranges.push_back(http::ByteRange{offset, kFragmentBytes});
  }
  return ranges;
}

/// One cell's repetitions: the seconds of every run and the last run's
/// counters (the same on every run).
struct CellResult {
  SampleStats seconds;
  IoCounters io;
};

/// Runs one matrix cell `reps` times, each on a fresh server and Context.
CellResult RunCell(const netsim::LinkProfile& link,
                   std::shared_ptr<httpd::ObjectStore> store,
                   const std::string& content, size_t fragments, Mode mode,
                   int reps, JsonReporter* reporter) {
  std::vector<http::ByteRange> ranges = MakeFragments(fragments, 42);
  CellResult cell;
  for (int rep = 0; rep < reps; ++rep) {
    HttpNode node = StartHttpNode(link, store);
    core::Context context;
    core::RequestParams params;
    params.metalink_mode = core::MetalinkMode::kDisabled;
    params.max_ranges_per_request = 32;
    params.vector_gap_bytes = 4096;
    // Sequential vectored mode pins the dispatcher to one connection;
    // the parallel mode uses the auto bound (pool max_idle_per_host).
    params.max_parallel_range_requests = mode == Mode::kParallel ? 0 : 1;
    core::DavFile file = *core::DavFile::Make(&context, node.UrlFor("/obj"));

    std::vector<std::string> results;
    Stopwatch stopwatch;
    if (mode == Mode::kNaive) {
      for (const http::ByteRange& r : ranges) {
        auto data = file.ReadPartial(r.offset, r.length, params);
        if (!data.ok()) std::exit(1);
        results.push_back(std::move(*data));
      }
    } else {
      auto vec = file.ReadPartialVec(ranges, params);
      if (!vec.ok()) std::exit(1);
      results = std::move(*vec);
    }
    cell.seconds.Add(stopwatch.ElapsedSeconds());

    // Every mode must deliver bit-identical fragments; a fast wrong
    // answer is no answer.
    for (size_t i = 0; i < ranges.size(); ++i) {
      if (results[i] != content.substr(ranges[i].offset, ranges[i].length)) {
        std::fprintf(stderr, "fatal: %s mode corrupted fragment %zu\n",
                     ModeName(mode), i);
        std::exit(1);
      }
    }
    cell.io = context.SnapshotCounters();
    node.server->Stop();
  }

  std::printf("%-6s %5zu %-10s %10.3f %10llu %12llu %12llu\n",
              link.name.c_str(), fragments, ModeName(mode),
              cell.seconds.Percentile(50),
              static_cast<unsigned long long>(cell.io.requests),
              static_cast<unsigned long long>(cell.io.network_round_trips),
              static_cast<unsigned long long>(cell.io.bytes_read));
  if (reporter != nullptr) {
    reporter->AddRow()
        .Str("section", "matrix")
        .Str("link", link.name)
        .Int("fragments", fragments)
        .Str("mode", ModeName(mode))
        .Median("seconds", cell.seconds)
        .Int("requests", cell.io.requests)
        .Int("round_trips", cell.io.network_round_trips)
        .Int("bytes_read", cell.io.bytes_read)
        .Int("ranges_requested", cell.io.ranges_requested);
  }
  return cell;
}

int Run(const BenchArgs& args) {
  PrintHeader(
      "E4: vectored multi-range I/O — naive vs sequential vs parallel",
      "§2.3 of the libdavix paper (HTTP multi-range, data sieving)");
  auto store = std::make_shared<httpd::ObjectStore>();
  Rng rng(4);
  std::string content = rng.Bytes(kObjectBytes);
  store->Put("/obj", content);

  JsonReporter reporter("bench_vectored_io");
  const int reps = args.smoke ? 1 : 5;

  std::vector<netsim::LinkProfile> links =
      args.smoke ? std::vector<netsim::LinkProfile>{netsim::LinkProfile::Lan()}
                 : PaperProfiles();
  std::vector<size_t> fragment_counts =
      args.smoke ? std::vector<size_t>{64} : std::vector<size_t>{64, 256, 512};

  std::printf("%-6s %5s %-10s %10s %10s %12s %12s\n", "link", "M", "mode",
              "median[s]", "requests", "round-trips", "bytes_read");
  for (const netsim::LinkProfile& link : links) {
    for (size_t fragments : fragment_counts) {
      // Naive mode at 256+ fragments on WAN would take ~30 s of pure
      // round-trip waiting; the smaller rows already show the slope.
      bool run_naive =
          fragments <= 256 && !(link.name == "WAN" && fragments > 64);
      if (run_naive) {
        RunCell(link, store, content, fragments, Mode::kNaive, reps,
                &reporter);
      }
      CellResult vec = RunCell(link, store, content, fragments,
                               Mode::kVectored, reps, &reporter);
      CellResult par = RunCell(link, store, content, fragments,
                               Mode::kParallel, reps, &reporter);
      double par_median = par.seconds.Percentile(50);
      if (par_median > 0) {
        std::printf("%-6s %5zu parallel speedup over vectored: %.2fx "
                    "(same %llu requests on the wire)\n",
                    link.name.c_str(), fragments,
                    vec.seconds.Percentile(50) / par_median,
                    static_cast<unsigned long long>(par.io.requests));
      }
    }
  }
  std::printf(
      "\nexpected shape: vectored modes need orders of magnitude fewer\n"
      "requests than naive; parallel dispatch overlaps the remaining batch\n"
      "round trips, so its gain over sequential vectored grows with RTT x\n"
      "batch count while wire requests and bytes stay identical.\n");

  // --- ablation: the data-sieving gap -----------------------------------
  // Coalescing nearby fragments across a gap trades extra bytes on the
  // wire for fewer wire ranges (and so fewer batches / round trips).
  if (!args.smoke) {
    std::printf(
        "\n[data-sieving gap ablation, 256 clustered fragments, PAN]\n");
    std::printf("%10s %10s %12s %12s %10s\n", "gap[B]", "median[s]",
                "wire-ranges", "bytes_read", "requests");
    netsim::LinkProfile pan = netsim::LinkProfile::PanEuropean();
    // Clustered fragments: 32 clusters of 8 fragments 1 KiB apart — the
    // basket-layout pattern where sieving shines.
    std::vector<http::ByteRange> ranges;
    Rng cluster_rng(11);
    for (int cluster = 0; cluster < 32; ++cluster) {
      uint64_t base = cluster_rng.Below(kObjectBytes - 64 * 1024);
      for (int i = 0; i < 8; ++i) {
        ranges.push_back(
            http::ByteRange{base + static_cast<uint64_t>(i) * 1024, 512});
      }
    }
    for (uint64_t gap : {0ull, 512ull, 4096ull, 65536ull}) {
      SampleStats seconds;
      IoCounters io;
      for (int rep = 0; rep < reps; ++rep) {
        HttpNode node = StartHttpNode(pan, store);
        core::Context context;
        core::RequestParams params;
        params.metalink_mode = core::MetalinkMode::kDisabled;
        params.vector_gap_bytes = gap;
        params.max_ranges_per_request = 64;
        core::DavFile file =
            *core::DavFile::Make(&context, node.UrlFor("/obj"));
        Stopwatch stopwatch;
        auto results = file.ReadPartialVec(ranges, params);
        if (!results.ok()) std::exit(1);
        seconds.Add(stopwatch.ElapsedSeconds());
        io = context.SnapshotCounters();
        node.server->Stop();
      }
      std::printf("%10llu %10.3f %12llu %12llu %10llu\n",
                  static_cast<unsigned long long>(gap),
                  seconds.Percentile(50),
                  static_cast<unsigned long long>(io.ranges_requested),
                  static_cast<unsigned long long>(io.bytes_read),
                  static_cast<unsigned long long>(io.requests));
      reporter.AddRow()
          .Str("section", "gap_ablation")
          .Str("link", pan.name)
          .Int("gap_bytes", gap)
          .Median("seconds", seconds)
          .Int("wire_ranges", io.ranges_requested)
          .Int("bytes_read", io.bytes_read)
          .Int("requests", io.requests);
    }
    std::printf(
        "expected: larger gaps coalesce the 8-fragment clusters into one\n"
        "wire range each, cutting ranges/requests at a small byte cost.\n");
  }

  reporter.WriteTo(args.json_path);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace davix

int main(int argc, char** argv) {
  return davix::bench::Run(davix::bench::ParseBenchArgs(argc, argv));
}
