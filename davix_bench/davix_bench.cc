// davix_bench: the repository's repeatable end-to-end benchmark.
//
// Four workloads, each run in its own child process so that peak memory
// and CPU time belong to one workload:
//
//   analysis_wan       Figure 4 async cell, davix:// over the WAN profile
//   analysis_lan_mux   the same job over davix+mux:// on the LAN profile
//   scan_pan_zipf      Zipf-popular 8 MiB objects streamed through
//                      DavPosix read-ahead and a half-size block cache
//   dav_ops_mixed      small HttpClient/DavFile/DavPosix operations on
//                      loopback, closed loop then a fixed-rate open loop
//
// Usage:
//   davix_bench --workload <name|all> [--seed N] [--seconds S]
//               [--trace trace.json] [--json out.json] [--smoke]
//
// Prints every end-to-end metric by name and unit. --trace makes the run a
// traced one: spans at each layer boundary (Chrome trace-event JSON written
// to the given file, one file per workload) and the per-layer metrics.
// --smoke runs tiny datasets with every check on and also checks that the
// program's own counts repeat exactly across two runs on one seed.
// Exits non-zero on any wrong byte, CRC or physics_sum.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "davix_bench/trace.h"
#include "davix_bench/workloads.h"

namespace davix {
namespace bench {
namespace {

/// Spans kept per traced run; later ones are only counted.
constexpr size_t kMaxSpans = 100'000;

struct Args {
  std::string workload;
  RunOptions run;
  std::string trace_path;
  std::string json_path;
};

void Usage() {
  std::fprintf(stderr,
               "usage: davix_bench --workload <name|all> [--seed N] "
               "[--seconds S] [--trace trace.json] [--json out.json] "
               "[--smoke]\nworkloads:");
  for (const WorkloadDef& w : AllWorkloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      args->run.smoke = true;
    } else if (flag == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args->run.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args->run.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args->trace_path = argv[++i];
    } else if (flag == "--json" && has_value) {
      args->json_path = argv[++i];
    } else {
      std::fprintf(stderr, "davix_bench: bad argument '%s'\n", argv[i]);
      return false;
    }
  }
  if (args->run.smoke) args->run.seconds = 1;
  args->run.traced = args->run.smoke || !args->trace_path.empty();
  return !args->workload.empty() && args->run.seconds > 0;
}

/// Trace file of one workload: `path` itself for a single workload,
/// "<stem>.<workload><ext>" when several run.
std::string TracePathFor(const std::string& path, const std::string& name,
                         bool several) {
  if (path.empty() || !several) return path;
  size_t dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos) {
    return path + "." + name;
  }
  return path.substr(0, dot) + "." + name + path.substr(dot);
}

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Quote(const std::string& raw) {
  std::string out = "\"";
  for (char c : raw) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// {"name": {"value": v, "unit": "u"}, ...} over `defs`.
std::string MetricsJson(const WorkloadResult& r,
                        const std::vector<MetricDef>& defs) {
  std::string out = "{";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = r.metrics.find(defs[i].name);
    double value = it == r.metrics.end() ? 0.0 : it->second;
    out += (i == 0 ? "" : ", ") + Quote(defs[i].name) + ": {\"value\": " +
           Num(value) + ", \"unit\": " + Quote(defs[i].unit) + "}";
  }
  return out + "}";
}

/// Runs one workload in this process (the child), finishing the metrics
/// that belong to the whole process: peak memory and tracing cost.
WorkloadResult RunHere(const WorkloadDef& def, const RunOptions& run,
                       const std::string& trace_path) {
  if (run.traced) Tracer::Get().Enable(kMaxSpans);
  WorkloadResult result;
  def.run(run, &result);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  result.metrics["rss_peak_MB"] = static_cast<double>(usage.ru_maxrss) / 1024;
  if (run.traced) {
    double span_micros = MeasureSpanCostMicros(20'000);
    result.metrics["bench.trace_overhead_share"] =
        result.client_busy_seconds > 0
            ? static_cast<double>(result.window_spans) * span_micros /
                  (result.client_busy_seconds * 1e6)
            : 0.0;
  }
  if (!trace_path.empty()) {
    std::string other = "\"workload\": " + Quote(def.name) +
                        ", \"seed\": " + std::to_string(run.seed) +
                        ", \"end_to_end\": " +
                        MetricsJson(result, kEndToEndMetrics) +
                        ", \"per_layer\": " +
                        MetricsJson(result, kPerLayerMetrics);
    if (!Tracer::Get().WriteChromeTrace(trace_path, other)) {
      std::fprintf(stderr, "davix_bench: cannot write %s\n",
                   trace_path.c_str());
    }
  }
  return result;
}

// Child -> parent wire format: one "key value" line per field.
std::string Serialize(const WorkloadResult& r) {
  std::string out = "correct " + std::to_string(r.correct ? 1 : 0) + "\n";
  out += "attempted " + std::to_string(r.attempted) + "\n";
  out += "failed " + std::to_string(r.failed) + "\n";
  for (const auto& [name, value] : r.metrics) {
    out += "metric " + name + " " + Num(value) + "\n";
  }
  for (std::string problem : r.problems) {
    for (char& c : problem) {
      if (c == '\n') c = ' ';
    }
    out += "problem " + problem + "\n";
  }
  return out;
}

bool Deserialize(const std::string& text, WorkloadResult* r) {
  std::istringstream in(text);
  std::string key;
  bool saw_correct = false;
  while (in >> key) {
    if (key == "correct") {
      int v = 0;
      in >> v;
      r->correct = v == 1;
      saw_correct = true;
    } else if (key == "attempted") {
      in >> r->attempted;
    } else if (key == "failed") {
      in >> r->failed;
    } else if (key == "metric") {
      std::string name;
      double value = 0;
      in >> name >> value;
      r->metrics[name] = value;
    } else if (key == "problem") {
      std::string line;
      std::getline(in, line);
      r->problems.push_back(line.empty() ? line : line.substr(1));
    } else {
      return false;
    }
  }
  return saw_correct;
}

/// Forks a child that runs one workload and reports back over a pipe. No
/// thread exists in this process when it forks: workloads start theirs in
/// the child.
WorkloadResult RunInChild(const WorkloadDef& def, const RunOptions& run,
                          const std::string& trace_path) {
  WorkloadResult failed_result;
  int fds[2];
  if (pipe(fds) != 0) {
    failed_result.Problem(std::string("pipe: ") + std::strerror(errno));
    return failed_result;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    failed_result.Problem(std::string("fork: ") + std::strerror(errno));
    return failed_result;
  }
  if (pid == 0) {
    close(fds[0]);
    std::string text = Serialize(RunHere(def, run, trace_path));
    size_t written = 0;
    while (written < text.size()) {
      ssize_t n = write(fds[1], text.data() + written, text.size() - written);
      if (n <= 0) _exit(3);
      written += static_cast<size_t>(n);
    }
    close(fds[1]);
    std::fflush(stdout);
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) != 0) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  WorkloadResult result;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      !Deserialize(text, &result)) {
    failed_result.Problem("workload process ended abnormally (status " +
                          std::to_string(status) + ")");
    return failed_result;
  }
  return result;
}

void Print(const std::string& name, const RunOptions& run,
           const WorkloadResult& r) {
  std::printf("\n== %s  seed %llu  %.0f s  %s  attempted %llu  failed %llu\n",
              name.c_str(), static_cast<unsigned long long>(run.seed),
              run.seconds, r.correct ? "correct" : "WRONG OUTPUT",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const std::string& p : r.problems) std::printf("   ! %s\n", p.c_str());
  auto print = [&](const std::vector<MetricDef>& defs) {
    for (const MetricDef& def : defs) {
      auto it = r.metrics.find(def.name);
      std::printf("  %-36s %14.6g %s\n", def.name,
                  it == r.metrics.end() ? 0.0 : it->second, def.unit);
    }
  };
  print(kEndToEndMetrics);
  if (run.traced) {
    std::printf("  -- per layer (traced run) --\n");
    print(kPerLayerMetrics);
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  std::vector<const WorkloadDef*> selected;
  for (const WorkloadDef& w : AllWorkloads()) {
    if (args.workload == "all" || args.workload == w.name) {
      selected.push_back(&w);
    }
  }
  if (selected.empty()) {
    Usage();
    return 2;
  }

  bool all_correct = true;
  std::string json = "{\"seed\": " + std::to_string(args.run.seed) +
                     ", \"seconds\": " + Num(args.run.seconds) +
                     ", \"traced\": " + (args.run.traced ? "true" : "false") +
                     ", \"workloads\": {";
  for (size_t i = 0; i < selected.size(); ++i) {
    const WorkloadDef& def = *selected[i];
    std::fprintf(stderr, "davix_bench: running %s\n", def.name);
    WorkloadResult r = RunInChild(
        def, args.run,
        TracePathFor(args.trace_path, def.name, selected.size() > 1));
    Print(def.name, args.run, r);
    all_correct = all_correct && r.correct;
    std::string problems = "[";
    for (size_t p = 0; p < r.problems.size(); ++p) {
      problems += (p == 0 ? "" : ", ") + Quote(r.problems[p]);
    }
    json += std::string(i == 0 ? "" : ", ") + Quote(def.name) +
            ": {\"correct\": " + (r.correct ? "true" : "false") +
            ", \"attempted\": " + std::to_string(r.attempted) +
            ", \"failed\": " + std::to_string(r.failed) +
            ", \"problems\": " + problems + "]" +
            ", \"end_to_end\": " + MetricsJson(r, kEndToEndMetrics) +
            (args.run.traced
                 ? ", \"per_layer\": " + MetricsJson(r, kPerLayerMetrics)
                 : std::string()) +
            "}";
  }
  json += "}}\n";

  if (args.run.smoke) {
    // Counts that a later change may cite must repeat exactly: rerun one
    // workload on the same seed and compare.
    const char* kRepeatWorkload = "analysis_lan_mux";
    const char* kExactCounts[] = {"core.requests", "root.vec_calls",
                                  "root.bytes_fetched"};
    for (const WorkloadDef& w : AllWorkloads()) {
      if (std::string(w.name) != kRepeatWorkload) continue;
      WorkloadResult first = RunInChild(w, args.run, "");
      WorkloadResult second = RunInChild(w, args.run, "");
      for (const char* count : kExactCounts) {
        double a = first.metrics[count], b = second.metrics[count];
        bool same = a == b && a > 0;
        std::printf("repeat %s %s: %.17g vs %.17g %s\n", kRepeatWorkload,
                    count, a, b, same ? "ok" : "DIFFERENT");
        all_correct = all_correct && same;
      }
    }
  }

  if (!args.json_path.empty()) {
    std::FILE* f = std::fopen(args.json_path.c_str(), "w");
    if (f == nullptr || std::fputs(json.c_str(), f) < 0 ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "davix_bench: cannot write %s\n",
                   args.json_path.c_str());
      return 1;
    }
  }
  std::printf("\n%s\n", all_correct ? "all outputs correct"
                                    : "WRONG OUTPUT: see above");
  return all_correct ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace davix

int main(int argc, char** argv) { return davix::bench::Main(argc, argv); }
