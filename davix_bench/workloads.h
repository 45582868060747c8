#ifndef DAVIX_BENCH_WORKLOADS_H_
#define DAVIX_BENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace davix {
namespace bench {

/// How one workload run is sized and whether it is traced.
struct RunOptions {
  uint64_t seed = 1;
  /// Length of the measured window; set-up and the warm-up come on top.
  double seconds = 15;
  /// Tiny datasets and a one-second window, every check still on.
  bool smoke = false;
  /// Per-layer run: spans, the timing decorator and counter snapshots.
  bool traced = false;
};

/// Name and unit of one reported metric.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// Metrics every workload reports (the end-to-end view, measured with
/// tracing off) and the per-layer metrics a traced run adds. A per-layer
/// metric that a workload does not exercise reads 0.
extern const std::vector<MetricDef> kEndToEndMetrics;
extern const std::vector<MetricDef> kPerLayerMetrics;

/// Outcome of one workload run.
struct WorkloadResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// First few correctness failures, for the log.
  std::vector<std::string> problems;
  /// Tracing cost inputs: spans opened and client-thread time inside the
  /// measured window.
  uint64_t window_spans = 0;
  double client_busy_seconds = 0;

  /// Records a wrong output (bytes, CRC, physics sum): the run is not
  /// correct.
  void Problem(const std::string& what);
};

using WorkloadFn = void (*)(const RunOptions& options, WorkloadResult* result);

struct WorkloadDef {
  const char* name;
  WorkloadFn run;
};

/// analysis_wan, analysis_lan_mux, scan_pan_zipf, dav_ops_mixed.
const std::vector<WorkloadDef>& AllWorkloads();

}  // namespace bench
}  // namespace davix

#endif  // DAVIX_BENCH_WORKLOADS_H_
