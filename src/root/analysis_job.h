#ifndef DAVIX_ROOT_ANALYSIS_JOB_H_
#define DAVIX_ROOT_ANALYSIS_JOB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "root/storage_adapter.h"
#include "root/tree_cache.h"

namespace davix {
namespace root {

/// Parameters of one analysis job run — the paper's §3 workload: "a High
/// energy analysis job based on ROOT framework reading a fraction or the
/// totality of around 12000 particles events".
struct AnalysisConfig {
  /// Fraction of events processed, from the start of the tree (the
  /// paper's "fraction or totality"; Figure 4 uses 100 %). The TreeCache
  /// is told the last basket row this reaches and fetches nothing past it.
  double fraction = 1.0;
  /// Names of branches the job touches; empty = all branches.
  std::vector<std::string> branches;
  /// Floating-point work per event, modelling the physics computation.
  /// Roughly tens of nanoseconds per iteration.
  uint32_t compute_iterations_per_event = 2000;
  TreeCacheConfig cache;
};

/// Outcome + accounting of a run.
struct AnalysisReport {
  uint64_t events_processed = 0;
  /// Deterministic aggregate over the event payloads. Equal across
  /// transports for the same tree — the end-to-end correctness check.
  double physics_sum = 0;
  double wall_seconds = 0;
  TreeCacheStats io;
};

/// Runs the analysis over `file` (any transport). Sequential event loop:
/// for each event, fetch the active branches' baskets through the
/// TreeCache, fold the payload bytes into the aggregate, and burn the
/// configured amount of per-event compute.
Result<AnalysisReport> RunAnalysis(RandomAccessFile* file,
                                   const AnalysisConfig& config);

/// URL form: resolves the transport through the StorageAdapter registry
/// ("davix://", "davix+mux://", "xrd://", ...) and runs the same job —
/// how the benchmarks and examples select transports by URL instead of
/// constructing adapters by hand.
Result<AnalysisReport> RunAnalysisOnUrl(const std::string& url,
                                        const AnalysisConfig& config,
                                        const StorageOpenParams& storage);

}  // namespace root
}  // namespace davix

#endif  // DAVIX_ROOT_ANALYSIS_JOB_H_
