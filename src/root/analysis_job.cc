#include "root/analysis_job.h"

#include <algorithm>

#include "common/clock.h"

namespace davix {
namespace root {
namespace {

/// Deterministic per-event floating point work. Kept opaque to the
/// optimizer through the running accumulator.
double BurnCompute(uint32_t iterations, double seed) {
  double x = seed + 1.000000001;
  for (uint32_t i = 0; i < iterations; ++i) {
    x = x * 1.0000001 + 0.1;
    if (x > 1e12) x *= 1e-12;
  }
  return x;
}

}  // namespace

Result<AnalysisReport> RunAnalysis(RandomAccessFile* file,
                                   const AnalysisConfig& config) {
  Stopwatch stopwatch;
  DAVIX_ASSIGN_OR_RETURN(TreeReader reader, TreeReader::Open(file));
  const TreeSpec& spec = reader.spec();

  std::vector<size_t> active;
  for (const std::string& name : config.branches) {
    DAVIX_ASSIGN_OR_RETURN(size_t index, reader.BranchIndex(name));
    active.push_back(index);
  }
  if (active.empty()) {
    active.resize(spec.branches.size());
    for (size_t i = 0; i < active.size(); ++i) active[i] = i;
  }

  double fraction = std::clamp(config.fraction, 0.0, 1.0);
  uint64_t n_events =
      static_cast<uint64_t>(static_cast<double>(spec.n_events) * fraction);

  TreeCache cache(&reader, active, config.cache);
  cache.SetEndRow((n_events + spec.events_per_basket - 1) /
                  spec.events_per_basket);

  AnalysisReport report;
  double aggregate = 0;
  for (uint64_t event = 0; event < n_events; ++event) {
    uint64_t row = event / spec.events_per_basket;
    uint64_t in_basket = event % spec.events_per_basket;
    for (size_t branch : active) {
      DAVIX_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> basket,
                             cache.GetBasket(branch, row));
      uint32_t width = spec.branches[branch].bytes_per_event;
      size_t begin = static_cast<size_t>(in_basket) * width;
      if (begin + width > basket->size()) {
        return Status::Corruption("basket shorter than event layout");
      }
      // Fold the payload into the aggregate: every byte read influences
      // the result, so a single corrupted or misplaced byte fails the
      // cross-transport equality check.
      uint64_t fold = 0;
      for (uint32_t i = 0; i < width; ++i) {
        fold = fold * 131 +
               static_cast<unsigned char>((*basket)[begin + i]);
      }
      aggregate += static_cast<double>(fold % 1000003);
    }
    aggregate += BurnCompute(config.compute_iterations_per_event,
                             static_cast<double>(event % 97)) *
                 1e-9;
    ++report.events_processed;
  }

  report.physics_sum = aggregate;
  report.io = cache.stats();
  report.wall_seconds = stopwatch.ElapsedSeconds();
  return report;
}

Result<AnalysisReport> RunAnalysisOnUrl(const std::string& url,
                                        const AnalysisConfig& config,
                                        const StorageOpenParams& storage) {
  DAVIX_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                         OpenStorage(url, storage));
  return RunAnalysis(file.get(), config);
}

}  // namespace root
}  // namespace davix
