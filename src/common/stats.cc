#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace davix {

void SampleStats::Add(double value) { samples_.push_back(value); }

double SampleStats::Mean() const {
  if (samples_.empty()) return 0;
  double sum = 0;
  for (double v : samples_) sum += v;
  return sum / static_cast<double>(samples_.size());
}

double SampleStats::Stddev() const {
  if (samples_.size() < 2) return 0;
  double mean = Mean();
  double acc = 0;
  for (double v : samples_) acc += (v - mean) * (v - mean);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double SampleStats::Min() const {
  if (samples_.empty()) return 0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleStats::Max() const {
  if (samples_.empty()) return 0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleStats::Percentile(double q) const {
  if (samples_.empty()) return 0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

std::string SampleStats::Summary(const std::string& unit) const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "mean=%.3f%s sd=%.3f min=%.3f max=%.3f n=%zu", Mean(),
                unit.c_str(), Stddev(), Min(), Max(), count());
  return buf;
}

std::string IoCounters::ToString() const {
  std::string out;
  ForEach([&out](const char* name, uint64_t value) {
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    out += std::to_string(value);
  });
  return out;
}

}  // namespace davix
