#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double HighestReportablePercentile(uint64_t n) {
  // Ten samples beyond p means n * (100 - p) / 100 >= 10. The ladder is
  // exact in tenths-of-a-thousandth, so compare in integers.
  static constexpr struct {
    double p;
    uint64_t min_n;  ///< 10 / (1 - p/100)
  } kLadder[] = {{99.999, 1000000}, {99.99, 100000}, {99.9, 10000},
                 {99.0, 1000},      {90.0, 100},     {50.0, 20}};
  for (const auto& step : kLadder) {
    if (n >= step.min_n) return step.p;
  }
  return 0.0;
}

uint64_t PercentileOf(const std::vector<uint64_t>& sorted, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double PercentileUs(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const uint64_t v = PercentileOf(sorted, p);
  return v == kNeverServed ? kBeyondLimitUs : static_cast<double>(v) / 1e3;
}

double MaxTpsAtSlo(const std::vector<RatePoint>& grid, double limit_us) {
  double best = 0.0;
  for (const RatePoint& pt : grid) {
    if (pt.shed == 0 && pt.p99_us <= limit_us) {
      best = std::max(best, pt.offered_tps);
    }
  }
  return best;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench
