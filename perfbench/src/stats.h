// Small statistics helpers shared by the benchmark and its tests.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Response time of a request that never got served (shed at admission):
/// beyond any latency limit.
inline constexpr uint64_t kNeverServed = UINT64_MAX;

/// Reported in place of a percentile that lands on a never-served request:
/// 1e9 us (1000 s of simulated time, longer than any run).
inline constexpr double kBeyondLimitUs = 1e9;

/// The highest of 50, 90, 99, 99.9, 99.99 and 99.999 that still has at
/// least ten of `n` samples beyond it; 0 when even the median has not.
double HighestReportablePercentile(uint64_t n);

/// Nearest-rank percentile `p` (0 < p <= 100) of `sorted` (ascending, not
/// empty).
uint64_t PercentileOf(const std::vector<uint64_t>& sorted, double p);

/// Percentile `p` of `samples` (ns) in microseconds; kBeyondLimitUs when it
/// lands on a kNeverServed sample, 0 for no samples.
double PercentileUs(const std::vector<uint64_t>& sorted, double p);

/// One point of an offered-load grid.
struct RatePoint {
  double offered_tps = 0.0;
  double p99_us = 0.0;  ///< response-time p99, shed requests included
  uint64_t shed = 0;
};

/// The highest offered rate whose p99 is within `limit_us` with nothing
/// shed; 0 when no point qualifies.
double MaxTpsAtSlo(const std::vector<RatePoint>& grid, double limit_us);

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double Median(std::vector<double> v);

/// True when `name` is a non-empty string of [A-Za-z0-9_.-].
bool ValidMetricName(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
