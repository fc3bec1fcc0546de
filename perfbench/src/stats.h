#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One reported number: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Metrics in the order they were added.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// The q-quantile (0..1) of `values` by linear interpolation between order
/// statistics; NaN for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

/// Peak resident set size of this process so far, in MB (getrusage).
double PeakRssMb();

/// User plus system CPU seconds this process has used so far.
double ProcessCpuSeconds();

/// CPU time the hypervisor gave to other guests, as a share of all CPU time
/// since the previous call (/proc/stat "steal"); NaN where unavailable. The
/// first call starts the interval.
double HostStealShare();

/// `value` as a JSON number with every significant digit (null for
/// non-finite values, which JSON cannot carry).
std::string JsonNumber(double value);

/// `s` as a quoted JSON string.
std::string JsonString(const std::string& s);

/// Prints `metrics` as an aligned name/value/unit table, one per line.
void PrintTable(const std::string& title, const MetricSet& metrics);

/// The result line of a run: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const MetricSet& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
