#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

double HostStealShare() {
  static double last_steal = -1;
  static double last_total = -1;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::istringstream fields(line.substr(4));
  double total = 0;
  double steal = 0;
  double v = 0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int i = 0; i < 8 && fields >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  double share = last_total < 0 || total <= last_total
                     ? std::numeric_limits<double>::quiet_NaN()
                     : (steal - last_steal) / (total - last_total);
  last_steal = steal;
  last_total = total;
  return share;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void PrintTable(const std::string& title, const MetricSet& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics.all()) {
    std::printf("  %-34s %14.4f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string ResultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
