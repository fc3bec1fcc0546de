// The repository benchmark's binary (run.py builds and runs it). Usage:
//
//   perfbench --workload <hot-sf4|serve-sf1|serve-sf1-gpu-lost> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints the metric table, a metadata record and, as the last line, the
// result object {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1 (see README.md).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "ocl/fault.h"
#include "workloads.h"

namespace {

int Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<hot-sf4|serve-sf1|serve-sf1-gpu-lost> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               problem);
  return 2;
}

bool ParseUnsigned(const char* text, unsigned long long max, unsigned long long* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v > max) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value after a flag");
    const char* value = argv[++i];
    unsigned long long v = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!ParseUnsigned(value, ~0ULL, &v)) return Usage("--seed takes an unsigned integer");
      args.seed = v;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!ParseUnsigned(value, 3600, &v) || v == 0) return Usage("--seconds takes 1..3600");
      args.seconds = static_cast<int>(v);
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (!ParseUnsigned(value, 1, &v)) return Usage("--trace takes 0 or 1");
      args.trace = v == 1;
    } else {
      return Usage((std::string("unknown flag ") + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (args.workload != "hot-sf4" && args.workload != "serve-sf1" &&
      args.workload != "serve-sf1-gpu-lost") {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  // Fault injection is off unless a workload installs its own schedule: an
  // ambient OCELOT_FAULT_SPEC must not leak into the measurement.
  ocl::SetFaultSpecForTesting("");
  perfbench::HostStealShare();  // starts the interval reported below

  perfbench::Outcome out = args.workload == "hot-sf4"
                               ? perfbench::RunHotSf4(args)
                               : perfbench::RunServeSf1(args, args.workload != "serve-sf1");
  perfbench::AddRunMetadata(args, &out);
  const double failed_frac =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  out.metadata["attempted"] = std::to_string(out.attempted);
  out.metadata["failed"] = std::to_string(out.failed);
  out.metadata["failed_frac"] = perfbench::JsonNumber(failed_frac);
  // Wall-clock metrics move with neighbours on a shared host; this says how
  // much CPU the hypervisor took away during the run.
  out.metadata["host_steal_share"] = perfbench::JsonNumber(perfbench::HostStealShare());

  perfbench::PrintTable(args.trace ? "per-layer metrics (" + args.workload + ")"
                                   : "end-to-end metrics (" + args.workload + ")",
                        out.metrics);
  std::printf("  %-34s %14.4f  %s\n", "failed_frac", failed_frac, "ratio");
  if (!out.wall.all().empty()) {
    perfbench::PrintTable("wall-clock figures (recorded, not in the result; see README)",
                          out.wall);
    std::string wall;
    for (const perfbench::Metric& m : out.wall.all()) {
      wall += (wall.empty() ? "" : ", ") + perfbench::JsonString(m.name) + ": " +
              perfbench::JsonNumber(m.value);
    }
    out.metadata["wall_clock"] = "{" + wall + "}";
  }
  std::string meta = "{\"metadata\": {";
  bool first = true;
  for (const auto& [key, value] : out.metadata) {
    meta += (first ? "" : ", ") + perfbench::JsonString(key) + ": " + value;
    first = false;
  }
  std::printf("%s}}\n", meta.c_str());
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("%s\n",
              perfbench::ResultJson(correct, out.attempted, out.failed, out.metrics).c_str());
  std::fflush(stdout);
  return 0;
}
