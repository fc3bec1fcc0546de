#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cstore/registry.h"
#include "mal/interp.h"
#include "ocelot/scheduler.h"
#include "oracle.h"
#include "stats.h"
#include "tpch/dbgen.h"

namespace perfbench {

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// Where the traced run writes its Chrome trace file, relative to the
/// checkout root the benchmark runs from (inside run.py's build directory).
inline constexpr const char* kTraceDir = ".bench_build/perfbench-out";

/// What a run hands back to main: the oracle's tally, the metrics to print,
/// and the metadata record (sample counts and the like).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSet metrics;
  /// Wall-clock throughput and latency: printed and recorded, not in the
  /// result object (they move with the host's other tenants; see README).
  MetricSet wall;
  std::map<std::string, std::string> metadata;  ///< key -> JSON value
};

/// The engines every workload measures, with their metric labels.
struct EngineSpec {
  const char* name;   ///< registry name
  const char* label;  ///< metric suffix: seq, gpu, multi
};
const std::vector<EngineSpec>& Engines();

/// serve-sf1-gpu-lost's fault schedule: the GPU fails every kernel, for good.
inline constexpr const char* kGpuLostSpec = "dev=gpu,op=kernel,p=1,mode=permanent";

/// Engine options carrying the bench harness's TPC-H-scaled device models
/// (bench::TpchGpuModel / TpchCpuModel), used by every session and service.
const cstore::EngineOptions& ModelOptions();

/// Opens `engine` (a registry name) with ModelOptions(); aborts on failure.
std::unique_ptr<mal::Session> OpenSession(const std::string& engine);

/// A generated database with its query plans and the seq golden of each.
struct Workbench {
  tpch::TpchDb db;
  std::vector<int> queries;              ///< tpch::PaperWorkload()
  std::vector<mal::Program> plans;       ///< as built (seq, the service)
  std::vector<mal::Program> rewritten;   ///< RewriteForOcelot(plans)
  std::vector<Canonical> goldens;        ///< seq result per plan
  double generate_ms = 0;
  double rewrite_ms = 0;
};

/// Generates paper scale factor `paper_sf` from `seed`, builds the 14 plans
/// and computes the goldens on a fresh seq session. Aborts when the golden
/// itself cannot be computed.
std::unique_ptr<Workbench> BuildWorkbench(double paper_sf, std::uint64_t seed);

/// The oracle: counts attempted and failed queries and prints each failure
/// with its query and engine (the first few in full). Thread-safe.
class Checker {
 public:
  /// Checks one result of `wb`'s plan `i` run on `engine` against its
  /// golden; true when correct.
  bool Check(const Workbench& wb, std::size_t i, const std::string& engine,
             const common::Result<mal::ExecResult>& result);

  /// Counts a failure that is not a query result (a device drain fault, a
  /// failed benchmark-owned check).
  void Fail(const std::string& what);

  std::uint64_t attempted() const;
  std::uint64_t failed() const;

 private:
  void Record(const std::string& problem);

  mutable std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// A fresh random order of the plan indices 0..n-1.
std::vector<std::size_t> Shuffled(std::size_t n, common::Rng* rng);

/// Modeled-device counters of one engine–device pair, summed over kernels.
struct DeviceCounters {
  double launches = 0;
  double kernel_modeled_ns = 0;
  double kernel_host_ns = 0;
  double busy_modeled_ns = 0;
  double transfer_bytes = 0;

  DeviceCounters& operator+=(const DeviceCounters& o);
  DeviceCounters operator-(const DeviceCounters& o) const;
};

/// Device-cache and scheduler counters of one session.
struct EngineCounters {
  std::map<std::string, DeviceCounters> devices;  ///< keyed "<label>-<cpu|gpu>"
  double evictions = 0;
  double offloads = 0;
  double reloads = 0;
  double retries = 0;
  double quarantines = 0;
  double fallbacks = 0;

  EngineCounters& operator+=(const EngineCounters& o);
  EngineCounters operator-(const EngineCounters& o) const;
  double transfer_bytes() const;
};

/// Snapshot of `session`'s counters (empty for host-only engines); `label`
/// prefixes the device keys.
EngineCounters ReadCounters(mal::Session* session, const std::string& label);

/// The scheduler behind an ocelot:multi session (traced or not), else null.
ocelot::Scheduler* SchedulerOf(mal::Session* session);

/// What an untraced run measured of one engine.
struct EngineSamples {
  std::vector<double> turn_qps;          ///< queries per wall second, per turn
  std::vector<double> turn_cpu_ms_per_q;  ///< process CPU ms per query, per turn
  std::vector<double> latencies_ms;      ///< submit to result, per query
  std::vector<double> virtual_ms;        ///< modeled time per 14-query pass
};

/// Sets every end-to-end metric of an untraced run (samples indexed like
/// Engines(); `setup_cpu_s` per set-up repeat) and the wall-clock figures,
/// and records the sample counts.
void EmitEndToEnd(const std::vector<double>& setup_cpu_s, const Workbench& wb,
                  const std::vector<EngineSamples>& samples, Outcome* out);

/// Fills the metadata every run records: seed, nproc, build type, SIMD ISA,
/// OCELOT_THREADS, the device models.
void AddRunMetadata(const Args& args, Outcome* out);

inline double NsToMs(double ns) { return ns / 1e6; }

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
