#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench/harness.h"
#include "common/logging.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/vclock.h"
#include "mal/rewriter.h"
#include "ocelot/engine.h"
#include "ocl/context.h"
#include "tpch/queries.h"
#include "traced_engine.h"

namespace perfbench {

const std::vector<EngineSpec>& Engines() {
  static const std::vector<EngineSpec> kEngines = {
      {"seq", "seq"}, {"ocelot:gpu", "gpu"}, {"ocelot:multi", "multi"}};
  return kEngines;
}

namespace {

struct Models {
  ocl::DeviceModel gpu = bench::TpchGpuModel();
  ocl::DeviceModel cpu = bench::TpchCpuModel();
  cstore::EngineOptions options;
  Models() {
    options.gpu_model = &gpu;
    options.cpu_model = &cpu;
  }
};

const Models& TheModels() {
  static const Models* models = new Models();
  return *models;
}

std::string ModelJson(const ocl::DeviceModel& m) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"name\": %s, \"cores\": %d, \"units_per_core\": %d, "
                "\"group_time_scale\": %s, \"global_mem_mb\": %s, "
                "\"transfer_gbps\": %s, \"unified_memory\": %s, "
                "\"kernel_launch_overhead_ns\": %lld}",
                JsonString(m.name).c_str(), m.compute_cores, m.units_per_core,
                JsonNumber(m.group_time_scale).c_str(),
                JsonNumber(static_cast<double>(m.global_mem_bytes) / 1e6).c_str(),
                JsonNumber(m.transfer_gbps).c_str(), m.unified_memory ? "true" : "false",
                static_cast<long long>(m.kernel_launch_overhead));
  return buf;
}

const char* DeviceKind(ocl::DeviceType type) {
  return type == ocl::DeviceType::kGpu ? "gpu" : "cpu";
}

void AddCacheCounters(ocelot::OcelotEngine* engine, EngineCounters* c) {
  ocelot::MemoryManager* mm = engine->memory();
  c->evictions += static_cast<double>(mm->evictions());
  c->offloads += static_cast<double>(mm->offloads());
  c->reloads += static_cast<double>(mm->reloads());
}

}  // namespace

const cstore::EngineOptions& ModelOptions() { return TheModels().options; }

std::unique_ptr<mal::Session> OpenSession(const std::string& engine) {
  auto session = mal::Session::Open(engine, ModelOptions());
  OCELOT_CHECK(session.ok()) << session.status().ToString();
  return std::move(*session);
}

std::unique_ptr<Workbench> BuildWorkbench(double paper_sf, std::uint64_t seed) {
  auto wb = std::make_unique<Workbench>();
  common::Stopwatch gen;
  wb->db = tpch::Generate(tpch::ScaleForPaperSf(paper_sf), seed);
  wb->generate_ms = gen.ElapsedMillis();
  wb->queries = tpch::PaperWorkload();
  for (int q : wb->queries) {
    auto plan = tpch::BuildQuery(q, wb->db);
    OCELOT_CHECK(plan.ok()) << "Q" << q << ": " << plan.status().ToString();
    wb->plans.push_back(std::move(*plan));
  }
  common::Stopwatch rewrite;
  for (const mal::Program& plan : wb->plans) {
    wb->rewritten.push_back(mal::RewriteForOcelot(plan));
  }
  wb->rewrite_ms = rewrite.ElapsedMillis();
  auto golden_session = OpenSession("seq");
  for (std::size_t i = 0; i < wb->plans.size(); ++i) {
    auto res = mal::Run(wb->plans[i], wb->db.catalog, golden_session.get());
    OCELOT_CHECK(res.ok()) << "golden Q" << wb->queries[i] << " on seq: "
                           << res.status().ToString();
    wb->goldens.push_back(Canonicalize(res->returns));
  }
  return wb;
}

bool Checker::Check(const Workbench& wb, std::size_t i, const std::string& engine,
                    const common::Result<mal::ExecResult>& result) {
  std::string problem;
  if (!result.ok()) {
    problem = result.status().ToString();
  } else {
    // ocelot:multi cuts float sums by its weighted plan; seq and ocelot:gpu
    // must reproduce the golden bit for bit.
    FloatMatch mode = engine.find("ocelot:multi") != std::string::npos
                          ? FloatMatch::kReassociated
                          : FloatMatch::kExact;
    problem = Compare(wb.goldens[i], Canonicalize(result->returns), mode);
  }
  if (problem.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += 1;
    return true;
  }
  Record("Q" + std::to_string(wb.queries[i]) + " on " + engine + ": " + problem);
  return false;
}

void Checker::Fail(const std::string& what) { Record(what); }

void Checker::Record(const std::string& problem) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += 1;
  failed_ += 1;
  constexpr std::uint64_t kPrinted = 20;
  if (failed_ <= kPrinted) {
    std::printf("FAILED %s\n", problem.c_str());
  } else if (failed_ == kPrinted + 1) {
    std::printf("FAILED: further failures are counted, not printed\n");
  }
}

std::uint64_t Checker::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::uint64_t Checker::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::vector<std::size_t> Shuffled(std::size_t n, common::Rng* rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    auto j = static_cast<std::size_t>(rng->Uniform(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

DeviceCounters& DeviceCounters::operator+=(const DeviceCounters& o) {
  launches += o.launches;
  kernel_modeled_ns += o.kernel_modeled_ns;
  kernel_host_ns += o.kernel_host_ns;
  busy_modeled_ns += o.busy_modeled_ns;
  transfer_bytes += o.transfer_bytes;
  return *this;
}

DeviceCounters DeviceCounters::operator-(const DeviceCounters& o) const {
  DeviceCounters d = *this;
  d.launches -= o.launches;
  d.kernel_modeled_ns -= o.kernel_modeled_ns;
  d.kernel_host_ns -= o.kernel_host_ns;
  d.busy_modeled_ns -= o.busy_modeled_ns;
  d.transfer_bytes -= o.transfer_bytes;
  return d;
}

EngineCounters& EngineCounters::operator+=(const EngineCounters& o) {
  for (const auto& [key, dev] : o.devices) devices[key] += dev;
  evictions += o.evictions;
  offloads += o.offloads;
  reloads += o.reloads;
  retries += o.retries;
  quarantines += o.quarantines;
  fallbacks += o.fallbacks;
  return *this;
}

EngineCounters EngineCounters::operator-(const EngineCounters& o) const {
  EngineCounters d = *this;
  for (const auto& [key, dev] : o.devices) d.devices[key] = d.devices[key] - dev;
  d.evictions -= o.evictions;
  d.offloads -= o.offloads;
  d.reloads -= o.reloads;
  d.retries -= o.retries;
  d.quarantines -= o.quarantines;
  d.fallbacks -= o.fallbacks;
  return d;
}

double EngineCounters::transfer_bytes() const {
  double total = 0;
  for (const auto& [key, dev] : devices) total += dev.transfer_bytes;
  return total;
}

ocelot::Scheduler* SchedulerOf(mal::Session* session) {
  return dynamic_cast<ocelot::Scheduler*>(InnerEngine(session));
}

EngineCounters ReadCounters(mal::Session* session, const std::string& label) {
  EngineCounters c;
  ocl::Context* ctx = session->ocl_context();
  if (ctx == nullptr) return c;
  for (int i = 0; i < ctx->device_count(); ++i) {
    ocl::CommandQueue* queue = ctx->queue(i);
    DeviceCounters d;
    for (const auto& [kernel, profile] : queue->profiles()) {
      d.launches += static_cast<double>(profile.launches);
      d.kernel_modeled_ns += static_cast<double>(profile.modeled_ns);
      d.kernel_host_ns += static_cast<double>(profile.measured_ns);
    }
    d.busy_modeled_ns = static_cast<double>(queue->modeled_busy_ns());
    d.transfer_bytes = static_cast<double>(queue->transferred_bytes());
    c.devices[label + "-" + DeviceKind(ctx->device(i)->model().type)] += d;
  }
  if (ocelot::Scheduler* sched = SchedulerOf(session)) {
    for (int i = 0; i < sched->device_count(); ++i) AddCacheCounters(sched->engine(i), &c);
    ocelot::FaultStats fs = sched->fault_stats();
    c.retries = static_cast<double>(fs.retries);
    c.quarantines = static_cast<double>(fs.quarantines);
    c.fallbacks = static_cast<double>(fs.fallbacks);
  } else if (auto* engine = dynamic_cast<ocelot::OcelotEngine*>(InnerEngine(session))) {
    AddCacheCounters(engine, &c);
  }
  return c;
}

void EmitEndToEnd(const std::vector<double>& setup_cpu_s, const Workbench& wb,
                  const std::vector<EngineSamples>& samples, Outcome* out) {
  out->metrics.Add("setup_s", Median(setup_cpu_s), "s");
  out->metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  out->metrics.Add("stored_bytes_ratio",
                   static_cast<double>(wb.db.catalog.TotalPhysicalBytes()) /
                       static_cast<double>(wb.db.catalog.TotalBytes()),
                   "ratio");
  for (std::size_t k = 0; k < Engines().size(); ++k) {
    out->metrics.Add(std::string("cpu_ms_per_query.") + Engines()[k].label,
                     Median(samples[k].turn_cpu_ms_per_q), "ms");
  }
  for (std::size_t k = 0; k < Engines().size(); ++k) {
    std::string label = Engines()[k].label;
    if (label == "seq") continue;
    out->metrics.Add("virtual_ms." + label, Median(samples[k].virtual_ms), "ms");
  }
  for (std::size_t k = 0; k < Engines().size(); ++k) {
    const EngineSamples& s = samples[k];
    std::string label = Engines()[k].label;
    out->wall.Add("qps." + label, Median(s.turn_qps), "1/s");
    if (label != "gpu") {
      out->wall.Add("latency_p50_ms." + label, Quantile(s.latencies_ms, 0.50), "ms");
      out->wall.Add("latency_p95_ms." + label, Quantile(s.latencies_ms, 0.95), "ms");
    }
    out->metadata["samples." + label] =
        "{\"turns\": " + std::to_string(s.turn_qps.size()) +
        ", \"latencies\": " + std::to_string(s.latencies_ms.size()) +
        ", \"virtual_passes\": " + std::to_string(s.virtual_ms.size()) + "}";
  }
  out->metadata["setup_repeats"] = std::to_string(setup_cpu_s.size());
}

void AddRunMetadata(const Args& args, Outcome* out) {
  const char* threads_env = std::getenv("OCELOT_THREADS");
  out->metadata["workload"] = JsonString(args.workload);
  out->metadata["seed"] = std::to_string(args.seed);
  out->metadata["seconds"] = std::to_string(args.seconds);
  out->metadata["trace"] = args.trace ? "true" : "false";
  out->metadata["nproc"] = std::to_string(std::thread::hardware_concurrency());
  out->metadata["build_type"] = JsonString(PERFBENCH_BUILD_TYPE);
  out->metadata["simd_isa"] = JsonString(common::simd::IsaName());
  out->metadata["simd_width"] = std::to_string(common::simd::Width());
  out->metadata["cpu_features"] = JsonString(common::simd::CpuFeatures());
  out->metadata["ocelot_threads_env"] =
      threads_env == nullptr ? "null" : JsonString(threads_env);
  out->metadata["pool_threads"] = std::to_string(common::ThreadPool::Global().threads());
  out->metadata["sf_unit"] = JsonNumber(tpch::ScaleForPaperSf(1.0));
  out->metadata["gpu_model"] = ModelJson(TheModels().gpu);
  out->metadata["cpu_model"] = ModelJson(TheModels().cpu);
}

}  // namespace perfbench
