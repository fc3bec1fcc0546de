#include "layers.h"

#include <cstring>
#include <filesystem>
#include <map>
#include <string>

namespace perfbench {

namespace {

constexpr const char* kOpClasses[] = {"select", "project", "join", "group",
                                      "aggregate", "calc", "sort", "sync"};

/// Span durations of one engine's measured queries, by span name (MAL
/// steps) and by operator class.
struct SpanTotals {
  std::map<std::string, double> step_ns;  ///< session_open, rewrite, run, finish
  std::map<std::string, double> op_ns;    ///< per operator class
  double op_calls = 0;
  double run_self_ns = 0;  ///< run spans minus the operator spans inside them
};

std::vector<SpanTotals> Aggregate(const TraceBook& book, std::size_t engines) {
  std::vector<SpanTotals> totals(engines);
  std::vector<Span> spans = book.tracer()->Spans();
  std::vector<std::int64_t> self = SelfTimes(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    int owner = book.OwnerOf(s.query);
    if (owner < 0) continue;
    SpanTotals& t = totals[static_cast<std::size_t>(owner)];
    auto dur = static_cast<double>(s.end_ns - s.start_ns);
    if (std::strcmp(s.cat, "mal") == 0) {
      t.step_ns[s.name] += dur;
      if (std::strcmp(s.name, "run") == 0) t.run_self_ns += static_cast<double>(self[i]);
    } else {
      t.op_ns[s.cat] += dur;
      t.op_calls += 1;
    }
  }
  return totals;
}

int EngineIndex(const std::string& label) {
  for (std::size_t k = 0; k < Engines().size(); ++k) {
    if (label == Engines()[k].label) return static_cast<int>(k);
  }
  return -1;
}

}  // namespace

void EmitLayerMetrics(const TraceBook& book, const std::vector<LayerAcc>& acc,
                      const Workbench& wb, const ServiceCounters& service,
                      bool open_once, MetricSet* out) {
  const double physical = static_cast<double>(wb.db.catalog.TotalPhysicalBytes());
  out->Add("tpch.generate_ms", wb.generate_ms, "ms");
  out->Add("cstore.logical_mb", static_cast<double>(wb.db.catalog.TotalBytes()) / 1e6, "MB");
  out->Add("cstore.physical_mb", physical / 1e6, "MB");

  std::vector<SpanTotals> totals = Aggregate(book, Engines().size());
  for (std::size_t k = 0; k < Engines().size(); ++k) {
    const std::string label = Engines()[k].label;
    const LayerAcc& a = acc[k];
    SpanTotals& t = totals[k];
    const double passes = a.passes;
    const double setup_div = open_once ? 1 : passes;
    auto per_pass_ms = [&](double ns) { return ns / 1e6 / passes; };

    out->Add("mal.session_open_ms." + label, t.step_ns["session_open"] / 1e6 / setup_div, "ms");
    if (label != "seq") {
      out->Add("mal.rewrite_ms." + label, t.step_ns["rewrite"] / 1e6 / setup_div, "ms");
    }
    out->Add("mal.finish_ms." + label, per_pass_ms(t.step_ns["finish"]), "ms");
    const double run_ms = per_pass_ms(t.step_ns["run"]);
    out->Add("mal.run_ms." + label, run_ms, "ms");
    out->Add("mal.interp_self_ms." + label, per_pass_ms(t.run_self_ns), "ms");
    out->Add("mal.critical_path_ms." + label, per_pass_ms(a.dataflow.critical_path_ns), "ms");
    out->Add("mal.serial_sum_ms." + label, per_pass_ms(a.dataflow.serial_sum_ns), "ms");
    out->Add("mal.peak_parallelism." + label, a.dataflow.peak_parallelism, "count");
    out->Add("mal.peak_live_bats." + label, a.dataflow.peak_live_bats, "count");
    for (const char* cls : kOpClasses) {
      out->Add(std::string("op.") + cls + "_ms." + label, per_pass_ms(t.op_ns[cls]), "ms");
    }
    out->Add("op.calls." + label, t.op_calls / passes, "count");
    if (label != "seq") {
      out->Add("ocelot.evictions." + label, a.counters.evictions / passes, "count");
      out->Add("ocelot.offloads." + label, a.counters.offloads / passes, "count");
      out->Add("ocelot.reloads." + label, a.counters.reloads / passes, "count");
      out->Add("ocl.transfer_amplification." + label,
               a.counters.transfer_bytes() / passes / physical, "ratio");
      out->Add("sim.host_per_virtual." + label, run_ms / (a.virtual_ms / passes), "ratio");
    }
    if (label == "multi") {
      out->Add("ocelot.merge_copied_mb.multi", a.merge_copied_bytes / passes / 1e6, "MB");
    }
    out->Add("service.wait_ms." + label, a.wait_ms, "ms");
  }

  for (const char* pair : {"gpu-gpu", "multi-cpu", "multi-gpu"}) {
    std::string key = pair;
    const LayerAcc& a = acc[static_cast<std::size_t>(EngineIndex(key.substr(0, key.find('-'))))];
    auto it = a.counters.devices.find(key);
    DeviceCounters d = it != a.counters.devices.end() ? it->second : DeviceCounters{};
    const double passes = a.passes;
    out->Add("ocl.kernel_launches." + key, d.launches / passes, "count");
    out->Add("ocl.kernel_modeled_ms." + key, d.kernel_modeled_ns / 1e6 / passes, "ms");
    out->Add("ocl.busy_modeled_ms." + key, d.busy_modeled_ns / 1e6 / passes, "ms");
    out->Add("ocl.kernel_host_ms." + key, d.kernel_host_ns / 1e6 / passes, "ms");
    out->Add("ocl.transfer_mb." + key, d.transfer_bytes / 1e6 / passes, "MB");
  }

  out->Add("service.retries", service.retries_per_query, "count");
  out->Add("service.quarantines", service.quarantines_per_query, "count");
  out->Add("service.fallbacks", service.fallbacks_per_query, "count");

  double traced = 0;
  double untraced = 0;
  for (const LayerAcc& a : acc) {
    traced += a.traced_wall_ms;
    untraced += a.untraced_wall_ms;
  }
  out->Add("trace.overhead_frac", traced / untraced - 1.0, "ratio");
}

void ExportTrace(const Args& args, const Tracer& tracer, Outcome* out) {
  std::error_code ec;
  std::filesystem::create_directories(kTraceDir, ec);
  std::string path = std::string(kTraceDir) + "/trace-" + args.workload + "-seed" +
                     std::to_string(args.seed) + ".json";
  bool written = !ec && tracer.WriteChromeTrace(path);
  out->metadata["trace_file"] = written ? JsonString(path) : "null";
  out->metadata["trace_spans"] = std::to_string(tracer.Spans().size());
  out->metadata["trace_spans_dropped"] = std::to_string(tracer.dropped());
  if (!written) std::printf("warning: could not write trace file %s\n", path.c_str());
}

}  // namespace perfbench
