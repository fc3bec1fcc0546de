#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <vector>

#include "common.h"
#include "passes.h"

namespace perfbench {

/// What the traced run measured of one engine, summed over its measured
/// passes (the span-derived part is computed from the trace afterwards).
struct LayerAcc {
  int passes = 0;
  double queries = 0;
  double traced_wall_ms = 0;    ///< measured traced passes
  double untraced_wall_ms = 0;  ///< the same passes on an untraced session
  double virtual_ms = 0;
  DataflowTotals dataflow;
  EngineCounters counters;
  double merge_copied_bytes = 0;
  /// Mean real time a query waits beyond its own execution: concurrent
  /// service latency minus single-client replay time (serve workloads), or
  /// client-side latency minus the run span (hot-sf4).
  double wait_ms = 0;
};

/// Service-level recovery counters per query (from the ocelot:multi service
/// on serve workloads, from the warm scheduler on hot-sf4).
struct ServiceCounters {
  double retries_per_query = 0;
  double quarantines_per_query = 0;
  double fallbacks_per_query = 0;
};

/// Emits every per-layer metric into `out` from the trace and the
/// accumulators (indexed like Engines()). `open_once` marks hot-sf4, where
/// session open and rewrite happen once per session rather than per query.
void EmitLayerMetrics(const TraceBook& book, const std::vector<LayerAcc>& acc,
                      const Workbench& wb, const ServiceCounters& service,
                      bool open_once, MetricSet* out);

/// Writes the Chrome trace file for this run and records its path (and the
/// span count) in the metadata.
void ExportTrace(const Args& args, const Tracer& tracer, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
