#ifndef PERFBENCH_PASSES_H_
#define PERFBENCH_PASSES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "mal/service.h"
#include "trace.h"

namespace perfbench {

/// Dataflow introspection summed over a pass (the peaks are maxima).
struct DataflowTotals {
  double critical_path_ns = 0;
  double serial_sum_ns = 0;
  int peak_parallelism = 0;
  int peak_live_bats = 0;

  void Add(const mal::DataflowStats& s);
  void Add(const DataflowTotals& o);
};

/// The traced run's span recorder plus the owner of every query id: which
/// engine (index into Engines()) a query's spans are attributed to, or -1
/// for queries that are traced but not measured (warm-up, checks).
class TraceBook {
 public:
  explicit TraceBook(Tracer* tracer) : tracer_(tracer) {}

  Tracer* tracer() const { return tracer_; }
  int NewQuery(int engine) {
    owners_.push_back(engine);
    return static_cast<int>(owners_.size()) - 1;
  }
  int OwnerOf(int query) const {
    return query >= 0 && static_cast<std::size_t>(query) < owners_.size()
               ? owners_[static_cast<std::size_t>(query)]
               : -1;
  }

 private:
  Tracer* tracer_;
  std::vector<int> owners_;
};

/// Where a traced pass records its spans: `engine` is the owner of its
/// query ids (-1: traced, not measured).
struct SpanSink {
  TraceBook* book;
  int engine;
};

/// One pass over the 14 plans.
struct PassResult {
  double wall_ms = 0;     ///< first query start to the end of the last one
  double virtual_ms = 0;  ///< session clock advance (modeled time)
  double cpu_s = 0;       ///< process CPU time over the same interval as wall_ms
  std::vector<double> latencies_ms;  ///< per query, in run order
  std::vector<common::Result<mal::ExecResult>> results;  ///< in run order
  DataflowTotals dataflow;
  /// Replay passes: the per-query sessions' counter totals, summed.
  EngineCounters counters;
};

/// Runs every plan of `wb` once, in `order`, on the warm `session` and
/// drains its devices at the end (timed in the pass). `engine` names the
/// session for the oracle. With a sink, records pass/run/finish spans and
/// routes the traced engine's operator spans under each run span. Every
/// result is checked after the pass's clock stopped.
PassResult RunPass(const Workbench& wb, mal::Session* session, const std::string& engine,
                   const std::vector<std::size_t>& order, Checker* checker,
                   const SpanSink* sink);

/// The service's per-query path from one client: for each plan in `order`
/// a fresh session (Session::Open → RewriteForOcelot → mal::Run →
/// FinishDevices → close), as QueryService::RunOne does. With a sink the
/// sessions open the traced wrapper and every step gets a span.
PassResult ReplayPass(const Workbench& wb, const EngineSpec& engine,
                      const std::vector<std::size_t>& order, Checker* checker,
                      const SpanSink* sink);

/// One blocking client's query stream: a seeded shuffle of the 14 plans,
/// reshuffled every time it is used up.
class ClientStream {
 public:
  ClientStream(std::uint64_t seed, std::size_t nplans) : rng_(seed), n_(nplans) {}
  std::size_t Next();

 private:
  common::Rng rng_;
  std::size_t n_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

/// The client streams of one engine's service: one per client, seeded from
/// the run seed so every engine sees the same query sequence.
std::vector<ClientStream> ClientStreams(std::uint64_t seed, int clients, std::size_t nplans);

/// One measurement window against a service.
struct WindowResult {
  std::uint64_t completed = 0;
  double elapsed_ms = 0;  ///< window start until the last client returned
  double cpu_s = 0;       ///< process CPU time over the same interval
  std::vector<double> latencies_ms;  ///< submit to result, per query
};

/// Closed loop: every client submits its next plan, blocks on the result,
/// repeats until `window_ms` has passed. Results are checked after the
/// window's clock stopped.
WindowResult ServeWindow(mal::QueryService* service, const Workbench& wb,
                         std::vector<ClientStream>* clients, double window_ms,
                         Checker* checker);

/// Opens the benchmark's 4-session service for `engine` over `wb`'s catalog.
std::unique_ptr<mal::QueryService> OpenService(const std::string& engine,
                                               const Workbench& wb);

/// Installs serve-sf1-gpu-lost's fault schedule for the sessions opened
/// while it lives (no-op when `on` is false). Uses the library's programmatic
/// override rather than setenv: the schedule must cover only the multi
/// service's turns, and setenv would race with getenv in running workers.
class FaultScope {
 public:
  explicit FaultScope(bool on);
  ~FaultScope();
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  bool on_;
};

/// The benchmark-owned tracing check: a traced and an untraced pass in the
/// same order from fresh sessions must give bit-identical results (seq and
/// ocelot:gpu; ocelot:multi's weighted plan is not bit-reproducible between
/// any two runs) and, on ocelot:gpu, identical transfer bytes and kernel
/// launch counts. Failures are counted by the checker.
void CheckTraceIdentity(const EngineSpec& engine, const PassResult& untraced,
                        const EngineCounters& untraced_counters,
                        const PassResult& traced, const EngineCounters& traced_counters,
                        Checker* checker);

}  // namespace perfbench

#endif  // PERFBENCH_PASSES_H_
