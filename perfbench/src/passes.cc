#include "passes.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "mal/rewriter.h"
#include "ocl/fault.h"
#include "traced_engine.h"

namespace perfbench {

namespace {

constexpr int kServiceSessions = 4;

const mal::Program& PlanFor(const Workbench& wb, mal::Session* session, std::size_t i) {
  return session->hardware_oblivious() ? wb.rewritten[i] : wb.plans[i];
}

/// A span when tracing, nothing otherwise.
class MaybeSpan {
 public:
  MaybeSpan(const SpanSink* sink, const char* name, int parent, int query) {
    if (sink != nullptr) span_.emplace(sink->book->tracer(), name, "mal", parent, query);
  }
  int id() const { return span_ ? span_->id() : -1; }

 private:
  std::optional<ScopedSpan> span_;
};

void CheckAll(const Workbench& wb, const std::string& engine,
              const std::vector<std::size_t>& order, const PassResult& pass,
              Checker* checker) {
  for (std::size_t k = 0; k < order.size(); ++k) {
    checker->Check(wb, order[k], engine, pass.results[k]);
  }
}

}  // namespace

void DataflowTotals::Add(const mal::DataflowStats& s) {
  critical_path_ns += static_cast<double>(s.critical_path_ns);
  serial_sum_ns += static_cast<double>(s.serial_sum_ns);
  peak_parallelism = std::max(peak_parallelism, s.peak_parallelism);
  peak_live_bats = std::max(peak_live_bats, s.peak_live_bats);
}

void DataflowTotals::Add(const DataflowTotals& o) {
  critical_path_ns += o.critical_path_ns;
  serial_sum_ns += o.serial_sum_ns;
  peak_parallelism = std::max(peak_parallelism, o.peak_parallelism);
  peak_live_bats = std::max(peak_live_bats, o.peak_live_bats);
}

PassResult RunPass(const Workbench& wb, mal::Session* session, const std::string& engine,
                   const std::vector<std::size_t>& order, Checker* checker,
                   const SpanSink* sink) {
  PassResult pass;
  TracedEngine* traced = AsTraced(session);
  OCELOT_CHECK(sink == nullptr || traced != nullptr) << "traced pass on a plain session";
  const int pass_query = sink != nullptr ? sink->book->NewQuery(sink->engine) : -1;
  common::Status drained;
  const common::Nanos v0 = session->clock()->Now();
  const double cpu0 = ProcessCpuSeconds();
  const std::int64_t t0 = NowNs();
  {
    MaybeSpan pass_span(sink, "pass", -1, pass_query);
    for (std::size_t i : order) {
      const int query = sink != nullptr ? sink->book->NewQuery(sink->engine) : -1;
      mal::DataflowStats stats;
      mal::RunOptions options;
      options.stats = &stats;
      const std::int64_t q0 = NowNs();
      {
        MaybeSpan run(sink, "run", pass_span.id(), query);
        if (traced != nullptr) traced->BeginQuery(query, run.id());
        pass.results.push_back(mal::Run(PlanFor(wb, session, i), wb.db.catalog, session,
                                        options));
      }
      pass.latencies_ms.push_back(static_cast<double>(NowNs() - q0) / 1e6);
      pass.dataflow.Add(stats);
    }
    MaybeSpan finish(sink, "finish", pass_span.id(), pass_query);
    drained = session->FinishDevices();
  }
  pass.wall_ms = static_cast<double>(NowNs() - t0) / 1e6;
  pass.cpu_s = ProcessCpuSeconds() - cpu0;
  pass.virtual_ms = static_cast<double>(session->clock()->Now() - v0) / 1e6;
  if (!drained.ok()) checker->Fail(engine + " FinishDevices: " + drained.ToString());
  CheckAll(wb, engine, order, pass, checker);
  return pass;
}

PassResult ReplayPass(const Workbench& wb, const EngineSpec& engine,
                      const std::vector<std::size_t>& order, Checker* checker,
                      const SpanSink* sink) {
  PassResult pass;
  const std::string name = sink != nullptr ? TracedName(engine.name) : engine.name;
  const double cpu0 = ProcessCpuSeconds();
  const std::int64_t t0 = NowNs();
  for (std::size_t i : order) {
    const int query = sink != nullptr ? sink->book->NewQuery(sink->engine) : -1;
    const std::int64_t q0 = NowNs();
    {
      MaybeSpan query_span(sink, "query", -1, query);
      std::unique_ptr<mal::Session> session;
      {
        MaybeSpan open(sink, "session_open", query_span.id(), query);
        session = OpenSession(name);
      }
      mal::Program program = wb.plans[i];
      if (session->hardware_oblivious()) {
        MaybeSpan rewrite(sink, "rewrite", query_span.id(), query);
        program = mal::RewriteForOcelot(program);
      }
      mal::DataflowStats stats;
      mal::RunOptions options;
      options.stats = &stats;
      const common::Nanos v0 = session->clock()->Now();
      {
        MaybeSpan run(sink, "run", query_span.id(), query);
        if (TracedEngine* traced = AsTraced(session.get())) traced->BeginQuery(query, run.id());
        pass.results.push_back(mal::Run(program, wb.db.catalog, session.get(), options));
      }
      {
        // Like the service: a drain-time fault cannot touch a result that
        // was already synced, so it does not fail the query.
        MaybeSpan finish(sink, "finish", query_span.id(), query);
        (void)session->FinishDevices();
      }
      pass.virtual_ms += static_cast<double>(session->clock()->Now() - v0) / 1e6;
      pass.counters += ReadCounters(session.get(), engine.label);
      pass.dataflow.Add(stats);
    }
    pass.latencies_ms.push_back(static_cast<double>(NowNs() - q0) / 1e6);
  }
  pass.wall_ms = static_cast<double>(NowNs() - t0) / 1e6;
  pass.cpu_s = ProcessCpuSeconds() - cpu0;
  CheckAll(wb, name, order, pass, checker);
  return pass;
}

std::size_t ClientStream::Next() {
  if (pos_ == order_.size()) {
    order_ = Shuffled(n_, &rng_);
    pos_ = 0;
  }
  return order_[pos_++];
}

std::vector<ClientStream> ClientStreams(std::uint64_t seed, int clients, std::size_t nplans) {
  std::vector<ClientStream> streams;
  for (int c = 0; c < clients; ++c) {
    streams.emplace_back(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(c) + 1,
                         nplans);
  }
  return streams;
}

WindowResult ServeWindow(mal::QueryService* service, const Workbench& wb,
                         std::vector<ClientStream>* clients, double window_ms,
                         Checker* checker) {
  struct Done {
    std::size_t plan;
    common::Result<mal::ExecResult> result;
    double latency_ms;
  };
  const double cpu0 = ProcessCpuSeconds();
  const std::int64_t t0 = NowNs();
  const std::int64_t end = t0 + static_cast<std::int64_t>(window_ms * 1e6);
  std::vector<std::vector<Done>> done(clients->size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients->size(); ++c) {
    threads.emplace_back([&, c] {
      ClientStream& stream = (*clients)[c];
      while (NowNs() < end) {
        std::size_t plan = stream.Next();
        const std::int64_t q0 = NowNs();
        auto future = service->Submit(wb.plans[plan]);
        common::Result<mal::ExecResult> result = future.get();
        done[c].push_back(Done{plan, std::move(result),
                               static_cast<double>(NowNs() - q0) / 1e6});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  WindowResult window;
  window.elapsed_ms = static_cast<double>(NowNs() - t0) / 1e6;
  window.cpu_s = ProcessCpuSeconds() - cpu0;
  for (const auto& per_client : done) {
    for (const Done& d : per_client) {
      checker->Check(wb, d.plan, service->engine_name(), d.result);
      window.latencies_ms.push_back(d.latency_ms);
      window.completed += 1;
    }
  }
  return window;
}

std::unique_ptr<mal::QueryService> OpenService(const std::string& engine,
                                               const Workbench& wb) {
  mal::ServiceOptions options;
  options.max_sessions = kServiceSessions;
  options.engine_options = ModelOptions();
  auto service = mal::QueryService::Open(engine, &wb.db.catalog, options);
  OCELOT_CHECK(service.ok()) << service.status().ToString();
  return std::move(*service);
}

FaultScope::FaultScope(bool on) : on_(on) {
  if (on_) ocl::SetFaultSpecForTesting(kGpuLostSpec);
}

FaultScope::~FaultScope() {
  // Back to the benchmark's default: injection suppressed, whatever the
  // environment says.
  if (on_) ocl::SetFaultSpecForTesting("");
}

void CheckTraceIdentity(const EngineSpec& engine, const PassResult& untraced,
                        const EngineCounters& untraced_counters,
                        const PassResult& traced, const EngineCounters& traced_counters,
                        Checker* checker) {
  const std::string label = engine.label;
  if (label != "multi") {
    for (std::size_t k = 0; k < untraced.results.size(); ++k) {
      if (!untraced.results[k].ok() || !traced.results[k].ok()) continue;  // counted
      std::string diff = Compare(Canonicalize(untraced.results[k]->returns),
                                 Canonicalize(traced.results[k]->returns), FloatMatch::kExact);
      if (!diff.empty()) {
        checker->Fail("trace identity on " + label + ", query #" + std::to_string(k) +
                      ": traced result differs: " + diff);
      }
    }
  }
  if (label == "gpu") {
    double launches_u = 0;
    double launches_t = 0;
    for (const auto& [key, dev] : untraced_counters.devices) launches_u += dev.launches;
    for (const auto& [key, dev] : traced_counters.devices) launches_t += dev.launches;
    if (untraced_counters.transfer_bytes() != traced_counters.transfer_bytes() ||
        launches_u != launches_t) {
      checker->Fail("trace identity on gpu: transfer bytes " +
                    std::to_string(untraced_counters.transfer_bytes()) + " vs " +
                    std::to_string(traced_counters.transfer_bytes()) + ", launches " +
                    std::to_string(launches_u) + " vs " + std::to_string(launches_t));
    }
  }
}

}  // namespace perfbench
