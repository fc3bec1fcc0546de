// serve-sf1 and serve-sf1-gpu-lost: a 4-session QueryService per engine,
// 4 blocking clients, paper SF 1.

#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "passes.h"
#include "traced_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kPaperSf = 1;
constexpr int kClients = 4;
constexpr int kSetupRepeats = 5;
/// The measured seconds are split into this many rounds; in each round
/// every engine's service gets an equal turn, so host-load drift hits all
/// three alike; each engine's figures are medians over its turns.
constexpr int kRounds = 10;
/// Single-client replays whose modeled time gives virtual_ms.
constexpr int kVirtualReplays = 3;
constexpr int kTracedPasses = 2;
constexpr double kTracedServeMs = 1500;
constexpr std::size_t kSpanCapacity = 1 << 16;
constexpr std::uint64_t kOrderSalt = 0x5E12FE1Du;

bool IsMulti(const EngineSpec& e) { return std::string(e.label) == "multi"; }

struct ServeState {
  std::unique_ptr<Workbench> wb;  // declared first: the services read its catalog
  std::vector<std::unique_ptr<mal::QueryService>> services;  ///< per Engines()
};

std::unique_ptr<ServeState> SetupServe(std::uint64_t seed) {
  auto st = std::make_unique<ServeState>();
  st->wb = BuildWorkbench(kPaperSf, seed);
  for (const EngineSpec& e : Engines()) st->services.push_back(OpenService(e.name, *st->wb));
  return st;
}

std::string DegradationJson(const mal::DegradationStats& d, std::uint64_t completed) {
  return "{\"completed\": " + std::to_string(completed) +
         ", \"retries\": " + std::to_string(d.retries) +
         ", \"quarantines\": " + std::to_string(d.quarantines) +
         ", \"fallbacks\": " + std::to_string(d.fallbacks) +
         ", \"failures\": " + std::to_string(d.failures) + "}";
}

Outcome RunUntraced(const Args& args, bool gpu_lost) {
  Outcome out;
  Checker checker;
  std::vector<double> setup_cpu_s;
  std::unique_ptr<ServeState> st;
  for (int r = 0; r < kSetupRepeats; ++r) {
    st.reset();
    const double cpu0 = ProcessCpuSeconds();
    st = SetupServe(args.seed);
    setup_cpu_s.push_back(ProcessCpuSeconds() - cpu0);
  }
  const Workbench& wb = *st->wb;

  const std::size_t n = Engines().size();
  std::vector<std::vector<ClientStream>> clients;
  for (std::size_t k = 0; k < n; ++k) {
    clients.push_back(ClientStreams(args.seed * kOrderSalt, kClients, wb.plans.size()));
  }
  std::vector<EngineSamples> samples(n);
  const double turn_ms = args.seconds * 1e3 / static_cast<double>(kRounds * n);
  // One unmeasured turn per engine first: a host coming out of idle runs
  // the first seconds measurably slower.
  for (std::size_t k = 0; k < n; ++k) {
    FaultScope fault(gpu_lost && IsMulti(Engines()[k]));
    ServeWindow(st->services[k].get(), wb, &clients[k], turn_ms, &checker);
  }
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < n; ++k) {
      FaultScope fault(gpu_lost && IsMulti(Engines()[k]));
      WindowResult w = ServeWindow(st->services[k].get(), wb, &clients[k], turn_ms, &checker);
      const auto completed = static_cast<double>(w.completed);
      samples[k].turn_qps.push_back(completed / (w.elapsed_ms / 1e3));
      samples[k].turn_cpu_ms_per_q.push_back(w.cpu_s * 1e3 / completed);
      samples[k].latencies_ms.insert(samples[k].latencies_ms.end(), w.latencies_ms.begin(),
                                     w.latencies_ms.end());
    }
  }
  common::Rng rng(args.seed * kOrderSalt + 1);
  for (int r = 0; r < kVirtualReplays; ++r) {
    std::vector<std::size_t> order = Shuffled(wb.plans.size(), &rng);
    for (std::size_t k = 0; k < n; ++k) {
      if (std::string(Engines()[k].label) == "seq") continue;
      FaultScope fault(gpu_lost && IsMulti(Engines()[k]));
      samples[k].virtual_ms.push_back(
          ReplayPass(wb, Engines()[k], order, &checker, nullptr).virtual_ms);
    }
  }
  EmitEndToEnd(setup_cpu_s, wb, samples, &out);
  for (std::size_t k = 0; k < n; ++k) {
    out.metadata[std::string("degradation.") + Engines()[k].label] =
        DegradationJson(st->services[k]->degradation(), st->services[k]->completed());
  }
  out.metadata["clients"] = std::to_string(kClients);
  out.metadata["service_sessions"] = std::to_string(st->services[0]->max_sessions());
  out.metadata["fault_spec"] = gpu_lost ? JsonString(kGpuLostSpec) : "null";
  out.attempted = checker.attempted();
  out.failed = checker.failed();
  return out;
}

Outcome RunTraced(const Args& args, bool gpu_lost) {
  Outcome out;
  Checker checker;
  Tracer tracer(kSpanCapacity);
  TraceBook book(&tracer);
  RegisterTracedEngines(&tracer);
  std::unique_ptr<Workbench> wb = BuildWorkbench(kPaperSf, args.seed);
  common::Rng rng(args.seed * kOrderSalt + 1);

  std::vector<LayerAcc> acc(Engines().size());
  ServiceCounters service;
  for (std::size_t k = 0; k < Engines().size(); ++k) {
    const EngineSpec& e = Engines()[k];
    LayerAcc& a = acc[k];
    double replay_query_ms = 0;
    double replay_queries = 0;
    {
      FaultScope fault(gpu_lost && IsMulti(e));
      // Identity check first: fresh sessions per query either way.
      std::vector<std::size_t> order = Shuffled(wb->plans.size(), &rng);
      SpanSink unmeasured{&book, -1};
      PassResult plain = ReplayPass(*wb, e, order, &checker, nullptr);
      PassResult traced = ReplayPass(*wb, e, order, &checker, &unmeasured);
      CheckTraceIdentity(e, plain, plain.counters, traced, traced.counters, &checker);
      SpanSink measured{&book, static_cast<int>(k)};
      for (int p = 0; p < kTracedPasses; ++p) {
        order = Shuffled(wb->plans.size(), &rng);
        PassResult u = ReplayPass(*wb, e, order, &checker, nullptr);
        a.untraced_wall_ms += u.wall_ms;
        for (double ms : u.latencies_ms) replay_query_ms += ms;
        replay_queries += static_cast<double>(u.latencies_ms.size());
        std::uint64_t copied0 = ocelot::Scheduler::bytes_copied();
        PassResult t = ReplayPass(*wb, e, order, &checker, &measured);
        a.merge_copied_bytes +=
            static_cast<double>(ocelot::Scheduler::bytes_copied() - copied0);
        a.counters += t.counters;
        a.traced_wall_ms += t.wall_ms;
        a.virtual_ms += t.virtual_ms;
        a.dataflow.Add(t.dataflow);
        a.queries += static_cast<double>(t.latencies_ms.size());
        tracer.Snapshot(std::string("counters.") + e.label,
                        {{"transfer_mb", t.counters.transfer_bytes() / 1e6},
                         {"evictions", t.counters.evictions},
                         {"virtual_ms", t.virtual_ms}});
      }
      a.passes = kTracedPasses;
    }

    // The same queries under concurrency: what a query waits for beyond
    // its own single-client execution.
    std::unique_ptr<mal::QueryService> svc = OpenService(e.name, *wb);
    std::vector<ClientStream> clients =
        ClientStreams(args.seed * kOrderSalt, kClients, wb->plans.size());
    WindowResult w;
    {
      FaultScope fault(gpu_lost && IsMulti(e));
      w = ServeWindow(svc.get(), *wb, &clients, kTracedServeMs, &checker);
    }
    double latency_sum = 0;
    for (double ms : w.latencies_ms) latency_sum += ms;
    a.wait_ms = latency_sum / static_cast<double>(w.completed) - replay_query_ms / replay_queries;
    if (IsMulti(e)) {
      mal::DegradationStats d = svc->degradation();
      auto done = static_cast<double>(svc->completed());
      service.retries_per_query = static_cast<double>(d.retries) / done;
      service.quarantines_per_query = static_cast<double>(d.quarantines) / done;
      service.fallbacks_per_query = static_cast<double>(d.fallbacks) / done;
      out.metadata["degradation.multi"] = DegradationJson(d, svc->completed());
    }
  }
  EmitLayerMetrics(book, acc, *wb, service, /*open_once=*/false, &out.metrics);
  ExportTrace(args, tracer, &out);
  out.metadata["traced_passes"] = std::to_string(kTracedPasses);
  out.metadata["fault_spec"] = gpu_lost ? JsonString(kGpuLostSpec) : "null";
  out.attempted = checker.attempted();
  out.failed = checker.failed();
  return out;
}

}  // namespace

Outcome RunServeSf1(const Args& args, bool gpu_lost) {
  return args.trace ? RunTraced(args, gpu_lost) : RunUntraced(args, gpu_lost);
}

}  // namespace perfbench
