// hot-sf4: warm sessions, one client, paper SF 4.

#include <memory>
#include <vector>

#include "layers.h"
#include "mal/rewriter.h"
#include "passes.h"
#include "traced_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kPaperSf = 4;
constexpr int kSetupRepeats = 3;
/// The measured seconds are split into this many rounds; in each round
/// every engine runs whole passes for its share, so host-load drift hits all
/// three alike; each engine's figures are medians over its turns.
constexpr int kRounds = 5;
constexpr int kTracedPasses = 2;
constexpr std::size_t kSpanCapacity = 1 << 16;
constexpr std::uint64_t kOrderSalt = 0x5EED0F0Du;

struct HotState {
  std::unique_ptr<Workbench> wb;
  std::vector<std::unique_ptr<mal::Session>> sessions;  ///< per Engines()
};

/// Generate, compute goldens, open one session per engine and warm each
/// with one checked pass.
std::unique_ptr<HotState> SetupHot(std::uint64_t seed, Checker* checker) {
  auto st = std::make_unique<HotState>();
  st->wb = BuildWorkbench(kPaperSf, seed);
  common::Rng rng(seed ^ kOrderSalt);
  for (const EngineSpec& e : Engines()) {
    st->sessions.push_back(OpenSession(e.name));
    RunPass(*st->wb, st->sessions.back().get(), e.name,
            Shuffled(st->wb->plans.size(), &rng), checker, nullptr);
  }
  return st;
}

Outcome RunUntraced(const Args& args) {
  Outcome out;
  Checker checker;
  std::vector<double> setup_cpu_s;
  std::unique_ptr<HotState> st;
  for (int r = 0; r < kSetupRepeats; ++r) {
    st.reset();
    const double cpu0 = ProcessCpuSeconds();
    st = SetupHot(args.seed, &checker);
    setup_cpu_s.push_back(ProcessCpuSeconds() - cpu0);
  }
  const Workbench& wb = *st->wb;

  const std::size_t n = Engines().size();
  std::vector<EngineSamples> samples(n);
  common::Rng rng(args.seed * kOrderSalt + 1);
  const double turn_ms = args.seconds * 1e3 / static_cast<double>(kRounds * n);
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < n; ++k) {
      EngineSamples& e = samples[k];
      double wall_ms = 0;
      double cpu_s = 0;
      double queries = 0;
      while (wall_ms < turn_ms) {
        PassResult pass = RunPass(wb, st->sessions[k].get(), Engines()[k].name,
                                  Shuffled(wb.plans.size(), &rng), &checker, nullptr);
        wall_ms += pass.wall_ms;
        cpu_s += pass.cpu_s;
        queries += static_cast<double>(pass.latencies_ms.size());
        e.virtual_ms.push_back(pass.virtual_ms);
        e.latencies_ms.insert(e.latencies_ms.end(), pass.latencies_ms.begin(),
                              pass.latencies_ms.end());
      }
      e.turn_qps.push_back(queries / (wall_ms / 1e3));
      e.turn_cpu_ms_per_q.push_back(cpu_s * 1e3 / queries);
    }
  }
  EmitEndToEnd(setup_cpu_s, wb, samples, &out);
  out.attempted = checker.attempted();
  out.failed = checker.failed();
  return out;
}

Outcome RunTraced(const Args& args) {
  Outcome out;
  Checker checker;
  Tracer tracer(kSpanCapacity);
  TraceBook book(&tracer);
  RegisterTracedEngines(&tracer);
  std::unique_ptr<Workbench> wb = BuildWorkbench(kPaperSf, args.seed);
  common::Rng rng(args.seed * kOrderSalt + 1);

  std::vector<LayerAcc> acc(Engines().size());
  for (std::size_t k = 0; k < Engines().size(); ++k) {
    const EngineSpec& e = Engines()[k];
    const int engine = static_cast<int>(k);
    LayerAcc& a = acc[k];
    std::unique_ptr<mal::Session> plain = OpenSession(e.name);
    std::unique_ptr<mal::Session> traced;
    const int setup_query = book.NewQuery(engine);
    {
      ScopedSpan open(&tracer, "session_open", "mal", -1, setup_query);
      traced = OpenSession(TracedName(e.name));
    }
    if (traced->hardware_oblivious()) {
      // The rewrite a warm session pays once; the plans run below are the
      // workbench's identical rewrites.
      ScopedSpan rewrite(&tracer, "rewrite", "mal", -1, setup_query);
      for (const mal::Program& plan : wb->plans) (void)mal::RewriteForOcelot(plan);
    }

    // Warm-up doubles as the identity check: both sessions fresh, same order.
    std::vector<std::size_t> order = Shuffled(wb->plans.size(), &rng);
    SpanSink unmeasured{&book, -1};
    PassResult plain_warm = RunPass(*wb, plain.get(), e.name, order, &checker, nullptr);
    EngineCounters plain_counters = ReadCounters(plain.get(), e.label);
    PassResult traced_warm =
        RunPass(*wb, traced.get(), TracedName(e.name), order, &checker, &unmeasured);
    EngineCounters traced_counters = ReadCounters(traced.get(), e.label);
    CheckTraceIdentity(e, plain_warm, plain_counters, traced_warm, traced_counters, &checker);

    SpanSink measured{&book, engine};
    double latency_sum = 0;
    for (int p = 0; p < kTracedPasses; ++p) {
      order = Shuffled(wb->plans.size(), &rng);
      PassResult u = RunPass(*wb, plain.get(), e.name, order, &checker, nullptr);
      a.untraced_wall_ms += u.wall_ms;
      EngineCounters c0 = ReadCounters(traced.get(), e.label);
      std::uint64_t copied0 = ocelot::Scheduler::bytes_copied();
      PassResult t = RunPass(*wb, traced.get(), TracedName(e.name), order, &checker, &measured);
      a.merge_copied_bytes +=
          static_cast<double>(ocelot::Scheduler::bytes_copied() - copied0);
      EngineCounters delta = ReadCounters(traced.get(), e.label) - c0;
      a.counters += delta;
      a.traced_wall_ms += t.wall_ms;
      a.virtual_ms += t.virtual_ms;
      a.dataflow.Add(t.dataflow);
      a.queries += static_cast<double>(t.latencies_ms.size());
      for (double ms : t.latencies_ms) latency_sum += ms;
      tracer.Snapshot(std::string("counters.") + e.label,
                      {{"transfer_mb", delta.transfer_bytes() / 1e6},
                       {"evictions", delta.evictions},
                       {"virtual_ms", t.virtual_ms}});
    }
    a.passes = kTracedPasses;
    a.wait_ms = latency_sum;  // minus the run spans, once the trace is read
  }

  // hot-sf4 bypasses the service: the wait is client-side latency beyond
  // the run span (interpreter entry and exit).
  std::vector<Span> spans = tracer.Spans();
  std::vector<double> run_ms(Engines().size(), 0);
  for (const Span& s : spans) {
    int owner = book.OwnerOf(s.query);
    if (owner >= 0 && std::string(s.name) == "run") {
      run_ms[static_cast<std::size_t>(owner)] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  ServiceCounters service;
  for (std::size_t k = 0; k < Engines().size(); ++k) {
    acc[k].wait_ms = (acc[k].wait_ms - run_ms[k]) / acc[k].queries;
    if (std::string(Engines()[k].label) == "multi") {
      service.retries_per_query = acc[k].counters.retries / acc[k].queries;
      service.quarantines_per_query = acc[k].counters.quarantines / acc[k].queries;
      service.fallbacks_per_query = acc[k].counters.fallbacks / acc[k].queries;
    }
  }
  EmitLayerMetrics(book, acc, *wb, service, /*open_once=*/true, &out.metrics);
  ExportTrace(args, tracer, &out);
  out.metadata["traced_passes"] = std::to_string(kTracedPasses);
  out.attempted = checker.attempted();
  out.failed = checker.failed();
  return out;
}

}  // namespace

Outcome RunHotSf4(const Args& args) {
  return args.trace ? RunTraced(args) : RunUntraced(args);
}

}  // namespace perfbench
