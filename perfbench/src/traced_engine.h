#ifndef PERFBENCH_TRACED_ENGINE_H_
#define PERFBENCH_TRACED_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>

#include "cstore/engine.h"
#include "cstore/registry.h"
#include "mal/interp.h"
#include "trace.h"

namespace perfbench {

/// A cstore::QueryEngine that forwards every operator to a wrapped engine
/// and records one span per call, categorized by operator class (select,
/// project, join, group, aggregate, calc, sort, sync). Spans hang under the
/// span the benchmark installed with BeginQuery, so operator time is
/// attributed to its query even when the dataflow executor calls a
/// concurrency-safe engine from pool threads.
class TracedEngine : public cstore::QueryEngine {
 public:
  TracedEngine(cstore::QueryEngine* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  cstore::QueryEngine* inner() const { return inner_; }

  /// Parent span and query id of the operator spans recorded from now on.
  void BeginQuery(int query, int parent_span) {
    query_.store(query, std::memory_order_relaxed);
    parent_.store(parent_span, std::memory_order_relaxed);
  }

  std::string name() const override { return inner_->name(); }
  bool concurrency_safe() const override { return inner_->concurrency_safe(); }

  common::Result<cstore::BatPtr> SelectRange(const cstore::BatPtr& col,
                                             const cstore::BatPtr& cand, cstore::Bound lo,
                                             cstore::Bound hi) override;
  common::Result<cstore::BatPtr> CandUnion(const cstore::BatPtr& a,
                                           const cstore::BatPtr& b) override;
  common::Result<cstore::BatPtr> Project(const cstore::BatPtr& oids,
                                         const cstore::BatPtr& col) override;
  common::Result<cstore::JoinResult> HashJoin(const cstore::BatPtr& left,
                                              const cstore::BatPtr& right) override;
  common::Result<cstore::JoinResult> ThetaJoin(const cstore::BatPtr& left,
                                               const cstore::BatPtr& right,
                                               cstore::CmpOp op) override;
  common::Result<cstore::BatPtr> SemiJoin(const cstore::BatPtr& left,
                                          const cstore::BatPtr& right) override;
  common::Result<cstore::BatPtr> AntiJoin(const cstore::BatPtr& left,
                                          const cstore::BatPtr& right) override;
  common::Result<cstore::SortResult> Sort(const cstore::BatPtr& col) override;
  common::Result<cstore::GroupResult> GroupBy(const cstore::BatPtr& col,
                                              const cstore::GroupResult* prev) override;
  common::Result<cstore::BatPtr> SubSum(const cstore::BatPtr& vals,
                                        const cstore::BatPtr& groups,
                                        std::size_t ngroups) override;
  common::Result<cstore::BatPtr> SubCount(const cstore::BatPtr& groups,
                                          std::size_t ngroups) override;
  common::Result<cstore::BatPtr> SubMin(const cstore::BatPtr& vals,
                                        const cstore::BatPtr& groups,
                                        std::size_t ngroups) override;
  common::Result<cstore::BatPtr> SubMax(const cstore::BatPtr& vals,
                                        const cstore::BatPtr& groups,
                                        std::size_t ngroups) override;
  common::Result<cstore::BatPtr> SubAvg(const cstore::BatPtr& vals,
                                        const cstore::BatPtr& groups,
                                        std::size_t ngroups) override;
  common::Result<double> Sum(const cstore::BatPtr& col) override;
  common::Result<double> Min(const cstore::BatPtr& col) override;
  common::Result<double> Max(const cstore::BatPtr& col) override;
  common::Result<std::int64_t> Count(const cstore::BatPtr& col) override;
  common::Result<cstore::BatPtr> Calc(cstore::CalcOp op, const cstore::BatPtr& a,
                                      const cstore::BatPtr& b) override;
  common::Result<cstore::BatPtr> CalcScalar(cstore::CalcOp op, const cstore::BatPtr& a,
                                            double s, bool scalar_left) override;
  common::Result<cstore::BatPtr> Cmp(cstore::CmpOp op, const cstore::BatPtr& a,
                                     const cstore::BatPtr& b) override;
  common::Result<cstore::BatPtr> CmpScalar(cstore::CmpOp op, const cstore::BatPtr& a,
                                           double s) override;
  common::Result<cstore::BatPtr> BoolOr(const cstore::BatPtr& a,
                                        const cstore::BatPtr& b) override;
  common::Result<cstore::BatPtr> BoolAnd(const cstore::BatPtr& a,
                                         const cstore::BatPtr& b) override;
  common::Result<cstore::BatPtr> IfThenElseConst(const cstore::BatPtr& cond,
                                                 const cstore::BatPtr& then_vals,
                                                 double else_val) override;
  common::Result<cstore::BatPtr> Year(const cstore::BatPtr& col) override;
  common::Result<cstore::BatPtr> CastToFloat(const cstore::BatPtr& col) override;
  common::Status Sync(const cstore::BatPtr& bat) override;

 private:
  template <typename Fn>
  auto Traced(const char* name, const char* cat, Fn&& fn) {
    ScopedSpan span(tracer_, name, cat, parent_.load(std::memory_order_relaxed),
                    query_.load(std::memory_order_relaxed));
    return fn();
  }

  cstore::QueryEngine* const inner_;
  Tracer* const tracer_;
  std::atomic<int> query_{-1};
  std::atomic<int> parent_{-1};
};

/// Registry name of the traced wrapper around `engine` ("perfbench.traced/"
/// + engine). The wrapper forwards clock(), ocl_context(),
/// hardware_oblivious() and Finish() to the wrapped bundle.
std::string TracedName(const std::string& engine);

/// Registers the traced wrapper of every engine the benchmark runs ("seq",
/// "ocelot:gpu", "ocelot:multi") in the global engine registry, recording
/// into `tracer` (which must outlive every session opened through them).
void RegisterTracedEngines(Tracer* tracer);

/// The wrapper behind a session opened under a TracedName, else null.
TracedEngine* AsTraced(mal::Session* session);

/// The engine that does the work: the wrapped one for traced sessions.
cstore::QueryEngine* InnerEngine(mal::Session* session);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_ENGINE_H_
