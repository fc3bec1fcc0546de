#include "traced_engine.h"

#include "mal/engines.h"

namespace perfbench {

using cstore::BatPtr;
using common::Result;

namespace {

class TracedBundle : public cstore::EngineBundle {
 public:
  TracedBundle(std::unique_ptr<cstore::EngineBundle> inner, Tracer* tracer)
      : inner_(std::move(inner)), engine_(inner_->engine(), tracer) {}

  cstore::QueryEngine* engine() override { return &engine_; }
  common::VirtualClock* clock() override { return inner_->clock(); }
  bool hardware_oblivious() const override { return inner_->hardware_oblivious(); }
  ocl::Context* ocl_context() override { return inner_->ocl_context(); }
  common::Status Finish() override { return inner_->Finish(); }

 private:
  std::unique_ptr<cstore::EngineBundle> inner_;
  TracedEngine engine_;
};

constexpr const char* kPrefix = "perfbench.traced/";

}  // namespace

Result<BatPtr> TracedEngine::SelectRange(const BatPtr& col, const BatPtr& cand,
                                         cstore::Bound lo, cstore::Bound hi) {
  return Traced("SelectRange", "select",
                [&] { return inner_->SelectRange(col, cand, lo, hi); });
}
Result<BatPtr> TracedEngine::CandUnion(const BatPtr& a, const BatPtr& b) {
  return Traced("CandUnion", "select", [&] { return inner_->CandUnion(a, b); });
}
Result<BatPtr> TracedEngine::Project(const BatPtr& oids, const BatPtr& col) {
  return Traced("Project", "project", [&] { return inner_->Project(oids, col); });
}
Result<cstore::JoinResult> TracedEngine::HashJoin(const BatPtr& left,
                                                  const BatPtr& right) {
  return Traced("HashJoin", "join", [&] { return inner_->HashJoin(left, right); });
}
Result<cstore::JoinResult> TracedEngine::ThetaJoin(const BatPtr& left,
                                                   const BatPtr& right,
                                                   cstore::CmpOp op) {
  return Traced("ThetaJoin", "join", [&] { return inner_->ThetaJoin(left, right, op); });
}
Result<BatPtr> TracedEngine::SemiJoin(const BatPtr& left, const BatPtr& right) {
  return Traced("SemiJoin", "join", [&] { return inner_->SemiJoin(left, right); });
}
Result<BatPtr> TracedEngine::AntiJoin(const BatPtr& left, const BatPtr& right) {
  return Traced("AntiJoin", "join", [&] { return inner_->AntiJoin(left, right); });
}
Result<cstore::SortResult> TracedEngine::Sort(const BatPtr& col) {
  return Traced("Sort", "sort", [&] { return inner_->Sort(col); });
}
Result<cstore::GroupResult> TracedEngine::GroupBy(const BatPtr& col,
                                                  const cstore::GroupResult* prev) {
  return Traced("GroupBy", "group", [&] { return inner_->GroupBy(col, prev); });
}
Result<BatPtr> TracedEngine::SubSum(const BatPtr& vals, const BatPtr& groups,
                                    std::size_t ngroups) {
  return Traced("SubSum", "aggregate",
                [&] { return inner_->SubSum(vals, groups, ngroups); });
}
Result<BatPtr> TracedEngine::SubCount(const BatPtr& groups, std::size_t ngroups) {
  return Traced("SubCount", "aggregate",
                [&] { return inner_->SubCount(groups, ngroups); });
}
Result<BatPtr> TracedEngine::SubMin(const BatPtr& vals, const BatPtr& groups,
                                    std::size_t ngroups) {
  return Traced("SubMin", "aggregate",
                [&] { return inner_->SubMin(vals, groups, ngroups); });
}
Result<BatPtr> TracedEngine::SubMax(const BatPtr& vals, const BatPtr& groups,
                                    std::size_t ngroups) {
  return Traced("SubMax", "aggregate",
                [&] { return inner_->SubMax(vals, groups, ngroups); });
}
Result<BatPtr> TracedEngine::SubAvg(const BatPtr& vals, const BatPtr& groups,
                                    std::size_t ngroups) {
  return Traced("SubAvg", "aggregate",
                [&] { return inner_->SubAvg(vals, groups, ngroups); });
}
Result<double> TracedEngine::Sum(const BatPtr& col) {
  return Traced("Sum", "aggregate", [&] { return inner_->Sum(col); });
}
Result<double> TracedEngine::Min(const BatPtr& col) {
  return Traced("Min", "aggregate", [&] { return inner_->Min(col); });
}
Result<double> TracedEngine::Max(const BatPtr& col) {
  return Traced("Max", "aggregate", [&] { return inner_->Max(col); });
}
Result<std::int64_t> TracedEngine::Count(const BatPtr& col) {
  return Traced("Count", "aggregate", [&] { return inner_->Count(col); });
}
Result<BatPtr> TracedEngine::Calc(cstore::CalcOp op, const BatPtr& a, const BatPtr& b) {
  return Traced("Calc", "calc", [&] { return inner_->Calc(op, a, b); });
}
Result<BatPtr> TracedEngine::CalcScalar(cstore::CalcOp op, const BatPtr& a, double s,
                                        bool scalar_left) {
  return Traced("CalcScalar", "calc",
                [&] { return inner_->CalcScalar(op, a, s, scalar_left); });
}
Result<BatPtr> TracedEngine::Cmp(cstore::CmpOp op, const BatPtr& a, const BatPtr& b) {
  return Traced("Cmp", "calc", [&] { return inner_->Cmp(op, a, b); });
}
Result<BatPtr> TracedEngine::CmpScalar(cstore::CmpOp op, const BatPtr& a, double s) {
  return Traced("CmpScalar", "calc", [&] { return inner_->CmpScalar(op, a, s); });
}
Result<BatPtr> TracedEngine::BoolOr(const BatPtr& a, const BatPtr& b) {
  return Traced("BoolOr", "calc", [&] { return inner_->BoolOr(a, b); });
}
Result<BatPtr> TracedEngine::BoolAnd(const BatPtr& a, const BatPtr& b) {
  return Traced("BoolAnd", "calc", [&] { return inner_->BoolAnd(a, b); });
}
Result<BatPtr> TracedEngine::IfThenElseConst(const BatPtr& cond, const BatPtr& then_vals,
                                             double else_val) {
  return Traced("IfThenElseConst", "calc",
                [&] { return inner_->IfThenElseConst(cond, then_vals, else_val); });
}
Result<BatPtr> TracedEngine::Year(const BatPtr& col) {
  return Traced("Year", "calc", [&] { return inner_->Year(col); });
}
Result<BatPtr> TracedEngine::CastToFloat(const BatPtr& col) {
  return Traced("CastToFloat", "calc", [&] { return inner_->CastToFloat(col); });
}
common::Status TracedEngine::Sync(const BatPtr& bat) {
  return Traced("Sync", "sync", [&] { return inner_->Sync(bat); });
}

std::string TracedName(const std::string& engine) { return kPrefix + engine; }

void RegisterTracedEngines(Tracer* tracer) {
  cstore::EngineRegistry& registry = mal::EnsureEngineRegistry();
  for (const char* engine : {"seq", "ocelot:gpu", "ocelot:multi"}) {
    std::string inner_name = engine;
    registry.Register(
        TracedName(inner_name),
        [inner_name, tracer](const cstore::EngineOptions& options)
            -> Result<std::unique_ptr<cstore::EngineBundle>> {
          ASSIGN_OR_RETURN(std::unique_ptr<cstore::EngineBundle> inner,
                           cstore::EngineRegistry::Global().Create(inner_name, options));
          return std::unique_ptr<cstore::EngineBundle>(
              std::make_unique<TracedBundle>(std::move(inner), tracer));
        });
  }
}

TracedEngine* AsTraced(mal::Session* session) {
  return dynamic_cast<TracedEngine*>(session->engine());
}

cstore::QueryEngine* InnerEngine(mal::Session* session) {
  TracedEngine* traced = AsTraced(session);
  return traced != nullptr ? traced->inner() : session->engine();
}

}  // namespace perfbench
