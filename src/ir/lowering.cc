#include "src/ir/lowering.h"

#include <algorithm>
#include <cctype>

namespace artemis {
namespace {

constexpr char kS0[] = "S0";
constexpr char kNotStarted[] = "NotStarted";
constexpr char kStarted[] = "Started";
constexpr char kWaitEndB[] = "WaitEndB";
constexpr char kWaitStartA[] = "WaitStartA";

ExprPtr Ts() { return Field(EventField::kTimestamp); }

std::string Sanitize(const std::string& name) {
  std::string out;
  for (const char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out;
}

StateMachine LowerMaxTries(const PropertyAst& p, const std::string& label, TaskId a) {
  StateMachine m;
  m.states = {kNotStarted, kStarted};
  m.initial = kNotStarted;
  m.variables["i"] = 0.0;
  m.slot_types["i"] = SlotType::kCounter;
  const double n = static_cast<double>(p.count);

  m.transitions.push_back(Transition{.from = kNotStarted,
                                     .to = kStarted,
                                     .trigger = TriggerKind::kStartTask,
                                     .task = a,
                                     .guard = nullptr,
                                     .body = {Assign("i", Const(1.0))}});
  m.transitions.push_back(Transition{.from = kStarted,
                                     .to = kStarted,
                                     .trigger = TriggerKind::kStartTask,
                                     .task = a,
                                     .guard = Bin(BinOp::kLt, Var("i"), Const(n)),
                                     .body = {Assign("i", Bin(BinOp::kAdd, Var("i"), Const(1.0)))}});
  m.transitions.push_back(Transition{.from = kStarted,
                                     .to = kNotStarted,
                                     .trigger = TriggerKind::kStartTask,
                                     .task = a,
                                     .guard = Bin(BinOp::kGe, Var("i"), Const(n)),
                                     .body = {Fail(p.on_fail, p.path, label),
                                              Assign("i", Const(0.0))}});
  m.transitions.push_back(Transition{.from = kStarted,
                                     .to = kNotStarted,
                                     .trigger = TriggerKind::kEndTask,
                                     .task = a,
                                     .guard = nullptr,
                                     .body = {Assign("i", Const(0.0))}});
  return m;
}

StateMachine LowerMaxDuration(const PropertyAst& p, const std::string& label, TaskId a) {
  StateMachine m;
  m.states = {kNotStarted, kStarted};
  m.initial = kNotStarted;
  m.variables["start"] = 0.0;
  m.slot_types["start"] = SlotType::kTime;
  const double d = static_cast<double>(p.duration);
  const ExprPtr elapsed = Bin(BinOp::kSub, Ts(), Var("start"));

  m.transitions.push_back(Transition{.from = kNotStarted,
                                     .to = kStarted,
                                     .trigger = TriggerKind::kStartTask,
                                     .task = a,
                                     .guard = nullptr,
                                     .body = {Assign("start", Ts())}});
  m.transitions.push_back(Transition{.from = kStarted,
                                     .to = kNotStarted,
                                     .trigger = TriggerKind::kEndTask,
                                     .task = a,
                                     .guard = Bin(BinOp::kLe, elapsed, Const(d)),
                                     .body = {}});
  m.transitions.push_back(Transition{.from = kStarted,
                                     .to = kNotStarted,
                                     .trigger = TriggerKind::kAnyEvent,
                                     .task = kInvalidTask,
                                     .guard = Bin(BinOp::kGt, elapsed, Const(d)),
                                     .body = {Fail(p.on_fail, p.path, label)}});
  // An in-time re-delivered start is an implicit self-transition: the
  // machine retains the first start timestamp (Section 4.1.3).
  m.reset_on_path_restart = true;
  return m;
}

StateMachine LowerCollect(const PropertyAst& p, const std::string& label, TaskId a, TaskId b,
                          bool reset_on_fail) {
  StateMachine m;
  m.states = {kS0};
  m.initial = kS0;
  m.variables["i"] = 0.0;
  m.slot_types["i"] = SlotType::kCounter;
  const double n = static_cast<double>(p.count);

  m.transitions.push_back(Transition{.from = kS0,
                                     .to = kS0,
                                     .trigger = TriggerKind::kEndTask,
                                     .task = b,
                                     .guard = nullptr,
                                     .body = {Assign("i", Bin(BinOp::kAdd, Var("i"), Const(1.0)))}});
  // A start with enough samples passes without touching the counter, so a
  // power-failure re-execution of A still passes; the samples are consumed
  // when A *commits* (end(A) resets the counter).
  // Built by push_back: a one-element initializer list followed by a
  // push_back trips GCC 12's -Warray-bounds false positive.
  std::vector<StmtPtr> fail_body;
  fail_body.push_back(Fail(p.on_fail, p.path, label));
  if (reset_on_fail) {
    fail_body.push_back(Assign("i", Const(0.0)));
  }
  m.transitions.push_back(Transition{.from = kS0,
                                     .to = kS0,
                                     .trigger = TriggerKind::kStartTask,
                                     .task = a,
                                     .guard = Bin(BinOp::kLt, Var("i"), Const(n)),
                                     .body = std::move(fail_body)});
  m.transitions.push_back(Transition{.from = kS0,
                                     .to = kS0,
                                     .trigger = TriggerKind::kEndTask,
                                     .task = a,
                                     .guard = nullptr,
                                     .body = {Assign("i", Const(0.0))}});
  return m;
}

StateMachine LowerMitd(const PropertyAst& p, const std::string& label, TaskId a, TaskId b) {
  StateMachine m;
  m.states = {kWaitEndB, kWaitStartA};
  m.initial = kWaitEndB;
  m.variables["endB"] = 0.0;
  m.slot_types["endB"] = SlotType::kTime;
  // The attempt counter only exists when maxAttempt is in play; otherwise
  // it would be write-only state (8 wasted FRAM bytes per instance, flagged
  // by the ART006 liveness pass).
  if (p.max_attempt > 0) {
    m.variables["att"] = 0.0;
    m.slot_types["att"] = SlotType::kCounter;
  }
  const double d = static_cast<double>(p.duration);
  const ExprPtr delay = Bin(BinOp::kSub, Ts(), Var("endB"));
  const ExprPtr in_time = Bin(BinOp::kLe, delay, Const(d));
  const ExprPtr late = Bin(BinOp::kGt, delay, Const(d));

  m.transitions.push_back(Transition{.from = kWaitEndB,
                                     .to = kWaitStartA,
                                     .trigger = TriggerKind::kEndTask,
                                     .task = b,
                                     .guard = nullptr,
                                     .body = {Assign("endB", Ts())}});
  // Refresh on a repeated completion of B (documented addition; see header).
  m.transitions.push_back(Transition{.from = kWaitStartA,
                                     .to = kWaitStartA,
                                     .trigger = TriggerKind::kEndTask,
                                     .task = b,
                                     .guard = nullptr,
                                     .body = {Assign("endB", Ts())}});
  // An in-time start passes but does NOT reset the attempt counter: the
  // attempt only really succeeded once A commits. Otherwise the pre-failure
  // start of each retry cycle would clear the counter and maxAttempt could
  // never fire (the exact scenario it exists for).
  m.transitions.push_back(Transition{.from = kWaitStartA,
                                     .to = kWaitStartA,
                                     .trigger = TriggerKind::kStartTask,
                                     .task = a,
                                     .guard = in_time,
                                     .body = {}});
  std::vector<StmtPtr> commit_body;
  if (p.max_attempt > 0) {
    commit_body.push_back(Assign("att", Const(0.0)));
  }
  m.transitions.push_back(Transition{.from = kWaitStartA,
                                     .to = kWaitStartA,
                                     .trigger = TriggerKind::kEndTask,
                                     .task = a,
                                     .guard = nullptr,
                                     .body = std::move(commit_body)});
  if (p.max_attempt > 0) {
    const double m_1 = static_cast<double>(p.max_attempt) - 1.0;
    m.transitions.push_back(Transition{
        .from = kWaitStartA,
        .to = kWaitStartA,
        .trigger = TriggerKind::kStartTask,
        .task = a,
        .guard = Bin(BinOp::kAnd, late, Bin(BinOp::kLt, Var("att"), Const(m_1))),
        .body = {Assign("att", Bin(BinOp::kAdd, Var("att"), Const(1.0))),
                 Fail(p.on_fail, p.path, label)}});
    m.transitions.push_back(Transition{
        .from = kWaitStartA,
        .to = kWaitStartA,
        .trigger = TriggerKind::kStartTask,
        .task = a,
        .guard = Bin(BinOp::kAnd, late, Bin(BinOp::kGe, Var("att"), Const(m_1))),
        .body = {Assign("att", Const(0.0)),
                 Fail(p.max_attempt_action, p.path, label + "/maxAttempt")}});
  } else {
    m.transitions.push_back(Transition{.from = kWaitStartA,
                                       .to = kWaitStartA,
                                       .trigger = TriggerKind::kStartTask,
                                       .task = a,
                                       .guard = late,
                                       .body = {Fail(p.on_fail, p.path, label)}});
  }
  return m;
}

StateMachine LowerPeriod(const PropertyAst& p, const std::string& label, TaskId a) {
  StateMachine m;
  m.states = {kS0};
  m.initial = kS0;
  m.variables["last"] = 0.0;
  m.slot_types["last"] = SlotType::kTime;
  m.variables["started"] = 0.0;
  m.slot_types["started"] = SlotType::kFlag;
  const double bound = static_cast<double>(p.duration + p.jitter);
  const ExprPtr gap = Bin(BinOp::kSub, Ts(), Var("last"));
  const ExprPtr fresh = Bin(BinOp::kEq, Var("started"), Const(0.0));
  const ExprPtr running = Bin(BinOp::kEq, Var("started"), Const(1.0));

  m.transitions.push_back(Transition{
      .from = kS0,
      .to = kS0,
      .trigger = TriggerKind::kStartTask,
      .task = a,
      .guard = fresh,
      .body = {Assign("last", Ts()), Assign("started", Const(1.0))}});
  m.transitions.push_back(Transition{
      .from = kS0,
      .to = kS0,
      .trigger = TriggerKind::kStartTask,
      .task = a,
      .guard = Bin(BinOp::kAnd, running, Bin(BinOp::kLe, gap, Const(bound))),
      .body = {Assign("last", Ts())}});
  m.transitions.push_back(Transition{
      .from = kS0,
      .to = kS0,
      .trigger = TriggerKind::kStartTask,
      .task = a,
      .guard = Bin(BinOp::kAnd, running, Bin(BinOp::kGt, gap, Const(bound))),
      .body = {Fail(p.on_fail, p.path, label), Assign("last", Ts())}});
  return m;
}

StateMachine LowerDpData(const PropertyAst& p, const std::string& label, TaskId a) {
  StateMachine m;
  m.states = {kS0};
  m.initial = kS0;
  const ExprPtr out_of_range =
      Bin(BinOp::kOr, Bin(BinOp::kLt, Field(EventField::kDepData), Const(p.range_lo)),
          Bin(BinOp::kGt, Field(EventField::kDepData), Const(p.range_hi)));
  m.transitions.push_back(Transition{
      .from = kS0,
      .to = kS0,
      .trigger = TriggerKind::kEndTask,
      .task = a,
      .guard = Bin(BinOp::kAnd,
                   Bin(BinOp::kEq, Field(EventField::kHasDepData), Const(1.0)), out_of_range),
      .body = {Fail(p.on_fail, p.path, label)}});
  return m;
}

StateMachine LowerMinEnergy(const PropertyAst& p, const std::string& label, TaskId a) {
  StateMachine m;
  m.states = {kS0};
  m.initial = kS0;
  m.transitions.push_back(Transition{
      .from = kS0,
      .to = kS0,
      .trigger = TriggerKind::kStartTask,
      .task = a,
      .guard = Bin(BinOp::kLt, Field(EventField::kEnergyFraction), Const(p.min_energy)),
      .body = {Fail(p.on_fail, p.path, label)}});
  return m;
}

}  // namespace

StatusOr<StateMachine> LowerProperty(const PropertyAst& property, const std::string& task_name,
                                     const AppGraph& graph, const LoweringOptions& options) {
  const std::optional<TaskId> anchor = graph.FindTask(task_name);
  if (!anchor.has_value()) {
    return Status::Internal("LowerProperty: unknown task '" + task_name + "'");
  }
  TaskId dep = kInvalidTask;
  if (!property.dp_task.empty()) {
    const std::optional<TaskId> found = graph.FindTask(property.dp_task);
    if (!found.has_value()) {
      return Status::Internal("LowerProperty: unknown dpTask '" + property.dp_task + "'");
    }
    dep = *found;
  }

  const std::string label = property.Label(task_name);
  StateMachine machine;
  switch (property.kind) {
    case PropertyKind::kMaxTries:
      machine = LowerMaxTries(property, label, *anchor);
      break;
    case PropertyKind::kMaxDuration:
      machine = LowerMaxDuration(property, label, *anchor);
      break;
    case PropertyKind::kCollect:
      machine = LowerCollect(property, label, *anchor, dep, options.collect_reset_on_fail);
      break;
    case PropertyKind::kMitd:
      machine = LowerMitd(property, label, *anchor, dep);
      break;
    case PropertyKind::kPeriod:
      machine = LowerPeriod(property, label, *anchor);
      break;
    case PropertyKind::kDpData:
      machine = LowerDpData(property, label, *anchor);
      break;
    case PropertyKind::kMinEnergy:
      machine = LowerMinEnergy(property, label, *anchor);
      break;
  }
  machine.name = Sanitize(std::string(PropertyKindName(property.kind)) + "_" + task_name +
                          (property.dp_task.empty() ? "" : "_" + property.dp_task));
  machine.property_label = label;
  machine.source = property.Span();
  machine.anchor_task = *anchor;
  // The Path qualifier scopes events only when the anchor actually lies on
  // that path (path merging); for cross-path dependencies it is solely the
  // fail target already baked into the Fail statements.
  machine.path_scope = kNoPath;
  if (property.path != kNoPath) {
    const auto& scoped = graph.path(property.path);
    if (std::find(scoped.begin(), scoped.end(), *anchor) != scoped.end()) {
      machine.path_scope = property.path;
    }
  }
  if (const Status status = machine.Validate(); !status.ok()) {
    return status;
  }
  return machine;
}

StatusOr<std::vector<StateMachine>> LowerSpec(const SpecAst& spec, const AppGraph& graph,
                                              const LoweringOptions& options) {
  std::vector<StateMachine> machines;
  for (const TaskBlockAst& block : spec.blocks) {
    for (const PropertyAst& property : block.properties) {
      StatusOr<StateMachine> lowered = LowerProperty(property, block.task, graph, options);
      if (!lowered.ok()) {
        return lowered.status();
      }
      // Disambiguate duplicate names (two collect properties on `send`).
      std::string base = lowered.value().name;
      int suffix = 2;
      auto taken = [&machines](const std::string& candidate) {
        for (const StateMachine& m : machines) {
          if (m.name == candidate) {
            return true;
          }
        }
        return false;
      };
      while (taken(lowered.value().name)) {
        lowered.value().name = base + "_" + std::to_string(suffix++);
      }
      machines.push_back(std::move(lowered).value());
    }
  }
  return machines;
}

}  // namespace artemis
