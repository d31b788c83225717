#include "src/ir/compile.h"

#include <map>
#include <sstream>

namespace artemis {
namespace {

const char* OpName(OpCode op) {
  switch (op) {
    case OpCode::kPushConst:
      return "push_const";
    case OpCode::kPushSlot:
      return "push_slot";
    case OpCode::kPushField:
      return "push_field";
    case OpCode::kAdd:
      return "add";
    case OpCode::kSub:
      return "sub";
    case OpCode::kMul:
      return "mul";
    case OpCode::kDiv:
      return "div";
    case OpCode::kLt:
      return "lt";
    case OpCode::kLe:
      return "le";
    case OpCode::kGt:
      return "gt";
    case OpCode::kGe:
      return "ge";
    case OpCode::kEq:
      return "eq";
    case OpCode::kNe:
      return "ne";
    case OpCode::kAnd:
      return "and";
    case OpCode::kOr:
      return "or";
    case OpCode::kNot:
      return "not";
    case OpCode::kNeg:
      return "neg";
    case OpCode::kStoreSlot:
      return "store_slot";
    case OpCode::kStoreField:
      return "store_field";
    case OpCode::kFieldMinusSlot:
      return "field_minus_slot";
    case OpCode::kAddConstSlot:
      return "add_const_slot";
    case OpCode::kJumpIfZero:
      return "jz";
    case OpCode::kJump:
      return "jmp";
    case OpCode::kJumpIfNotLt:
      return "jnlt";
    case OpCode::kJumpIfNotLe:
      return "jnle";
    case OpCode::kJumpIfNotGt:
      return "jngt";
    case OpCode::kJumpIfNotGe:
      return "jnge";
    case OpCode::kJumpIfNotEq:
      return "jneq";
    case OpCode::kJumpIfNotNe:
      return "jnne";
    case OpCode::kJumpIfNotAnd:
      return "jnand";
    case OpCode::kJumpIfNotOr:
      return "jnor";
    case OpCode::kJumpIfNotElapsedLt:
      return "jne_lt";
    case OpCode::kJumpIfNotElapsedLe:
      return "jne_le";
    case OpCode::kJumpIfNotElapsedGt:
      return "jne_gt";
    case OpCode::kJumpIfNotElapsedGe:
      return "jne_ge";
    case OpCode::kJumpIfNotElapsedEq:
      return "jne_eq";
    case OpCode::kJumpIfNotElapsedNe:
      return "jne_ne";
    case OpCode::kStoreFieldCommit:
      return "store_field_commit";
    case OpCode::kGuardCommitElapsedLt:
      return "gc_lt";
    case OpCode::kGuardCommitElapsedLe:
      return "gc_le";
    case OpCode::kGuardCommitElapsedGt:
      return "gc_gt";
    case OpCode::kGuardCommitElapsedGe:
      return "gc_ge";
    case OpCode::kGuardCommitElapsedEq:
      return "gc_eq";
    case OpCode::kGuardCommitElapsedNe:
      return "gc_ne";
    case OpCode::kExtend:
      return "ext";
    case OpCode::kFail:
      return "fail";
    case OpCode::kCommit:
      return "commit";
    case OpCode::kNoMatch:
      return "no_match";
  }
  return "?";
}

OpCode BinOpCode(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return OpCode::kAdd;
    case BinOp::kSub:
      return OpCode::kSub;
    case BinOp::kMul:
      return OpCode::kMul;
    case BinOp::kDiv:
      return OpCode::kDiv;
    case BinOp::kLt:
      return OpCode::kLt;
    case BinOp::kLe:
      return OpCode::kLe;
    case BinOp::kGt:
      return OpCode::kGt;
    case BinOp::kGe:
      return OpCode::kGe;
    case BinOp::kEq:
      return OpCode::kEq;
    case BinOp::kNe:
      return OpCode::kNe;
    case BinOp::kAnd:
      return OpCode::kAnd;
    case BinOp::kOr:
      return OpCode::kOr;
  }
  return OpCode::kAdd;
}

bool IsElapsedJump(OpCode op) {
  return op >= OpCode::kJumpIfNotElapsedLt && op <= OpCode::kJumpIfNotElapsedNe;
}

// Maps a kJumpIfNotElapsed* op to its commit-on-pass twin (same ordering).
OpCode GuardCommitFor(OpCode op) {
  return static_cast<OpCode>(static_cast<int>(OpCode::kGuardCommitElapsedLt) +
                             static_cast<int>(op) -
                             static_cast<int>(OpCode::kJumpIfNotElapsedLt));
}

// Emits postfix bytecode into one CompiledMachine, tracking the operand
// stack depth exactly (the emission order is the execution order).
class Compiler {
 public:
  explicit Compiler(const StateMachine& machine) : src_(machine) {}

  StatusOr<CompiledMachine> Run() {
    Status valid = src_.Validate();
    if (!valid.ok()) {
      return valid;
    }
    if (src_.states.size() > 0xFFFF) {
      return Status::FailedPrecondition("machine '" + src_.name + "': too many states");
    }
    m_.name = src_.name;
    m_.property_label = src_.property_label;
    m_.anchor_task = src_.anchor_task;
    m_.path_scope = src_.path_scope;
    m_.reset_on_path_restart = src_.reset_on_path_restart;

    for (const std::string& state : src_.states) {
      state_ids_.emplace(state, static_cast<std::uint16_t>(m_.state_names.size()));
      m_.state_names.push_back(state);
    }
    m_.initial = state_ids_.at(src_.initial);
    for (const auto& [var, value] : src_.variables) {
      slot_ids_.emplace(var, static_cast<std::uint32_t>(m_.var_names.size()));
      m_.var_names.push_back(var);
      m_.initial_slots.push_back(value);
      const auto declared = src_.slot_types.find(var);
      m_.slot_types.push_back(declared != src_.slot_types.end() ? declared->second
                                                                : SlotType::kCounter);
    }

    // Transition metadata rides along index-aligned with src_.transitions;
    // the executable code is emitted per dispatch bucket in BuildDispatch.
    for (const Transition& t : src_.transitions) {
      CompiledTransition ct;
      ct.from = state_ids_.at(t.from);
      ct.to = state_ids_.at(t.to);
      ct.trigger = t.trigger;
      ct.task = t.task;
      m_.transitions.push_back(ct);
    }
    BuildDispatch();
    return std::move(m_);
  }

 private:
  std::uint32_t Pc() const { return static_cast<std::uint32_t>(m_.code.size()); }

  std::uint32_t Emit(OpCode op, std::uint32_t operand = 0) {
    m_.code.push_back(Instr{op, operand});
    return static_cast<std::uint32_t>(m_.code.size() - 1);
  }

  void Push() {
    ++depth_;
    if (depth_ > static_cast<int>(m_.max_stack)) {
      m_.max_stack = static_cast<std::uint32_t>(depth_);
    }
  }

  std::uint32_t InternConst(double value) {
    const auto it = const_ids_.find(value);
    if (it != const_ids_.end()) {
      return it->second;
    }
    const auto id = static_cast<std::uint32_t>(m_.const_pool.size());
    m_.const_pool.push_back(value);
    const_ids_.emplace(value, id);
    return id;
  }

  // True when `field` and `slot` both fit the packed 16/16 operand split
  // used by the fused superinstructions.
  static bool Packable(std::uint32_t hi, std::uint32_t lo) {
    return hi <= 0xFFFF && lo <= 0xFFFF;
  }

  void EmitExpr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kConst:
        Emit(OpCode::kPushConst, InternConst(e.constant));
        Push();
        break;
      case ExprKind::kVar:
        Emit(OpCode::kPushSlot, slot_ids_.at(e.var));
        Push();
        break;
      case ExprKind::kEventField:
        Emit(OpCode::kPushField, static_cast<std::uint32_t>(e.field));
        Push();
        break;
      case ExprKind::kBinary: {
        // Elapsed-time fusion: `event.field - var` is the shape of every
        // lowered time-window guard; collapse it to one dispatch.
        if (e.bin == BinOp::kSub && e.lhs->kind == ExprKind::kEventField &&
            e.rhs->kind == ExprKind::kVar) {
          const auto field = static_cast<std::uint32_t>(e.lhs->field);
          const std::uint32_t slot = slot_ids_.at(e.rhs->var);
          if (Packable(field, slot)) {
            Emit(OpCode::kFieldMinusSlot, (field << 16) | slot);
            Push();
            break;
          }
        }
        EmitExpr(*e.lhs);
        EmitExpr(*e.rhs);
        Emit(BinOpCode(e.bin));
        --depth_;
        break;
      }
      case ExprKind::kUnary:
        EmitExpr(*e.lhs);
        Emit(e.un == UnOp::kNot ? OpCode::kNot : OpCode::kNeg);
        break;
    }
  }

  void EmitStmts(const std::vector<StmtPtr>& body) {
    for (const StmtPtr& stmt : body) {
      switch (stmt->kind) {
        case StmtKind::kAssign: {
          const std::uint32_t slot = slot_ids_.at(stmt->var);
          const Expr& v = *stmt->value;
          // `var = event.field` — one dispatch instead of push+store.
          if (v.kind == ExprKind::kEventField &&
              Packable(static_cast<std::uint32_t>(v.field), slot)) {
            Emit(OpCode::kStoreField, (static_cast<std::uint32_t>(v.field) << 16) | slot);
            break;
          }
          // `var = var + c` / `var = c + var` — the lowered counter bump.
          if (v.kind == ExprKind::kBinary && v.bin == BinOp::kAdd) {
            const Expr* self = nullptr;
            const Expr* constant = nullptr;
            if (v.lhs->kind == ExprKind::kVar && v.rhs->kind == ExprKind::kConst) {
              self = v.lhs.get();
              constant = v.rhs.get();
            } else if (v.lhs->kind == ExprKind::kConst && v.rhs->kind == ExprKind::kVar) {
              constant = v.lhs.get();
              self = v.rhs.get();
            }
            if (self != nullptr && self->var == stmt->var) {
              const std::uint32_t cid = InternConst(constant->constant);
              if (Packable(cid, slot)) {
                Emit(OpCode::kAddConstSlot, (cid << 16) | slot);
                break;
              }
            }
          }
          EmitExpr(v);
          Emit(OpCode::kStoreSlot, slot);
          --depth_;
          break;
        }
        case StmtKind::kIf: {
          const std::uint32_t jz = EmitCondJump(*stmt->cond);
          EmitStmts(stmt->then_body);
          if (stmt->else_body.empty()) {
            m_.code[jz].operand = Pc();
          } else {
            const std::uint32_t jmp = Emit(OpCode::kJump);
            m_.code[jz].operand = Pc();
            EmitStmts(stmt->else_body);
            m_.code[jmp].operand = Pc();
          }
          break;
        }
        case StmtKind::kFail: {
          const auto id = static_cast<std::uint32_t>(m_.fail_pool.size());
          m_.fail_pool.push_back(FailRecord{stmt->action, stmt->target_path, stmt->property});
          Emit(OpCode::kFail, id);
          break;
        }
      }
    }
  }

  // Emits `cond` followed by a conditional jump taken when it is false,
  // returning the jump's index for later patching. When the expression's
  // final op is a comparison / and / or, the jump is fused into it
  // (kJumpIfNot*): one dispatch pops both operands and branches directly.
  std::uint32_t EmitCondJump(const Expr& cond) {
    // Whole-guard fusion: `event.field - var <cmp> const` becomes one
    // three-word kJumpIfNotElapsed* instruction, no stack traffic at all.
    if (cond.kind == ExprKind::kBinary && cond.rhs->kind == ExprKind::kConst &&
        cond.lhs->kind == ExprKind::kBinary && cond.lhs->bin == BinOp::kSub &&
        cond.lhs->lhs->kind == ExprKind::kEventField &&
        cond.lhs->rhs->kind == ExprKind::kVar) {
      OpCode elapsed;
      switch (cond.bin) {
        case BinOp::kLt:
          elapsed = OpCode::kJumpIfNotElapsedLt;
          break;
        case BinOp::kLe:
          elapsed = OpCode::kJumpIfNotElapsedLe;
          break;
        case BinOp::kGt:
          elapsed = OpCode::kJumpIfNotElapsedGt;
          break;
        case BinOp::kGe:
          elapsed = OpCode::kJumpIfNotElapsedGe;
          break;
        case BinOp::kEq:
          elapsed = OpCode::kJumpIfNotElapsedEq;
          break;
        case BinOp::kNe:
          elapsed = OpCode::kJumpIfNotElapsedNe;
          break;
        default:
          elapsed = OpCode::kExtend;  // Not a comparison; no fusion.
          break;
      }
      const auto field = static_cast<std::uint32_t>(cond.lhs->lhs->field);
      const std::uint32_t slot = slot_ids_.at(cond.lhs->rhs->var);
      if (elapsed != OpCode::kExtend && Packable(field, slot)) {
        Emit(elapsed, (field << 16) | slot);
        Emit(OpCode::kExtend, InternConst(cond.rhs->constant));
        // The target word is returned for the caller to patch.
        return Emit(OpCode::kExtend, 0);
      }
    }
    EmitExpr(cond);
    OpCode fused;
    switch (m_.code.back().op) {
      case OpCode::kLt:
        fused = OpCode::kJumpIfNotLt;
        break;
      case OpCode::kLe:
        fused = OpCode::kJumpIfNotLe;
        break;
      case OpCode::kGt:
        fused = OpCode::kJumpIfNotGt;
        break;
      case OpCode::kGe:
        fused = OpCode::kJumpIfNotGe;
        break;
      case OpCode::kEq:
        fused = OpCode::kJumpIfNotEq;
        break;
      case OpCode::kNe:
        fused = OpCode::kJumpIfNotNe;
        break;
      case OpCode::kAnd:
        fused = OpCode::kJumpIfNotAnd;
        break;
      case OpCode::kOr:
        fused = OpCode::kJumpIfNotOr;
        break;
      default: {
        const std::uint32_t jz = Emit(OpCode::kJumpIfZero);
        --depth_;
        return jz;
      }
    }
    // The binary op popped two and pushed one; the fused jump pops both
    // and pushes nothing, so account for one more pop.
    m_.code.back() = Instr{fused, 0};
    --depth_;
    return static_cast<std::uint32_t>(m_.code.size() - 1);
  }

  // Emits one handler program: every candidate transition inlined in
  // declaration order as
  //   <guard>  jump-if-false next; <body>  commit to
  // falling through to kNoMatch (implicit self-loop) if none fires.
  // Empty candidate lists share a single cached kNoMatch program.
  std::uint32_t EmitHandler(const std::vector<std::uint32_t>& candidates) {
    if (candidates.empty()) {
      if (empty_handler_ == kNoProgram) {
        empty_handler_ = Emit(OpCode::kNoMatch);
      }
      return empty_handler_;
    }
    const std::uint32_t entry = Pc();
    for (const std::uint32_t i : candidates) {
      const Transition& t = src_.transitions[i];
      depth_ = 0;
      std::uint32_t jz = kNoProgram;
      const std::uint32_t guard_at = Pc();
      if (t.guard != nullptr) {
        jz = EmitCondJump(*t.guard);
      }
      const std::uint32_t body_at = Pc();
      EmitStmts(t.body);
      const std::uint32_t commit_at = Emit(OpCode::kCommit, m_.transitions[i].to);
      // Whole-transition peepholes: fold the commit into the preceding
      // instruction so the two dominant transition shapes run in a single
      // dispatch. Word counts are unchanged, so no patch target moves.
      const bool elapsed_guard =
          jz != kNoProgram && jz == guard_at + 2 && IsElapsedJump(m_.code[guard_at].op);
      if (elapsed_guard && body_at == commit_at) {
        // [jne_*][const][target][commit] -> [gc_*][const][target][state]
        m_.code[guard_at].op = GuardCommitFor(m_.code[guard_at].op);
        m_.code[commit_at].op = OpCode::kExtend;
      } else if (commit_at > body_at && m_.code[commit_at - 1].op == OpCode::kStoreField &&
                 t.body.back()->kind == StmtKind::kAssign) {
        // [store_field][commit] -> [store_field_commit][state]. Only safe
        // when the trailing kStoreField is the body's last *top-level*
        // statement: jump targets inside the body always land at statement
        // starts, so none can target the rewritten commit word.
        m_.code[commit_at - 1].op = OpCode::kStoreFieldCommit;
        m_.code[commit_at].op = OpCode::kExtend;
      }
      if (jz != kNoProgram) {
        m_.code[jz].operand = Pc();
      }
    }
    Emit(OpCode::kNoMatch);
    return entry;
  }

  static EventKind TriggerEventKind(TriggerKind trigger) {
    return trigger == TriggerKind::kStartTask ? EventKind::kStartTask : EventKind::kEndTask;
  }

  void BuildDispatch() {
    m_.buckets.resize(m_.state_names.size());
    m_.any_handler.resize(m_.state_names.size(), kNoProgram);
    for (std::uint16_t s = 0; s < m_.state_names.size(); ++s) {
      // Transitions leaving `s`, in declaration order.
      std::vector<std::uint32_t> local;
      for (std::uint32_t i = 0; i < m_.transitions.size(); ++i) {
        if (m_.transitions[i].from == s) {
          local.push_back(i);
        }
      }
      // One bucket per distinct (kind, task) a start/end trigger names.
      for (const std::uint32_t i : local) {
        const CompiledTransition& t = m_.transitions[i];
        if (t.trigger == TriggerKind::kAnyEvent) {
          continue;
        }
        const EventKind kind = TriggerEventKind(t.trigger);
        bool seen = false;
        for (const CompiledMachine::Bucket& b : m_.buckets[s]) {
          seen = seen || (b.kind == kind && b.task == t.task);
        }
        if (seen) {
          continue;
        }
        std::vector<std::uint32_t> candidates;
        for (const std::uint32_t j : local) {
          const CompiledTransition& c = m_.transitions[j];
          const bool matches = c.trigger == TriggerKind::kAnyEvent ||
                               (TriggerEventKind(c.trigger) == kind && c.task == t.task);
          if (matches) {
            candidates.push_back(j);
          }
        }
        CompiledMachine::Bucket bucket;
        bucket.kind = kind;
        bucket.task = t.task;
        bucket.candidates = static_cast<std::uint32_t>(candidates.size());
        bucket.handler_pc = EmitHandler(candidates);
        m_.buckets[s].push_back(bucket);
      }
      // Fallback for events no bucket covers: only kAnyEvent can match.
      std::vector<std::uint32_t> any_candidates;
      for (const std::uint32_t j : local) {
        if (m_.transitions[j].trigger == TriggerKind::kAnyEvent) {
          any_candidates.push_back(j);
        }
      }
      m_.any_handler[s] = EmitHandler(any_candidates);
    }
    BuildDenseTable();
  }

  // Flattens the buckets into the O(1) [state][kind][task] table, with
  // every uncovered entry pre-filled with that state's fallback handler.
  void BuildDenseTable() {
    m_.max_task = 0;
    for (const CompiledTransition& t : m_.transitions) {
      if (t.trigger != TriggerKind::kAnyEvent && t.task > m_.max_task) {
        m_.max_task = t.task;
      }
    }
    const std::uint32_t tasks = m_.max_task + 1;
    m_.dispatch.assign(m_.state_names.size() * 2u * tasks, kNoProgram);
    for (std::uint16_t s = 0; s < m_.state_names.size(); ++s) {
      for (std::uint32_t kind = 0; kind < 2; ++kind) {
        for (std::uint32_t task = 0; task < tasks; ++task) {
          m_.dispatch[(s * 2u + kind) * tasks + task] = m_.any_handler[s];
        }
      }
      for (const CompiledMachine::Bucket& b : m_.buckets[s]) {
        const std::uint32_t kind = static_cast<std::uint32_t>(b.kind);
        m_.dispatch[(s * 2u + kind) * tasks + b.task] = b.handler_pc;
      }
    }
    BuildDeadColumns();
  }

  // A column stays dead only while every state's handler for it is a bare
  // kNoMatch; the trailing column tracks the any-task handlers.
  void BuildDeadColumns() {
    const std::uint32_t tasks = m_.max_task + 1;
    const std::uint32_t cols = tasks + 1;
    m_.dead_columns.assign(2u * cols, 1u);
    const auto reacts = [this](std::uint32_t pc) { return m_.code[pc].op != OpCode::kNoMatch; };
    for (std::uint32_t s = 0; s < m_.state_names.size(); ++s) {
      for (std::uint32_t kind = 0; kind < 2; ++kind) {
        for (std::uint32_t task = 0; task < tasks; ++task) {
          if (reacts(m_.dispatch[(s * 2u + kind) * tasks + task])) {
            m_.dead_columns[kind * cols + task] = 0u;
          }
        }
      }
      if (reacts(m_.any_handler[s])) {
        m_.dead_columns[cols - 1u] = 0u;
        m_.dead_columns[2u * cols - 1u] = 0u;
      }
    }
  }

  const StateMachine& src_;
  CompiledMachine m_;
  std::map<std::string, std::uint16_t> state_ids_;
  std::map<std::string, std::uint32_t> slot_ids_;
  std::map<double, std::uint32_t> const_ids_;
  int depth_ = 0;
  std::uint32_t empty_handler_ = kNoProgram;
};

}  // namespace

StatusOr<CompiledMachine> CompileStateMachine(const StateMachine& machine) {
  return Compiler(machine).Run();
}

std::string Disassemble(const CompiledMachine& machine) {
  std::ostringstream out;
  out << "compiled " << machine.name << " (" << machine.property_label << ")\n";
  out << "  states: " << machine.state_names.size() << " initial: "
      << machine.state_names[machine.initial] << '\n';
  for (std::size_t i = 0; i < machine.var_names.size(); ++i) {
    out << "  slot " << i << ": " << machine.var_names[i] << " = "
        << machine.initial_slots[i] << '\n';
  }
  for (std::size_t i = 0; i < machine.transitions.size(); ++i) {
    const CompiledTransition& t = machine.transitions[i];
    out << "  t" << i << ": " << machine.state_names[t.from] << " -> "
        << machine.state_names[t.to] << " : " << TriggerKindName(t.trigger);
    if (t.trigger != TriggerKind::kAnyEvent) {
      out << "(task#" << t.task << ")";
    }
    out << '\n';
  }
  for (std::size_t s = 0; s < machine.buckets.size(); ++s) {
    for (const CompiledMachine::Bucket& b : machine.buckets[s]) {
      out << "  " << machine.state_names[s] << " / "
          << (b.kind == EventKind::kStartTask ? "start" : "end") << "(task#" << b.task
          << ") -> handler@" << b.handler_pc << " (" << b.candidates << " candidates)\n";
    }
    out << "  " << machine.state_names[s] << " / * -> handler@" << machine.any_handler[s]
        << '\n';
  }
  for (std::size_t pc = 0; pc < machine.code.size(); ++pc) {
    const Instr& in = machine.code[pc];
    out << "  " << pc << ": " << OpName(in.op);
    switch (in.op) {
      case OpCode::kPushConst:
        out << ' ' << machine.const_pool[in.operand];
        break;
      case OpCode::kPushSlot:
      case OpCode::kStoreSlot:
        out << ' ' << machine.var_names[in.operand];
        break;
      case OpCode::kStoreField:
      case OpCode::kFieldMinusSlot:
      case OpCode::kJumpIfNotElapsedLt:
      case OpCode::kJumpIfNotElapsedLe:
      case OpCode::kJumpIfNotElapsedGt:
      case OpCode::kJumpIfNotElapsedGe:
      case OpCode::kJumpIfNotElapsedEq:
      case OpCode::kJumpIfNotElapsedNe:
      case OpCode::kStoreFieldCommit:
      case OpCode::kGuardCommitElapsedLt:
      case OpCode::kGuardCommitElapsedLe:
      case OpCode::kGuardCommitElapsedGt:
      case OpCode::kGuardCommitElapsedGe:
      case OpCode::kGuardCommitElapsedEq:
      case OpCode::kGuardCommitElapsedNe:
        out << " field:" << (in.operand >> 16) << ' '
            << machine.var_names[in.operand & 0xFFFF];
        break;
      case OpCode::kAddConstSlot:
        out << ' ' << machine.var_names[in.operand & 0xFFFF] << " += "
            << machine.const_pool[in.operand >> 16];
        break;
      case OpCode::kCommit:
        out << ' ' << machine.state_names[in.operand];
        break;
      case OpCode::kPushField:
      case OpCode::kJumpIfZero:
      case OpCode::kJump:
      case OpCode::kJumpIfNotLt:
      case OpCode::kJumpIfNotLe:
      case OpCode::kJumpIfNotGt:
      case OpCode::kJumpIfNotGe:
      case OpCode::kJumpIfNotEq:
      case OpCode::kJumpIfNotNe:
      case OpCode::kJumpIfNotAnd:
      case OpCode::kJumpIfNotOr:
      case OpCode::kExtend:
      case OpCode::kFail:
        out << ' ' << in.operand;
        break;
      default:
        break;
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace artemis
