#include "src/ir/expr.h"

namespace artemis {
namespace {

const char* BinOpToken(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return "+";
    case BinOp::kSub:
      return "-";
    case BinOp::kMul:
      return "*";
    case BinOp::kDiv:
      return "/";
    case BinOp::kLt:
      return "<";
    case BinOp::kLe:
      return "<=";
    case BinOp::kGt:
      return ">";
    case BinOp::kGe:
      return ">=";
    case BinOp::kEq:
      return "==";
    case BinOp::kNe:
      return "!=";
    case BinOp::kAnd:
      return "&&";
    case BinOp::kOr:
      return "||";
  }
  return "?";
}

const char* FieldName(EventField field) {
  switch (field) {
    case EventField::kTimestamp:
      return "e->timestamp";
    case EventField::kDepData:
      return "e->depData";
    case EventField::kHasDepData:
      return "e->hasDepData";
    case EventField::kEnergyFraction:
      return "e->energy";
    case EventField::kPath:
      return "e->path";
  }
  return "?";
}

std::string NumberToC(double value) {
  // Integral values print without a trailing ".000000".
  if (value == static_cast<double>(static_cast<long long>(value))) {
    return std::to_string(static_cast<long long>(value));
  }
  return std::to_string(value);
}

}  // namespace

ExprPtr Const(double value) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kConst;
  e->constant = value;
  return e;
}

ExprPtr Var(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kVar;
  e->var = std::move(name);
  return e;
}

ExprPtr Field(EventField field) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kEventField;
  e->field = field;
  return e;
}

ExprPtr Bin(BinOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBinary;
  e->bin = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

ExprPtr Un(UnOp op, ExprPtr operand) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kUnary;
  e->un = op;
  e->lhs = std::move(operand);
  return e;
}

double EvalExpr(const Expr& expr, const VarEnv& env, const MonitorEvent& event) {
  switch (expr.kind) {
    case ExprKind::kConst:
      return expr.constant;
    case ExprKind::kVar: {
      const auto it = env.find(expr.var);
      return it != env.end() ? it->second : 0.0;
    }
    case ExprKind::kEventField:
      switch (expr.field) {
        case EventField::kTimestamp:
          return static_cast<double>(event.timestamp);
        case EventField::kDepData:
          return event.dep_data;
        case EventField::kHasDepData:
          return event.has_dep_data ? 1.0 : 0.0;
        case EventField::kEnergyFraction:
          return event.energy_fraction;
        case EventField::kPath:
          return static_cast<double>(event.path);
      }
      return 0.0;
    case ExprKind::kBinary: {
      const double l = EvalExpr(*expr.lhs, env, event);
      // Short-circuit logicals.
      if (expr.bin == BinOp::kAnd) {
        return (l != 0.0 && EvalExpr(*expr.rhs, env, event) != 0.0) ? 1.0 : 0.0;
      }
      if (expr.bin == BinOp::kOr) {
        return (l != 0.0 || EvalExpr(*expr.rhs, env, event) != 0.0) ? 1.0 : 0.0;
      }
      const double r = EvalExpr(*expr.rhs, env, event);
      switch (expr.bin) {
        case BinOp::kAdd:
          return l + r;
        case BinOp::kSub:
          return l - r;
        case BinOp::kMul:
          return l * r;
        case BinOp::kDiv:
          return r != 0.0 ? l / r : 0.0;
        case BinOp::kLt:
          return l < r ? 1.0 : 0.0;
        case BinOp::kLe:
          return l <= r ? 1.0 : 0.0;
        case BinOp::kGt:
          return l > r ? 1.0 : 0.0;
        case BinOp::kGe:
          return l >= r ? 1.0 : 0.0;
        case BinOp::kEq:
          return l == r ? 1.0 : 0.0;
        case BinOp::kNe:
          return l != r ? 1.0 : 0.0;
        case BinOp::kAnd:
        case BinOp::kOr:
          break;
      }
      return 0.0;
    }
    case ExprKind::kUnary: {
      const double v = EvalExpr(*expr.lhs, env, event);
      return expr.un == UnOp::kNot ? (v == 0.0 ? 1.0 : 0.0) : -v;
    }
  }
  return 0.0;
}

std::string ExprToC(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kConst:
      return NumberToC(expr.constant);
    case ExprKind::kVar:
      return "m->" + expr.var;
    case ExprKind::kEventField:
      return FieldName(expr.field);
    case ExprKind::kBinary: {
      // Appended piecewise: "(" + <temporary> trips GCC 12's -Wrestrict
      // false positive inside char_traits.
      std::string out = "(";
      out += ExprToC(*expr.lhs);
      out += " ";
      out += BinOpToken(expr.bin);
      out += " ";
      out += ExprToC(*expr.rhs);
      out += ")";
      return out;
    }
    case ExprKind::kUnary:
      return expr.un == UnOp::kNot ? "!(" + ExprToC(*expr.lhs) + ")"
                                   : "-(" + ExprToC(*expr.lhs) + ")";
  }
  return "?";
}

StmtPtr Assign(std::string var, ExprPtr value) {
  auto s = std::make_shared<Stmt>();
  s->kind = StmtKind::kAssign;
  s->var = std::move(var);
  s->value = std::move(value);
  return s;
}

StmtPtr If(ExprPtr cond, std::vector<StmtPtr> then_body, std::vector<StmtPtr> else_body) {
  auto s = std::make_shared<Stmt>();
  s->kind = StmtKind::kIf;
  s->cond = std::move(cond);
  s->then_body = std::move(then_body);
  s->else_body = std::move(else_body);
  return s;
}

StmtPtr Fail(ActionType action, PathId target_path, std::string property) {
  auto s = std::make_shared<Stmt>();
  s->kind = StmtKind::kFail;
  s->action = action;
  s->target_path = target_path;
  s->property = std::move(property);
  return s;
}

bool ExecStmts(const std::vector<StmtPtr>& body, VarEnv* env, const MonitorEvent& event,
               MonitorVerdict* verdict) {
  bool failed = false;
  for (const StmtPtr& stmt : body) {
    switch (stmt->kind) {
      case StmtKind::kAssign:
        (*env)[stmt->var] = EvalExpr(*stmt->value, *env, event);
        break;
      case StmtKind::kIf:
        if (EvalExpr(*stmt->cond, *env, event) != 0.0) {
          failed = ExecStmts(stmt->then_body, env, event, verdict) || failed;
        } else {
          failed = ExecStmts(stmt->else_body, env, event, verdict) || failed;
        }
        break;
      case StmtKind::kFail:
        verdict->action = stmt->action;
        verdict->target_path = stmt->target_path;
        verdict->property = stmt->property;
        failed = true;
        break;
    }
  }
  return failed;
}

void CollectVars(const Expr& expr, std::map<std::string, int>* vars) {
  switch (expr.kind) {
    case ExprKind::kVar:
      ++(*vars)[expr.var];
      break;
    case ExprKind::kBinary:
      CollectVars(*expr.lhs, vars);
      CollectVars(*expr.rhs, vars);
      break;
    case ExprKind::kUnary:
      CollectVars(*expr.lhs, vars);
      break;
    case ExprKind::kConst:
    case ExprKind::kEventField:
      break;
  }
}

void CollectVars(const std::vector<StmtPtr>& body, std::map<std::string, int>* vars) {
  for (const StmtPtr& stmt : body) {
    switch (stmt->kind) {
      case StmtKind::kAssign:
        ++(*vars)[stmt->var];
        CollectVars(*stmt->value, vars);
        break;
      case StmtKind::kIf:
        CollectVars(*stmt->cond, vars);
        CollectVars(stmt->then_body, vars);
        CollectVars(stmt->else_body, vars);
        break;
      case StmtKind::kFail:
        break;
    }
  }
}

}  // namespace artemis
