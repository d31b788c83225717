#include "src/analysis/interval.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace artemis {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// inf - inf and 0 * inf are NaN under IEEE; for interval endpoints we want
// them to mean "unbounded in the direction we were heading".
double GuardNan(double v, double fallback) { return std::isnan(v) ? fallback : v; }

Interval AddIv(const Interval& a, const Interval& b) {
  return Interval{GuardNan(a.lo + b.lo, -kInf), GuardNan(a.hi + b.hi, kInf)};
}

Interval SubIv(const Interval& a, const Interval& b) {
  return Interval{GuardNan(a.lo - b.hi, -kInf), GuardNan(a.hi - b.lo, kInf)};
}

Interval MulIv(const Interval& a, const Interval& b) {
  const double products[4] = {
      GuardNan(a.lo * b.lo, 0.0), GuardNan(a.lo * b.hi, 0.0),
      GuardNan(a.hi * b.lo, 0.0), GuardNan(a.hi * b.hi, 0.0)};
  Interval out{products[0], products[0]};
  for (double p : products) {
    out.lo = std::min(out.lo, p);
    out.hi = std::max(out.hi, p);
  }
  // 0 * inf is indeterminate: if either factor spans infinity and the other
  // contains 0, the product can be anything.
  const bool a_unbounded = std::isinf(a.lo) || std::isinf(a.hi);
  const bool b_unbounded = std::isinf(b.lo) || std::isinf(b.hi);
  if ((a_unbounded && b.Contains(0.0)) || (b_unbounded && a.Contains(0.0))) {
    return Interval::Entire();
  }
  return out;
}

Interval DivIv(const Interval& a, const Interval& b) {
  // Division by an interval containing 0 is unconstrained.
  if (b.Contains(0.0)) return Interval::Entire();
  const double quotients[4] = {a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi};
  Interval out{quotients[0], quotients[0]};
  for (double q : quotients) {
    if (std::isnan(q)) return Interval::Entire();
    out.lo = std::min(out.lo, q);
    out.hi = std::max(out.hi, q);
  }
  return out;
}

Interval FromTriBool(TriBool value) {
  switch (value) {
    case TriBool::kFalse:
      return Interval::Point(0.0);
    case TriBool::kTrue:
      return Interval::Point(1.0);
    case TriBool::kUnknown:
      return Interval{0.0, 1.0};
  }
  return Interval{0.0, 1.0};
}

// Truth of `a cmp b` over intervals.
TriBool CompareIv(BinOp op, const Interval& a, const Interval& b) {
  if (a.IsEmpty() || b.IsEmpty()) return TriBool::kFalse;
  switch (op) {
    case BinOp::kLt:
      if (a.hi < b.lo) return TriBool::kTrue;
      if (a.lo >= b.hi) return TriBool::kFalse;
      return TriBool::kUnknown;
    case BinOp::kLe:
      if (a.hi <= b.lo) return TriBool::kTrue;
      if (a.lo > b.hi) return TriBool::kFalse;
      return TriBool::kUnknown;
    case BinOp::kGt:
      return CompareIv(BinOp::kLt, b, a);
    case BinOp::kGe:
      return CompareIv(BinOp::kLe, b, a);
    case BinOp::kEq:
      if (a.IsPoint() && b.IsPoint() && a.lo == b.lo) return TriBool::kTrue;
      if (MeetIntervals(a, b).IsEmpty()) return TriBool::kFalse;
      return TriBool::kUnknown;
    case BinOp::kNe:
      return TriNot(CompareIv(BinOp::kEq, a, b));
    default:
      return TriBool::kUnknown;
  }
}

// Truthiness of a numeric interval (nonzero = true).
TriBool Truthiness(const Interval& v) {
  if (v.IsEmpty()) return TriBool::kFalse;
  if (v.IsPoint()) return v.lo != 0.0 ? TriBool::kTrue : TriBool::kFalse;
  if (!v.Contains(0.0)) return TriBool::kTrue;
  return TriBool::kUnknown;
}

bool IsComparison(BinOp op) {
  switch (op) {
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
    case BinOp::kEq:
    case BinOp::kNe:
      return true;
    default:
      return false;
  }
}

const char* BinOpText(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kAnd: return "&&";
    case BinOp::kOr: return "||";
  }
  return "?";
}

const char* EventFieldText(EventField field) {
  switch (field) {
    case EventField::kTimestamp: return "ts";
    case EventField::kDepData: return "depData";
    case EventField::kHasDepData: return "hasDepData";
    case EventField::kEnergyFraction: return "energy";
    case EventField::kPath: return "path";
  }
  return "?";
}

std::string NumberText(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::ostringstream out;
    out << static_cast<long long>(v);
    return out.str();
  }
  std::ostringstream out;
  out << v;
  return out.str();
}

// Flips a comparison so the constant moves to the right-hand side:
// `C < x` becomes `x > C`.
BinOp FlipComparison(BinOp op) {
  switch (op) {
    case BinOp::kLt: return BinOp::kGt;
    case BinOp::kLe: return BinOp::kGe;
    case BinOp::kGt: return BinOp::kLt;
    case BinOp::kGe: return BinOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

// Narrows `bound` by the atom `key cmp value`.
void ApplyAtom(BinOp op, double value, Bound* bound) {
  switch (op) {
    case BinOp::kLt:
      if (value < bound->hi || (value == bound->hi && !bound->hi_open)) {
        bound->hi = value;
        bound->hi_open = true;
      }
      break;
    case BinOp::kLe:
      if (value < bound->hi) {
        bound->hi = value;
        bound->hi_open = false;
      }
      break;
    case BinOp::kGt:
      if (value > bound->lo || (value == bound->lo && !bound->lo_open)) {
        bound->lo = value;
        bound->lo_open = true;
      }
      break;
    case BinOp::kGe:
      if (value > bound->lo) {
        bound->lo = value;
        bound->lo_open = false;
      }
      break;
    case BinOp::kEq: {
      Bound point{value, value, false, false};
      *bound = IntersectBounds(*bound, point);
      break;
    }
    default:
      break;
  }
}

bool CollectConstraintsImpl(const Expr& guard, std::map<std::string, Bound>* out) {
  if (guard.kind == ExprKind::kBinary && guard.bin == BinOp::kAnd) {
    const bool lhs_ok = CollectConstraintsImpl(*guard.lhs, out);
    const bool rhs_ok = CollectConstraintsImpl(*guard.rhs, out);
    return lhs_ok && rhs_ok;
  }
  if (guard.kind == ExprKind::kBinary && IsComparison(guard.bin)) {
    BinOp op = guard.bin;
    const Expr* subject = guard.lhs.get();
    std::optional<double> value = EvalConstantExpr(*guard.rhs);
    if (!value) {
      // Try the mirrored form `C cmp expr`.
      value = EvalConstantExpr(*guard.lhs);
      if (!value) return false;
      subject = guard.rhs.get();
      op = FlipComparison(op);
    }
    if (op == BinOp::kNe) return false;  // holes are not representable
    ApplyAtom(op, *value, &(*out)[ExprToText(*subject)]);
    return true;
  }
  // Bare variable / event field used as a boolean: `flag` means flag != 0.
  // For the 0/1-valued flags the lowering emits this is `flag == 1`, but we
  // cannot prove the 0/1 range here, so treat it as unrepresentable.
  return false;
}

}  // namespace

std::string Interval::ToString() const {
  if (IsEmpty()) return "(empty)";
  std::ostringstream out;
  // Streamed piecewise: "[" + <temporary> trips GCC 12's -Wrestrict false
  // positive inside char_traits.
  if (std::isinf(lo)) {
    out << "(-inf";
  } else {
    out << '[' << NumberText(lo);
  }
  out << ", ";
  if (std::isinf(hi)) {
    out << "+inf)";
  } else {
    out << NumberText(hi) << ']';
  }
  return out.str();
}

bool SameInterval(const Interval& a, const Interval& b) {
  if (a.IsEmpty() && b.IsEmpty()) return true;
  return a.lo == b.lo && a.hi == b.hi;
}

Interval JoinIntervals(const Interval& a, const Interval& b) {
  if (a.IsEmpty()) return b;
  if (b.IsEmpty()) return a;
  return Interval{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval MeetIntervals(const Interval& a, const Interval& b) {
  return Interval{std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
}

TriBool TriAnd(TriBool a, TriBool b) {
  if (a == TriBool::kFalse || b == TriBool::kFalse) return TriBool::kFalse;
  if (a == TriBool::kTrue && b == TriBool::kTrue) return TriBool::kTrue;
  return TriBool::kUnknown;
}

TriBool TriOr(TriBool a, TriBool b) {
  if (a == TriBool::kTrue || b == TriBool::kTrue) return TriBool::kTrue;
  if (a == TriBool::kFalse && b == TriBool::kFalse) return TriBool::kFalse;
  return TriBool::kUnknown;
}

TriBool TriNot(TriBool a) {
  switch (a) {
    case TriBool::kFalse:
      return TriBool::kTrue;
    case TriBool::kTrue:
      return TriBool::kFalse;
    case TriBool::kUnknown:
      return TriBool::kUnknown;
  }
  return TriBool::kUnknown;
}

Interval EventFieldRange(EventField field) {
  switch (field) {
    case EventField::kTimestamp:
      return Interval{0.0, kInf};
    case EventField::kDepData:
      return Interval::Entire();
    case EventField::kHasDepData:
      return Interval{0.0, 1.0};
    case EventField::kEnergyFraction:
      return Interval{0.0, 1.0};
    case EventField::kPath:
      return Interval{0.0, kInf};
  }
  return Interval::Entire();
}

Interval EvalInterval(const Expr& expr, const IntervalEnv& env) {
  switch (expr.kind) {
    case ExprKind::kConst:
      return Interval::Point(expr.constant);
    case ExprKind::kVar: {
      const auto it = env.find(expr.var);
      return it == env.end() ? Interval::Entire() : it->second;
    }
    case ExprKind::kEventField:
      return EventFieldRange(expr.field);
    case ExprKind::kBinary: {
      if (IsComparison(expr.bin) || expr.bin == BinOp::kAnd || expr.bin == BinOp::kOr) {
        return FromTriBool(EvalPredicate(expr, env));
      }
      const Interval a = EvalInterval(*expr.lhs, env);
      const Interval b = EvalInterval(*expr.rhs, env);
      if (a.IsEmpty() || b.IsEmpty()) return Interval{1.0, 0.0};
      switch (expr.bin) {
        case BinOp::kAdd:
          return AddIv(a, b);
        case BinOp::kSub:
          return SubIv(a, b);
        case BinOp::kMul:
          return MulIv(a, b);
        case BinOp::kDiv:
          return DivIv(a, b);
        default:
          return Interval::Entire();
      }
    }
    case ExprKind::kUnary: {
      if (expr.un == UnOp::kNot) return FromTriBool(EvalPredicate(expr, env));
      const Interval v = EvalInterval(*expr.lhs, env);
      if (v.IsEmpty()) return v;
      return Interval{-v.hi, -v.lo};
    }
  }
  return Interval::Entire();
}

TriBool EvalPredicate(const Expr& expr, const IntervalEnv& env) {
  if (expr.kind == ExprKind::kBinary) {
    if (IsComparison(expr.bin)) {
      return CompareIv(expr.bin, EvalInterval(*expr.lhs, env), EvalInterval(*expr.rhs, env));
    }
    if (expr.bin == BinOp::kAnd) {
      return TriAnd(EvalPredicate(*expr.lhs, env), EvalPredicate(*expr.rhs, env));
    }
    if (expr.bin == BinOp::kOr) {
      return TriOr(EvalPredicate(*expr.lhs, env), EvalPredicate(*expr.rhs, env));
    }
  }
  if (expr.kind == ExprKind::kUnary && expr.un == UnOp::kNot) {
    return TriNot(EvalPredicate(*expr.lhs, env));
  }
  return Truthiness(EvalInterval(expr, env));
}

std::optional<double> EvalConstantExpr(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kConst:
      return expr.constant;
    case ExprKind::kVar:
    case ExprKind::kEventField:
      return std::nullopt;
    case ExprKind::kBinary: {
      const auto a = EvalConstantExpr(*expr.lhs);
      const auto b = EvalConstantExpr(*expr.rhs);
      if (!a || !b) return std::nullopt;
      switch (expr.bin) {
        case BinOp::kAdd: return *a + *b;
        case BinOp::kSub: return *a - *b;
        case BinOp::kMul: return *a * *b;
        case BinOp::kDiv:
          if (*b == 0.0) return std::nullopt;
          return *a / *b;
        case BinOp::kLt: return *a < *b ? 1.0 : 0.0;
        case BinOp::kLe: return *a <= *b ? 1.0 : 0.0;
        case BinOp::kGt: return *a > *b ? 1.0 : 0.0;
        case BinOp::kGe: return *a >= *b ? 1.0 : 0.0;
        case BinOp::kEq: return *a == *b ? 1.0 : 0.0;
        case BinOp::kNe: return *a != *b ? 1.0 : 0.0;
        case BinOp::kAnd: return (*a != 0.0 && *b != 0.0) ? 1.0 : 0.0;
        case BinOp::kOr: return (*a != 0.0 || *b != 0.0) ? 1.0 : 0.0;
      }
      return std::nullopt;
    }
    case ExprKind::kUnary: {
      const auto v = EvalConstantExpr(*expr.lhs);
      if (!v) return std::nullopt;
      return expr.un == UnOp::kNeg ? -*v : (*v == 0.0 ? 1.0 : 0.0);
    }
  }
  return std::nullopt;
}

std::string ExprToText(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kConst:
      return NumberText(expr.constant);
    case ExprKind::kVar:
      return expr.var;
    case ExprKind::kEventField:
      return EventFieldText(expr.field);
    case ExprKind::kBinary: {
      // Appended piecewise, as in ExprToC (GCC 12 -Wrestrict false positive).
      std::string out = "(";
      out += ExprToText(*expr.lhs);
      out += " ";
      out += BinOpText(expr.bin);
      out += " ";
      out += ExprToText(*expr.rhs);
      out += ")";
      return out;
    }
    case ExprKind::kUnary: {
      std::string out = expr.un == UnOp::kNot ? "!" : "-";
      out += ExprToText(*expr.lhs);
      return out;
    }
  }
  return "?";
}

Bound IntersectBounds(const Bound& a, const Bound& b) {
  Bound out = a;
  if (b.lo > out.lo || (b.lo == out.lo && b.lo_open)) {
    out.lo = b.lo;
    out.lo_open = b.lo_open || (b.lo == a.lo && a.lo_open);
  }
  if (b.hi < out.hi || (b.hi == out.hi && b.hi_open)) {
    out.hi = b.hi;
    out.hi_open = b.hi_open || (b.hi == a.hi && a.hi_open);
  }
  return out;
}

bool DisjointBounds(const Bound& a, const Bound& b) {
  const Bound meet = IntersectBounds(a, b);
  if (meet.lo > meet.hi) return true;
  // Equal endpoints touch only when both sides include the point.
  if (meet.lo == meet.hi && (meet.lo_open || meet.hi_open)) return true;
  return false;
}

bool CollectGuardConstraints(const Expr& guard, std::map<std::string, Bound>* out) {
  return CollectConstraintsImpl(guard, out);
}

bool ProvablyDisjoint(const ExprPtr& a, const ExprPtr& b) {
  if (!a || !b) return false;  // a missing guard is always true
  std::map<std::string, Bound> ca, cb;
  CollectGuardConstraints(*a, &ca);
  CollectGuardConstraints(*b, &cb);
  for (const auto& [key, bound_a] : ca) {
    const auto it = cb.find(key);
    if (it != cb.end() && DisjointBounds(bound_a, it->second)) return true;
  }
  return false;
}

IntervalEnv RefineByGuard(const IntervalEnv& env, const ExprPtr& guard) {
  if (!guard) return env;
  std::map<std::string, Bound> constraints;
  CollectGuardConstraints(*guard, &constraints);
  IntervalEnv refined = env;
  for (const auto& [key, bound] : constraints) {
    // Only refine bare variables; composite expressions would need relational
    // reasoning. Open bounds are widened to their closed approximation.
    const auto it = refined.find(key);
    if (it == refined.end()) continue;
    const Interval narrowed = MeetIntervals(it->second, Interval{bound.lo, bound.hi});
    if (narrowed.IsEmpty()) continue;  // guard can't fire from this env; keep safe
    it->second = narrowed;
  }
  return refined;
}

}  // namespace artemis
