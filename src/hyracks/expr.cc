#include "hyracks/expr.h"

#include <bit>

namespace simdb::hyracks {

namespace {

/// Equal with the same type at every level. `Value::Compare` treats int64 1
/// and double 1.0 (and 0.0 and -0.0) as one key, but as literals they are
/// different: `add($x, 1)` yields an int64, `add($x, 1.0)` a double, and
/// `div(1, -0.0)` is -inf. Doubles are therefore compared by their bits.
bool SameValue(const adm::Value& a, const adm::Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case adm::ValueType::kDouble:
      return std::bit_cast<uint64_t>(a.AsDoubleExact()) ==
             std::bit_cast<uint64_t>(b.AsDoubleExact());
    case adm::ValueType::kArray:
    case adm::ValueType::kMultiset: {
      const adm::Value::Array& x = a.AsList();
      const adm::Value::Array& y = b.AsList();
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (!SameValue(x[i], y[i])) return false;
      }
      return true;
    }
    case adm::ValueType::kObject: {
      const adm::Value::Object& x = a.AsObject();
      const adm::Value::Object& y = b.AsObject();
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (x[i].first != y[i].first || !SameValue(x[i].second, y[i].second)) {
          return false;
        }
      }
      return true;
    }
    default:
      return adm::Value::Compare(a, b) == 0;
  }
}

}  // namespace

bool SameExpr(const ExprPtr& a, const ExprPtr& b) {
  if (a == nullptr || b == nullptr) return a == b;
  return a == b || a->SameAs(*b);
}

bool SameExprs(const std::vector<ExprPtr>& a, const std::vector<ExprPtr>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameExpr(a[i], b[i])) return false;
  }
  return true;
}

bool ColumnExpr::SameAs(const Expr& other) const {
  const auto* o = dynamic_cast<const ColumnExpr*>(&other);
  return o != nullptr && o->index_ == index_;
}

bool LiteralExpr::SameAs(const Expr& other) const {
  const auto* o = dynamic_cast<const LiteralExpr*>(&other);
  return o != nullptr && SameValue(o->value_, value_);
}

bool FieldAccessExpr::SameAs(const Expr& other) const {
  const auto* o = dynamic_cast<const FieldAccessExpr*>(&other);
  return o != nullptr && o->field_ == field_ && SameExpr(o->base_, base_);
}

bool CallExpr::SameAs(const Expr& other) const {
  const auto* o = dynamic_cast<const CallExpr*>(&other);
  return o != nullptr && o->def_ == def_ && o->name_ == name_ &&
         SameExprs(o->args_, args_);
}

bool RecordConstructorExpr::SameAs(const Expr& other) const {
  const auto* o = dynamic_cast<const RecordConstructorExpr*>(&other);
  return o != nullptr && o->names_ == names_ && SameExprs(o->exprs_, exprs_);
}

bool ListConstructorExpr::SameAs(const Expr& other) const {
  const auto* o = dynamic_cast<const ListConstructorExpr*>(&other);
  return o != nullptr && SameExprs(o->exprs_, exprs_);
}

Result<ExprPtr> CallExpr::Make(std::string name, std::vector<ExprPtr> args) {
  const FunctionDef* def = FunctionRegistry::Global().Find(name);
  if (def == nullptr) {
    return Status::PlanError("unknown function: " + name);
  }
  int n = static_cast<int>(args.size());
  if (n < def->min_args || n > def->max_args) {
    return Status::PlanError("function " + name + " called with " +
                             std::to_string(n) + " arguments");
  }
  return ExprPtr(new CallExpr(std::move(name), std::move(args), def));
}

std::string CallExpr::ToString() const {
  std::string out = name_ + "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  out += ")";
  return out;
}

std::string RecordConstructorExpr::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < names_.size(); ++i) {
    if (i > 0) out += ", ";
    out += names_[i] + ": " + exprs_[i]->ToString();
  }
  out += "}";
  return out;
}

std::string ListConstructorExpr::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs_[i]->ToString();
  }
  out += "]";
  return out;
}

ExprPtr Col(int index, std::string name) {
  return std::make_shared<ColumnExpr>(index, std::move(name));
}

ExprPtr Lit(adm::Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }

Result<ExprPtr> Call(std::string name, std::vector<ExprPtr> args) {
  return CallExpr::Make(std::move(name), std::move(args));
}

}  // namespace simdb::hyracks
