#ifndef SIMDB_HYRACKS_EXPR_H_
#define SIMDB_HYRACKS_EXPR_H_

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "adm/value.h"
#include "common/result.h"
#include "hyracks/functions.h"
#include "hyracks/tuple.h"

namespace simdb::hyracks {

/// A compiled row-level expression. Column references are positional; the
/// job generator resolves logical variable names to positions when building
/// operators.
class Expr {
 public:
  virtual ~Expr() = default;
  virtual Result<adm::Value> Eval(Row row) const = 0;
  virtual std::string ToString() const = 0;
  /// True when `other` has the same structure: the same column positions,
  /// literals of the same type and value, field names and function names.
  /// Column names are labels and are not compared. Two such expressions
  /// yield the same value, or the same error, on every row (functions are
  /// pure).
  virtual bool SameAs(const Expr& other) const = 0;
};

using ExprPtr = std::shared_ptr<const Expr>;

/// SameAs over possibly null expressions (a missing residual, a count's
/// input): both null, or both set and the same.
bool SameExpr(const ExprPtr& a, const ExprPtr& b);
bool SameExprs(const std::vector<ExprPtr>& a, const std::vector<ExprPtr>& b);

class ColumnExpr : public Expr {
 public:
  ColumnExpr(int index, std::string name)
      : index_(index), name_(std::move(name)) {}

  Result<adm::Value> Eval(Row row) const override {
    if (index_ < 0 || static_cast<size_t>(index_) >= row.size()) {
      return Status::Internal("column index " + std::to_string(index_) +
                              " out of range for tuple of " +
                              std::to_string(row.size()));
    }
    return row[static_cast<size_t>(index_)];
  }

  std::string ToString() const override {
    return "$" + name_ + "@" + std::to_string(index_);
  }
  bool SameAs(const Expr& other) const override;

  int index() const { return index_; }

 private:
  int index_;
  std::string name_;
};

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(adm::Value value) : value_(std::move(value)) {}

  Result<adm::Value> Eval(Row) const override { return value_; }
  std::string ToString() const override { return value_.ToJson(); }
  bool SameAs(const Expr& other) const override;
  const adm::Value& value() const { return value_; }

 private:
  adm::Value value_;
};

class FieldAccessExpr : public Expr {
 public:
  FieldAccessExpr(ExprPtr base, std::string field)
      : base_(std::move(base)), field_(std::move(field)) {}

  Result<adm::Value> Eval(Row row) const override {
    SIMDB_ASSIGN_OR_RETURN(adm::Value base, base_->Eval(row));
    return base.GetField(field_);
  }

  std::string ToString() const override {
    return base_->ToString() + "." + field_;
  }
  bool SameAs(const Expr& other) const override;

  const ExprPtr& base() const { return base_; }
  const std::string& field() const { return field_; }

 private:
  ExprPtr base_;
  std::string field_;
};

class CallExpr : public Expr {
 public:
  /// Resolves `name` against the global registry and validates arity.
  static Result<ExprPtr> Make(std::string name, std::vector<ExprPtr> args);

  /// Arguments are evaluated left to right, so the first error raised is
  /// that of the leftmost failing argument. Up to kInlineArgs of them live
  /// on the stack; only n-ary calls (`and`/`or`) allocate.
  Result<adm::Value> Eval(Row row) const override {
    if (args_.size() <= kInlineArgs) {
      std::array<adm::Value, kInlineArgs> values;
      for (size_t i = 0; i < args_.size(); ++i) {
        SIMDB_ASSIGN_OR_RETURN(values[i], args_[i]->Eval(row));
      }
      return def_->fn(std::span<const adm::Value>(values.data(), args_.size()));
    }
    std::vector<adm::Value> values;
    values.reserve(args_.size());
    for (const ExprPtr& arg : args_) {
      SIMDB_ASSIGN_OR_RETURN(adm::Value v, arg->Eval(row));
      values.push_back(std::move(v));
    }
    return def_->fn(values);
  }

  std::string ToString() const override;
  bool SameAs(const Expr& other) const override;

  const std::string& name() const { return name_; }
  const std::vector<ExprPtr>& args() const { return args_; }

 private:
  CallExpr(std::string name, std::vector<ExprPtr> args, const FunctionDef* def)
      : name_(std::move(name)), args_(std::move(args)), def_(def) {}

  static constexpr size_t kInlineArgs = 4;

  std::string name_;
  std::vector<ExprPtr> args_;
  const FunctionDef* def_;
};

/// Constructs a record value {name1: e1, ...}.
class RecordConstructorExpr : public Expr {
 public:
  RecordConstructorExpr(std::vector<std::string> names,
                        std::vector<ExprPtr> exprs)
      : names_(std::move(names)), exprs_(std::move(exprs)) {}

  Result<adm::Value> Eval(Row row) const override {
    adm::Value::Object fields;
    fields.reserve(names_.size());
    for (size_t i = 0; i < names_.size(); ++i) {
      SIMDB_ASSIGN_OR_RETURN(adm::Value v, exprs_[i]->Eval(row));
      fields.emplace_back(names_[i], std::move(v));
    }
    return adm::Value::MakeObject(std::move(fields));
  }

  std::string ToString() const override;
  bool SameAs(const Expr& other) const override;

  const std::vector<std::string>& names() const { return names_; }
  const std::vector<ExprPtr>& exprs() const { return exprs_; }

 private:
  std::vector<std::string> names_;
  std::vector<ExprPtr> exprs_;
};

/// Constructs a list value [e1, e2, ...].
class ListConstructorExpr : public Expr {
 public:
  explicit ListConstructorExpr(std::vector<ExprPtr> exprs)
      : exprs_(std::move(exprs)) {}

  Result<adm::Value> Eval(Row row) const override {
    adm::Value::Array items;
    items.reserve(exprs_.size());
    for (const ExprPtr& e : exprs_) {
      SIMDB_ASSIGN_OR_RETURN(adm::Value v, e->Eval(row));
      items.push_back(std::move(v));
    }
    return adm::Value::MakeArray(std::move(items));
  }

  std::string ToString() const override;
  bool SameAs(const Expr& other) const override;

  const std::vector<ExprPtr>& exprs() const { return exprs_; }

 private:
  std::vector<ExprPtr> exprs_;
};

/// Convenience helpers used throughout plan generation.
ExprPtr Col(int index, std::string name);
ExprPtr Lit(adm::Value v);
Result<ExprPtr> Call(std::string name, std::vector<ExprPtr> args);

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_EXPR_H_
