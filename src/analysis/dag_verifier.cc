#include "analysis/dag_verifier.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "hyracks/expr.h"
#include "hyracks/ops_basic.h"
#include "hyracks/ops_exchange.h"
#include "hyracks/ops_group.h"
#include "hyracks/ops_index.h"
#include "hyracks/ops_join.h"
#include "hyracks/ops_scan.h"

namespace simdb::analysis {

namespace {

using hyracks::AssignOp;
using hyracks::BroadcastExchangeOp;
using hyracks::BtreeSearchOp;
using hyracks::CallExpr;
using hyracks::ColumnExpr;
using hyracks::ConstantSourceOp;
using hyracks::DataScanOp;
using hyracks::ExchangeOperator;
using hyracks::Expr;
using hyracks::ExprPtr;
using hyracks::FieldAccessExpr;
using hyracks::GatherOp;
using hyracks::HashExchangeOp;
using hyracks::HashGroupOp;
using hyracks::HashJoinOp;
using hyracks::InvertedIndexSearchOp;
using hyracks::Job;
using hyracks::LimitOp;
using hyracks::ListConstructorExpr;
using hyracks::MergeGatherOp;
using hyracks::NestedLoopJoinOp;
using hyracks::PartitionOperator;
using hyracks::PrimaryLookupOp;
using hyracks::ProjectOp;
using hyracks::RankAssignOp;
using hyracks::RecordConstructorExpr;
using hyracks::SelectOp;
using hyracks::SortKey;
using hyracks::SortOp;
using hyracks::UnionAllOp;
using hyracks::UnnestOp;

Status Violation(int node, const std::string& op_name,
                 const std::string& message) {
  return Status::PlanError("dag verifier: node " + std::to_string(node) +
                           " (" + op_name + "): " + message);
}

/// Largest column index referenced by a compiled expression, -1 when none.
int MaxColumn(const Expr* e) {
  if (e == nullptr) return -1;
  if (const auto* col = dynamic_cast<const ColumnExpr*>(e)) {
    return col->index();
  }
  int max_col = -1;
  if (const auto* field = dynamic_cast<const FieldAccessExpr*>(e)) {
    max_col = MaxColumn(field->base().get());
  } else if (const auto* call = dynamic_cast<const CallExpr*>(e)) {
    for (const ExprPtr& a : call->args()) {
      max_col = std::max(max_col, MaxColumn(a.get()));
    }
  } else if (const auto* rec = dynamic_cast<const RecordConstructorExpr*>(e)) {
    for (const ExprPtr& a : rec->exprs()) {
      max_col = std::max(max_col, MaxColumn(a.get()));
    }
  } else if (const auto* list = dynamic_cast<const ListConstructorExpr*>(e)) {
    for (const ExprPtr& a : list->exprs()) {
      max_col = std::max(max_col, MaxColumn(a.get()));
    }
  }
  return max_col;
}

Status CheckExprColumns(int node, const std::string& name, const Expr* e,
                        int input_width, const char* what) {
  int max_col = MaxColumn(e);
  if (max_col >= input_width) {
    return Violation(node, name,
                     std::string(what) + " references column " +
                         std::to_string(max_col) + " of a " +
                         std::to_string(input_width) + "-column input");
  }
  return Status::OK();
}

/// How one node's output is distributed across cluster partitions, plus the
/// per-partition sort order when known. Inferred bottom-up.
struct Prop {
  enum class Kind {
    kArbitrary,    // partitioned, no usable guarantee
    kHashed,       // partition = hash of `cols` values
    kBroadcast,    // every partition holds every row
    kCoordinator,  // all rows in partition 0
  };
  Kind kind = Kind::kArbitrary;
  std::vector<int> cols;  // kHashed: hash columns, in hash order

  /// Columns known to hold pks (or records) partition-aligned with a
  /// dataset: a row in partition p carries a key of dataset partition p.
  /// (column -> dataset name)
  std::map<int, std::string> aligned;

  /// Per-partition sort order, empty when unknown.
  std::vector<SortKey> sorted;
};

bool SameKeys(const std::vector<SortKey>& prefix,
              const std::vector<SortKey>& of) {
  if (prefix.size() > of.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (prefix[i].column != of[i].column ||
        prefix[i].ascending != of[i].ascending) {
      return false;
    }
  }
  return true;
}

class JobChecker {
 public:
  JobChecker(const Job& job, const hyracks::ClusterTopology& topology)
      : job_(job), parts_(topology.total_partitions()) {}

  Status Check() {
    const auto& nodes = job_.nodes();
    if (nodes.empty()) return Status::PlanError("dag verifier: empty job");

    std::vector<std::vector<int>> edges;
    edges.reserve(nodes.size());
    for (const Job::Node& jn : nodes) edges.push_back(jn.inputs);
    SIMDB_RETURN_IF_ERROR(
        DagVerifier::VerifyEdges(static_cast<int>(nodes.size()), edges));

    std::vector<int> consumers(nodes.size(), 0);
    for (const Job::Node& jn : nodes) {
      for (int in : jn.inputs) ++consumers[static_cast<size_t>(in)];
    }
    for (size_t i = 0; i + 1 < nodes.size(); ++i) {
      if (consumers[i] == 0) {
        return Violation(static_cast<int>(i), nodes[i].op->name(),
                         "output is never consumed");
      }
    }

    props_.resize(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      SIMDB_RETURN_IF_ERROR(CheckNode(static_cast<int>(i)));
    }

    if (parts_ > 1 && props_.back().kind == Prop::Kind::kBroadcast) {
      return Violation(static_cast<int>(nodes.size()) - 1,
                       nodes.back().op->name(),
                       "job root is broadcast: results would be duplicated");
    }

    return DagVerifier::VerifySteals(job_,
                                     hyracks::Executor::PlannedSteals(job_));
  }

 private:
  int Width(int id) const {
    return static_cast<int>(job_.schema(id).size());
  }

  Status WidthIs(int node, const std::string& name, int declared,
                 int expected) {
    if (declared != expected) {
      return Violation(node, name,
                       "declared schema has " + std::to_string(declared) +
                           " columns, operator produces " +
                           std::to_string(expected));
    }
    return Status::OK();
  }

  /// An exchange, union, or gather consuming a broadcast input would emit
  /// every row once per source partition.
  Status NotBroadcast(int node, const std::string& name, int input) {
    if (parts_ > 1 && props_[static_cast<size_t>(input)].kind ==
                          Prop::Kind::kBroadcast) {
      return Violation(node, name,
                       "consumes the broadcast output of node " +
                           std::to_string(input) +
                           ": rows would be duplicated");
    }
    return Status::OK();
  }

  Status CheckNode(int i) {
    const Job::Node& jn = job_.nodes()[static_cast<size_t>(i)];
    const hyracks::Operator* op = jn.op.get();
    const std::string name = op->name();
    const int width = Width(i);
    Prop& out = props_[static_cast<size_t>(i)];

    if (const auto* pop = dynamic_cast<const PartitionOperator*>(op)) {
      Status arity = pop->ValidateInputArity(jn.inputs.size());
      if (!arity.ok()) return Violation(i, name, arity.message());
    }
    if (dynamic_cast<const ExchangeOperator*>(op) != nullptr &&
        jn.inputs.size() != 1) {
      return Violation(i, name, "exchange expects exactly one input, has " +
                                    std::to_string(jn.inputs.size()));
    }

    auto in_width = [&](size_t k) { return Width(jn.inputs[k]); };
    auto in_prop = [&](size_t k) -> const Prop& {
      return props_[static_cast<size_t>(jn.inputs[k])];
    };

    if (const auto* scan = dynamic_cast<const DataScanOp*>(op)) {
      (void)scan;
      SIMDB_RETURN_IF_ERROR(WidthIs(i, name, width, 1));
      return Status::OK();  // dataset-partitioned records; no pk column
    }
    if (dynamic_cast<const ConstantSourceOp*>(op) != nullptr) {
      out.kind = Prop::Kind::kCoordinator;
      return Status::OK();
    }
    if (const auto* select = dynamic_cast<const SelectOp*>(op)) {
      SIMDB_RETURN_IF_ERROR(WidthIs(i, name, width, in_width(0)));
      SIMDB_RETURN_IF_ERROR(CheckExprColumns(
          i, name, select->predicate().get(), in_width(0), "predicate"));
      out = in_prop(0);
      return Status::OK();
    }
    if (const auto* assign = dynamic_cast<const AssignOp*>(op)) {
      SIMDB_RETURN_IF_ERROR(WidthIs(
          i, name, width,
          in_width(0) + static_cast<int>(assign->exprs().size())));
      for (const ExprPtr& e : assign->exprs()) {
        SIMDB_RETURN_IF_ERROR(
            CheckExprColumns(i, name, e.get(), in_width(0), "expression"));
      }
      out = in_prop(0);
      return Status::OK();
    }
    if (const auto* project = dynamic_cast<const ProjectOp*>(op)) {
      SIMDB_RETURN_IF_ERROR(WidthIs(
          i, name, width, static_cast<int>(project->columns().size())));
      for (int c : project->columns()) {
        if (c < 0 || c >= in_width(0)) {
          return Violation(i, name,
                           "projects column " + std::to_string(c) + " of a " +
                               std::to_string(in_width(0)) +
                               "-column input");
        }
      }
      const Prop& in = in_prop(0);
      out.kind = in.kind;
      // Remap surviving columns; a dropped hash column demotes the property
      // (the guarantee still holds physically but is no longer expressible).
      std::map<int, int> remap;
      for (size_t k = 0; k < project->columns().size(); ++k) {
        remap.emplace(project->columns()[k], static_cast<int>(k));
      }
      if (in.kind == Prop::Kind::kHashed) {
        for (int c : in.cols) {
          auto it = remap.find(c);
          if (it == remap.end()) {
            out.kind = Prop::Kind::kArbitrary;
            out.cols.clear();
            break;
          }
          out.cols.push_back(it->second);
        }
      }
      for (const auto& [c, ds] : in.aligned) {
        auto it = remap.find(c);
        if (it != remap.end()) out.aligned[it->second] = ds;
      }
      for (const SortKey& k : in.sorted) {
        auto it = remap.find(k.column);
        if (it == remap.end()) break;  // order known only up to a lost column
        out.sorted.push_back({it->second, k.ascending});
      }
      return Status::OK();
    }
    if (const auto* sort = dynamic_cast<const SortOp*>(op)) {
      SIMDB_RETURN_IF_ERROR(WidthIs(i, name, width, in_width(0)));
      for (const SortKey& k : sort->keys()) {
        if (k.column < 0 || k.column >= in_width(0)) {
          return Violation(i, name,
                           "sorts on column " + std::to_string(k.column) +
                               " of a " + std::to_string(in_width(0)) +
                               "-column input");
        }
      }
      out = in_prop(0);
      out.sorted = sort->keys();
      return Status::OK();
    }
    if (const auto* unnest = dynamic_cast<const UnnestOp*>(op)) {
      SIMDB_RETURN_IF_ERROR(WidthIs(
          i, name, width, in_width(0) + (unnest->with_position() ? 2 : 1)));
      SIMDB_RETURN_IF_ERROR(CheckExprColumns(
          i, name, unnest->list_expr().get(), in_width(0), "list"));
      out = in_prop(0);
      return Status::OK();
    }
    if (dynamic_cast<const UnionAllOp*>(op) != nullptr) {
      bool all_coordinator = true;
      for (size_t k = 0; k < jn.inputs.size(); ++k) {
        SIMDB_RETURN_IF_ERROR(NotBroadcast(i, name, jn.inputs[k]));
        if (in_width(k) != width) {
          return Violation(i, name,
                           "input " + std::to_string(k) + " has " +
                               std::to_string(in_width(k)) +
                               " columns, union schema has " +
                               std::to_string(width));
        }
        all_coordinator =
            all_coordinator && in_prop(k).kind == Prop::Kind::kCoordinator;
      }
      if (all_coordinator) out.kind = Prop::Kind::kCoordinator;
      // Aligned columns survive when every branch agrees.
      out.aligned = in_prop(0).aligned;
      for (size_t k = 1; k < jn.inputs.size() && !out.aligned.empty(); ++k) {
        std::map<int, std::string> kept;
        for (const auto& [c, ds] : out.aligned) {
          auto it = in_prop(k).aligned.find(c);
          if (it != in_prop(k).aligned.end() && it->second == ds) {
            kept.emplace(c, ds);
          }
        }
        out.aligned = std::move(kept);
      }
      return Status::OK();
    }
    if (dynamic_cast<const RankAssignOp*>(op) != nullptr) {
      SIMDB_RETURN_IF_ERROR(WidthIs(i, name, width, in_width(0) + 1));
      if (parts_ > 1 && in_prop(0).kind != Prop::Kind::kCoordinator) {
        return Violation(i, name,
                         "requires a gathered input (all rows in the "
                         "coordinator partition)");
      }
      out = in_prop(0);
      out.kind = Prop::Kind::kCoordinator;
      return Status::OK();
    }
    if (dynamic_cast<const LimitOp*>(op) != nullptr) {
      SIMDB_RETURN_IF_ERROR(WidthIs(i, name, width, in_width(0)));
      out = in_prop(0);
      if (out.kind == Prop::Kind::kBroadcast) out.kind = Prop::Kind::kArbitrary;
      return Status::OK();
    }
    if (const auto* join = dynamic_cast<const HashJoinOp*>(op)) {
      int lw = in_width(0), rw = in_width(1);
      SIMDB_RETURN_IF_ERROR(WidthIs(i, name, width, lw + rw));
      for (int c : join->left_keys()) {
        if (c < 0 || c >= lw) {
          return Violation(i, name, "left key column " + std::to_string(c) +
                                        " out of range");
        }
      }
      for (int c : join->right_keys()) {
        if (c < 0 || c >= rw) {
          return Violation(i, name, "right key column " + std::to_string(c) +
                                        " out of range");
        }
      }
      SIMDB_RETURN_IF_ERROR(CheckExprColumns(
          i, name, join->residual().get(), lw + rw, "residual"));
      return CheckJoinPlacement(i, name, jn, join->left_keys(),
                                join->right_keys());
    }
    if (const auto* nl = dynamic_cast<const NestedLoopJoinOp*>(op)) {
      int lw = in_width(0), rw = in_width(1);
      SIMDB_RETURN_IF_ERROR(WidthIs(i, name, width, lw + rw));
      SIMDB_RETURN_IF_ERROR(CheckExprColumns(
          i, name, nl->predicate().get(), lw + rw, "predicate"));
      return CheckJoinPlacement(i, name, jn, {}, {});
    }
    if (const auto* group = dynamic_cast<const HashGroupOp*>(op)) {
      SIMDB_RETURN_IF_ERROR(WidthIs(
          i, name, width,
          static_cast<int>(group->key_exprs().size() + group->aggs().size())));
      std::vector<int> key_cols;
      bool plain_columns = true;
      for (const ExprPtr& k : group->key_exprs()) {
        SIMDB_RETURN_IF_ERROR(
            CheckExprColumns(i, name, k.get(), in_width(0), "group key"));
        if (const auto* col = dynamic_cast<const ColumnExpr*>(k.get())) {
          key_cols.push_back(col->index());
        } else {
          plain_columns = false;
        }
      }
      for (const auto& agg : group->aggs()) {
        SIMDB_RETURN_IF_ERROR(
            CheckExprColumns(i, name, agg.input.get(), in_width(0),
                             "aggregate input"));
      }
      const Prop& in = in_prop(0);
      if (parts_ > 1 && in.kind != Prop::Kind::kCoordinator) {
        // Equal keys must meet in one partition; a broadcast input would
        // additionally aggregate every row once per partition.
        if (in.kind != Prop::Kind::kHashed || !plain_columns ||
            in.cols != key_cols) {
          return Violation(i, name,
                           "input is not hash-partitioned on the grouping "
                           "keys");
        }
      }
      if (in.kind == Prop::Kind::kCoordinator) {
        out.kind = Prop::Kind::kCoordinator;
      } else if (plain_columns) {
        // Output columns are keys first: the hash placement is expressible
        // over the new positions.
        out.kind = Prop::Kind::kHashed;
        for (size_t k = 0; k < key_cols.size(); ++k) {
          out.cols.push_back(static_cast<int>(k));
        }
      }
      return Status::OK();
    }
    if (const auto* search = dynamic_cast<const InvertedIndexSearchOp*>(op)) {
      SIMDB_RETURN_IF_ERROR(WidthIs(i, name, width, in_width(0) + 1));
      SIMDB_RETURN_IF_ERROR(CheckExprColumns(
          i, name, search->key_expr().get(), in_width(0), "search key"));
      if (parts_ > 1 && in_prop(0).kind != Prop::Kind::kBroadcast) {
        return Violation(i, name,
                         "probes only the local index partition: the input "
                         "must be broadcast");
      }
      out.aligned[width - 1] = search->dataset();
      return Status::OK();
    }
    if (const auto* search = dynamic_cast<const BtreeSearchOp*>(op)) {
      SIMDB_RETURN_IF_ERROR(WidthIs(i, name, width, in_width(0) + 1));
      SIMDB_RETURN_IF_ERROR(CheckExprColumns(
          i, name, search->key_expr().get(), in_width(0), "search key"));
      if (parts_ > 1 && in_prop(0).kind != Prop::Kind::kBroadcast) {
        return Violation(i, name,
                         "probes only the local index partition: the input "
                         "must be broadcast");
      }
      out.aligned[width - 1] = search->dataset();
      return Status::OK();
    }
    if (const auto* lookup = dynamic_cast<const PrimaryLookupOp*>(op)) {
      SIMDB_RETURN_IF_ERROR(WidthIs(i, name, width, in_width(0) + 1));
      if (lookup->pk_column() < 0 || lookup->pk_column() >= in_width(0)) {
        return Violation(i, name,
                         "pk column " + std::to_string(lookup->pk_column()) +
                             " out of range");
      }
      const Prop& in = in_prop(0);
      if (parts_ > 1) {
        auto it = in.aligned.find(lookup->pk_column());
        if (it == in.aligned.end() || it->second != lookup->dataset()) {
          return Violation(i, name,
                           "pk column " +
                               std::to_string(lookup->pk_column()) +
                               " is not partition-aligned with dataset " +
                               lookup->dataset() +
                               ": local lookups would drop rows");
        }
      }
      out = in;
      out.aligned[width - 1] = lookup->dataset();
      return Status::OK();
    }
    if (const auto* hash = dynamic_cast<const HashExchangeOp*>(op)) {
      SIMDB_RETURN_IF_ERROR(WidthIs(i, name, width, in_width(0)));
      SIMDB_RETURN_IF_ERROR(NotBroadcast(i, name, jn.inputs[0]));
      for (int c : hash->key_columns()) {
        if (c < 0 || c >= in_width(0)) {
          return Violation(i, name, "hash key column " + std::to_string(c) +
                                        " out of range");
        }
      }
      out.kind = Prop::Kind::kHashed;
      out.cols = hash->key_columns();
      return Status::OK();
    }
    if (dynamic_cast<const BroadcastExchangeOp*>(op) != nullptr) {
      SIMDB_RETURN_IF_ERROR(WidthIs(i, name, width, in_width(0)));
      SIMDB_RETURN_IF_ERROR(NotBroadcast(i, name, jn.inputs[0]));
      out.kind = Prop::Kind::kBroadcast;
      return Status::OK();
    }
    if (const auto* merge = dynamic_cast<const MergeGatherOp*>(op)) {
      SIMDB_RETURN_IF_ERROR(WidthIs(i, name, width, in_width(0)));
      SIMDB_RETURN_IF_ERROR(NotBroadcast(i, name, jn.inputs[0]));
      for (const SortKey& k : merge->keys()) {
        if (k.column < 0 || k.column >= in_width(0)) {
          return Violation(i, name,
                           "merges on column " + std::to_string(k.column) +
                               " out of range");
        }
      }
      if (!SameKeys(merge->keys(), in_prop(0).sorted)) {
        return Violation(i, name,
                         "input partitions are not sorted on the merge keys");
      }
      out.kind = Prop::Kind::kCoordinator;
      out.sorted = merge->keys();
      return Status::OK();
    }
    if (dynamic_cast<const GatherOp*>(op) != nullptr) {
      SIMDB_RETURN_IF_ERROR(WidthIs(i, name, width, in_width(0)));
      SIMDB_RETURN_IF_ERROR(NotBroadcast(i, name, jn.inputs[0]));
      out.kind = Prop::Kind::kCoordinator;
      return Status::OK();
    }
    // Operator type unknown to the verifier (tests, external subclasses):
    // no schema or placement claims to check.
    return Status::OK();
  }

  /// Placement legality shared by hash and nested-loop joins: one side
  /// broadcast (full pairing without duplication), both sides co-hashed on
  /// the join keys (hash join only), both gathered, or a single partition.
  Status CheckJoinPlacement(int i, const std::string& name,
                            const Job::Node& jn,
                            const std::vector<int>& left_keys,
                            const std::vector<int>& right_keys) {
    const Prop& left = props_[static_cast<size_t>(jn.inputs[0])];
    const Prop& right = props_[static_cast<size_t>(jn.inputs[1])];
    Prop& out = props_[static_cast<size_t>(i)];
    int lw = Width(jn.inputs[0]);

    bool left_b = left.kind == Prop::Kind::kBroadcast;
    bool right_b = right.kind == Prop::Kind::kBroadcast;
    if (parts_ > 1) {
      if (left_b && right_b) {
        return Violation(i, name,
                         "both inputs are broadcast: every partition would "
                         "emit every pair");
      }
      bool cohashed = !left_keys.empty() &&
                      left.kind == Prop::Kind::kHashed &&
                      right.kind == Prop::Kind::kHashed &&
                      left.cols == left_keys && right.cols == right_keys;
      bool gathered = left.kind == Prop::Kind::kCoordinator &&
                      right.kind == Prop::Kind::kCoordinator;
      if (!left_b && !right_b && !cohashed && !gathered) {
        return Violation(i, name,
                         "inputs are neither co-partitioned on the join keys "
                         "nor broadcast: matches would be missed");
      }
    }

    if (right_b) {
      // Left rows stay in place: left placement facts survive.
      out.kind = left.kind;
      out.cols = left.cols;
      out.aligned = left.aligned;
    } else if (left_b) {
      out.kind = right.kind;
      out.cols.clear();
      for (int c : right.cols) out.cols.push_back(lw + c);
      for (const auto& [c, ds] : right.aligned) out.aligned[lw + c] = ds;
    } else if (left.kind == Prop::Kind::kCoordinator &&
               right.kind == Prop::Kind::kCoordinator) {
      out.kind = Prop::Kind::kCoordinator;
    } else if (left.kind == Prop::Kind::kHashed && !left_keys.empty()) {
      out.kind = Prop::Kind::kHashed;
      out.cols = left.cols;
    }
    return Status::OK();
  }

  const Job& job_;
  int parts_;
  std::vector<Prop> props_;
};

}  // namespace

Status DagVerifier::Verify(const hyracks::Job& job,
                           const hyracks::ClusterTopology& topology) {
  return JobChecker(job, topology).Check();
}

Status DagVerifier::VerifyEdges(int num_nodes,
                                const std::vector<std::vector<int>>& inputs) {
  if (static_cast<int>(inputs.size()) != num_nodes) {
    return Status::PlanError("dag verifier: " + std::to_string(inputs.size()) +
                             " edge lists for " + std::to_string(num_nodes) +
                             " nodes");
  }
  for (int i = 0; i < num_nodes; ++i) {
    for (int in : inputs[static_cast<size_t>(i)]) {
      if (in < 0 || in >= num_nodes) {
        return Status::PlanError("dag verifier: node " + std::to_string(i) +
                                 ": input " + std::to_string(in) +
                                 " does not exist");
      }
      if (in >= i) {
        return Status::PlanError(
            "dag verifier: node " + std::to_string(i) + ": input " +
            std::to_string(in) +
            " is not an earlier node (cycle or forward edge)");
      }
    }
  }
  return Status::OK();
}

Status DagVerifier::VerifySteals(const hyracks::Job& job,
                                 const std::vector<bool>& steals) {
  const auto& nodes = job.nodes();
  if (steals.size() != nodes.size()) {
    return Status::PlanError("dag verifier: steal plan covers " +
                             std::to_string(steals.size()) + " of " +
                             std::to_string(nodes.size()) + " nodes");
  }
  std::vector<int> consumers(nodes.size(), 0);
  for (const Job::Node& jn : nodes) {
    for (int in : jn.inputs) ++consumers[static_cast<size_t>(in)];
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!steals[i]) continue;
    const Job::Node& jn = nodes[i];
    const std::string name = jn.op->name();
    if (dynamic_cast<const hyracks::ExchangeOperator*>(jn.op.get()) ==
        nullptr) {
      return Violation(static_cast<int>(i), name,
                       "steals tuples but is not an exchange");
    }
    if (jn.inputs.size() != 1) {
      return Violation(static_cast<int>(i), name,
                       "steals tuples without a single input");
    }
    int in = jn.inputs[0];
    if (consumers[static_cast<size_t>(in)] != 1) {
      return Violation(
          static_cast<int>(i), name,
          "steals the output of node " + std::to_string(in) + " which has " +
              std::to_string(consumers[static_cast<size_t>(in)]) +
              " consumers");
    }
  }
  return Status::OK();
}

}  // namespace simdb::analysis
