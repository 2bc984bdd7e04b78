#ifndef SIMDB_ALGEBRICKS_JOBGEN_H_
#define SIMDB_ALGEBRICKS_JOBGEN_H_

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebricks/lop.h"
#include "common/result.h"
#include "hyracks/exec.h"
#include "hyracks/expr.h"

namespace simdb::algebricks {

/// Compiles a logical expression against a variable -> column mapping.
Result<hyracks::ExprPtr> CompileLExpr(const LExprPtr& expr,
                                      const std::map<std::string, int>& vars);

/// Evaluates a variable-free logical expression at plan time (used for
/// compile-time constant analysis, e.g. the edit-distance corner-case check
/// of paper Section 5.1.1).
Result<adm::Value> EvaluateConstant(const LExprPtr& expr);

/// Lowers an optimized logical plan into a hyracks Job: picks physical
/// operators, inserts exchange connectors (hash repartition / broadcast /
/// merge), compiles variable-based expressions to positional ones, and shares
/// the compiled form of LOp nodes referenced by several parents (REPLICATE /
/// materialize-reuse, paper Figure 20).
///
/// With `merge_equal_nodes` (OptContext::enable_subplan_reuse) a new node is
/// also merged into an existing one of the same operator kind with the same
/// input node ids and the same parameters (Operator::SameAs: column indexes,
/// expressions with typed literals, keys and their direction, dataset
/// names), so equal subplans reached through different logical operators,
/// such as the two sides of a self-join, run once. Variable names are not
/// compared: each logical operator keeps its own variable -> column map on
/// the shared node, whose schema names the first one's variables.
///
/// Every exchange ships only live columns: before adding one, the generator
/// projects its input to the variables some operator above reads plus the
/// key columns the exchange and its consumer use. PROJECT and UNION-ALL keep
/// only their live variables, and a listify or count aggregate nothing
/// reads is not computed (neither kind can raise an error).
class JobGenerator {
 public:
  explicit JobGenerator(bool merge_equal_nodes = true)
      : merge_equal_nodes_(merge_equal_nodes) {}

  /// Compiles `root`; the job's final node gathers results at partition 0
  /// (the coordinator). On success the job is moved into `*out`.
  Status Generate(const LOpPtr& root, hyracks::Job* out);

 private:
  /// A compiled subplan: its job node plus the var -> column mapping.
  struct Compiled {
    int node = -1;
    std::map<std::string, int> vars;
    int width = 0;
  };

  Result<Compiled> Compile(const LOpPtr& op);
  Result<Compiled> CompileJoin(const LOpPtr& op);

  /// Fills `live_`: for each node, the variables some parent reads from its
  /// output (the union over parents for a shared node). The root's output
  /// variables are live.
  Status ComputeLiveness(const LOpPtr& root);
  const std::set<std::string>& Live(const LOp* op) const;
  /// A PROJECT's or UNION-ALL's variables that a parent reads: the columns
  /// its PROJECTs keep, so an exchange above finds nothing more to drop.
  std::vector<std::string> LiveProjectVars(const LOp& op) const;

  /// Projects `plan` to the columns of the variables in `keep` plus
  /// `*key_cols`, when that drops a column, and remaps `*key_cols` to their
  /// new positions. Called right before an exchange is added.
  void Narrow(Compiled* plan, const std::set<std::string>& keep,
              std::vector<int>* key_cols);

  Result<hyracks::ExprPtr> CompileExpr(const LExprPtr& expr,
                                       const std::map<std::string, int>& vars);

  /// Ensures `exprs` are available as columns, appending an AssignOp when an
  /// expression is not already a plain variable column. Returns the columns.
  Result<std::vector<int>> MaterializeColumns(
      Compiled* plan, const std::vector<LExprPtr>& exprs,
      const std::string& label);

  hyracks::RowSchema SchemaOf(const Compiled& c) const;

  /// Adds `op` over `inputs`, or returns the id of an existing node it
  /// merges into (see the class comment).
  int AddNode(std::unique_ptr<hyracks::Operator> op, std::vector<int> inputs,
              hyracks::RowSchema schema);

  bool merge_equal_nodes_;
  hyracks::Job job_;
  std::unordered_map<const LOp*, Compiled> cache_;
  std::unordered_map<const LOp*, std::set<std::string>> live_;
  /// The merge candidates: [0] lists the source nodes, [n + 1] the nodes
  /// whose first input is node n.
  std::vector<std::vector<int>> by_first_input_;
};

}  // namespace simdb::algebricks

#endif  // SIMDB_ALGEBRICKS_JOBGEN_H_
