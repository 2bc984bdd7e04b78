#ifndef SIMDB_ALGEBRICKS_RULES_H_
#define SIMDB_ALGEBRICKS_RULES_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "algebricks/lop.h"
#include "common/result.h"
#include "storage/catalog.h"

namespace simdb::algebricks {

class RewriteRule;

/// Machine-checkable contract a rewrite rule declares about itself. In
/// verify mode (`EngineOptions::verify_plans`) a `PlanCheckHook` installed in
/// the `OptContext` re-checks the contract after every application and runs
/// the full plan verifier, reporting the offending rule, the seed plan, and a
/// minimized diff on the first violation.
struct RuleContract {
  /// Every variable visible at the rewritten edge before the rewrite is
  /// still visible after it (as a set; rules may add helper variables).
  bool preserves_output_vars = true;
  /// The rule only rewrites expressions in place: the matched node keeps its
  /// identity, kind, and input wiring.
  bool expression_only = false;
  /// Operator kinds the rewrite may introduce. Kinds already present in the
  /// matched subtree are always allowed.
  std::vector<LOpKind> may_introduce;
  /// The rule consults the catalog and must not fire without one.
  bool needs_catalog = false;
  /// The rule may mutate a node that is shared with another parent (subplan
  /// reuse) because its rewrite is output-equivalent for every parent (e.g.
  /// select pushdown below a join). Rules without this bit must not change
  /// any shared node: the checker compares shared subtrees before/after.
  bool shared_mutation_safe = false;
};

/// Verification callback wrapped around every rule application by
/// `ApplyRuleSet`. Implemented by `analysis::RuleContractChecker`; declared
/// here so algebricks does not depend on the analysis library.
class PlanCheckHook {
 public:
  virtual ~PlanCheckHook() = default;
  /// Called before `rule` attempts the edge `op` of the plan `root`.
  virtual void BeforeApply(const RewriteRule& rule, const LOpPtr& op,
                           const LOpPtr& root) = 0;
  /// Called after the attempt; `fired` says whether the rule reported a
  /// change. A non-OK status aborts optimization with the rule's name and a
  /// plan diff in the message.
  virtual Status AfterApply(const RewriteRule& rule, const LOpPtr& op,
                            const LOpPtr& root, bool fired) = 0;
  /// Called after a whole-plan rewrite (e.g. count-listify) fired.
  virtual Status AfterGlobalRewrite(const std::string& name,
                                    const LOpPtr& root) = 0;
};

/// Session + engine state visible to rewrite rules. The feature flags allow
/// benchmarks to ablate individual optimizations (paper Section 5.4).
struct OptContext {
  storage::Catalog* catalog = nullptr;

  // `set simfunction` / `set simthreshold` session parameters (paper §3.2).
  std::string sim_function_alias = "jaccard";
  double sim_threshold = 0.5;

  // Optimization feature flags (ablation knobs for paper Section 5.4).
  bool enable_index_select = true;
  bool enable_index_join = true;
  bool enable_three_stage_join = true;
  bool enable_surrogate_join = true;
  /// Figure 20's materialize/reuse: the three-stage join shares each input
  /// subtree across its stages, and the job generator merges equal job
  /// nodes (algebricks/jobgen.h). Off, each stage compiles a clone and no
  /// node merges.
  bool enable_subplan_reuse = true;

  /// Names of rules that fired, in order (for explain output and tests).
  std::vector<std::string> fired_rules;

  /// Verification hook run around every rule application (verify mode);
  /// null when verification is off.
  PlanCheckHook* check_hook = nullptr;

  /// Nodes with more than one parent in the current plan (subplan reuse),
  /// maintained by `ApplyRuleSet` while a rule set runs. Rules whose rewrite
  /// is not output-equivalent for every parent (e.g. merging an outer
  /// select's condition into a child join) must skip shared nodes.
  const std::unordered_set<const LOp*>* shared_nodes = nullptr;
  bool IsShared(const LOp* node) const {
    return shared_nodes != nullptr && shared_nodes->count(node) > 0;
  }

  /// Time spent generating plans through the AQL+ framework (template
  /// instantiation + re-parse + re-translate), for the Section 6.4.1
  /// compile-overhead measurement.
  double aqlplus_seconds = 0;
};

/// A rewrite rule applied node-by-node, top-down. `op` is a reference to the
/// edge pointing at the node, so a rule can replace the whole subtree.
class RewriteRule {
 public:
  virtual ~RewriteRule() = default;
  virtual std::string name() const = 0;
  virtual Result<bool> Apply(LOpPtr& op, OptContext& ctx) = 0;
  /// The contract this rule promises to uphold (checked in verify mode).
  virtual RuleContract contract() const { return {}; }
};

/// Computes the set of nodes reachable from `root` through more than one
/// parent edge (shared subplans).
std::unordered_set<const LOp*> CollectSharedNodes(const LOpPtr& root);

/// An ordered group of rules applied to a fixpoint (bounded by
/// `max_iterations` full passes), mirroring Algebricks' sequential rule sets.
struct RuleSet {
  std::string name;
  std::vector<std::shared_ptr<RewriteRule>> rules;
  int max_iterations = 8;
};

/// Applies one rule set over the whole plan (DAG-aware: shared nodes are
/// visited once per pass). Returns whether anything changed.
Result<bool> ApplyRuleSet(LOpPtr& root, const RuleSet& set, OptContext& ctx);

// ---- generic (non-similarity) rules, as in stock Algebricks ----

/// SELECT over JOIN: merge the selection condition into the join condition.
std::shared_ptr<RewriteRule> MakePushSelectIntoJoinRule();

/// Conjuncts of a JOIN condition that reference only one branch's variables
/// are pushed into a SELECT on that branch.
std::shared_ptr<RewriteRule> MakePushSelectBelowJoinRule();

/// Drops SELECT(true) nodes left behind by other rewrites.
std::shared_ptr<RewriteRule> MakeRemoveTrivialSelectRule();

/// GROUP-BY listify aggregates whose output is only ever used inside
/// count()/len() become count aggregates (the paper's hash-group count path;
/// avoids materializing per-group lists when ranking tokens by frequency).
/// Applied as a whole-plan pass because it needs global variable usage.
Result<bool> ApplyCountListifyRewrite(LOpPtr& root, OptContext& ctx);

/// Records an ASSIGN builds and that are read only by field (`$v.f` with a
/// constant f) or listed in a PROJECT are never built: each read field gets
/// its own variable, bound at the same ASSIGN to that field's expression,
/// `$v.f` reads it (a field the constructor lacks reads MISSING), and each
/// PROJECT lists the field variables instead of `$v`. A variable stays whole
/// when it is read whole anywhere, named by a UNION-ALL, used as a pk
/// variable or in the root's output, or when its constructor repeats a
/// field name or has an unread field that calls a function (dropping the
/// call could hide its error). Applied as a whole-plan pass, after the
/// rule sets, because it needs global variable usage.
Result<bool> ApplySplitRecordRewrite(LOpPtr& root, OptContext& ctx);

}  // namespace simdb::algebricks

#endif  // SIMDB_ALGEBRICKS_RULES_H_
