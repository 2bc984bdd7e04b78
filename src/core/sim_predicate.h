#ifndef SIMDB_CORE_SIM_PREDICATE_H_
#define SIMDB_CORE_SIM_PREDICATE_H_

#include <optional>
#include <set>
#include <string>

#include "algebricks/lexpr.h"
#include "algebricks/lop.h"
#include "hyracks/ops_index.h"
#include "similarity/index_compat.h"

namespace simdb::core {

/// A recognized similarity conjunct within a SELECT or JOIN condition.
struct SimPredicate {
  enum class Fn { kJaccard, kEditDistance, kContains };
  Fn fn = Fn::kJaccard;
  /// Operands of the similarity function in source order.
  algebricks::LExprPtr arg0;
  algebricks::LExprPtr arg1;
  /// Normalized threshold: Jaccard delta (match when sim >= delta) or edit
  /// distance k (match when dist <= k). `contains` has no threshold.
  double threshold = 0;
  /// The original conjunct (used for verification SELECTs).
  algebricks::LExprPtr original;
};

/// Recognizes similarity conjuncts of the forms
///   similarity-jaccard(a, b) >= d    (also > d, and flipped literal-first)
///   edit-distance(a, b) <= k         (also < k+1, flipped)
///   contains(a, b)
/// Returns nullopt for anything else.
std::optional<SimPredicate> MatchSimilarityConjunct(
    const algebricks::LExprPtr& conjunct);

/// If `expr` is a (possibly word-tokens-wrapped) access to a field of the
/// record variable `record_var`, returns the field name. Handles:
///   $v.field
///   word-tokens($v.field)
///   gram-tokens($v.field, n [, pad])
std::optional<std::string> ExtractFieldRef(const algebricks::LExprPtr& expr,
                                           const std::string& record_var);

/// A residual join conjunct that reads each join side only through that
/// side's primary key (`$o.id < $i.id`, `$o.id != $i.id`, ...), rewritten
/// onto `left_to` / `right_to` so a join plan can apply it where both keys
/// first meet instead of after the records are joined back. Returns nullopt
/// when the conjunct reads any variable outside an occurrence of `left_pk`
/// or `right_pk` (both are variable/field paths such as `$o.id`).
std::optional<algebricks::LExprPtr> RewritePkConjunct(
    const algebricks::LExprPtr& conjunct, const algebricks::LExprPtr& left_pk,
    const algebricks::LExprPtr& left_to, const algebricks::LExprPtr& right_pk,
    const algebricks::LExprPtr& right_to);

/// Finds the DATA-SCAN node in `plan` that binds `var`; nullptr when none
/// does.
const algebricks::LOp* FindScanOfVar(const algebricks::LOpPtr& plan,
                                     const std::string& var);

/// The index kind able to serve a given similarity function (Figure 13).
similarity::IndexKind CompatibleIndexKind(SimPredicate::Fn fn);

/// The execution-time search spec corresponding to a predicate.
hyracks::SimSearchSpec ToSearchSpec(const SimPredicate& pred);

}  // namespace simdb::core

#endif  // SIMDB_CORE_SIM_PREDICATE_H_
