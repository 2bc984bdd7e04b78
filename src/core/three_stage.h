#ifndef SIMDB_CORE_THREE_STAGE_H_
#define SIMDB_CORE_THREE_STAGE_H_

#include <memory>

#include "algebricks/rules.h"

namespace simdb::core {

/// The similarity join rule (SJR, paper Section 5.3): rewrites a JOIN with a
/// Jaccard similarity condition into the three-stage set-similarity join of
/// Vernica et al. via the AQL+ framework — the rule instantiates an AQL+
/// template (meta-clauses ## for the join inputs, meta-variables $$ for keys
/// and primary keys, placeholders for the threshold), re-parses and
/// re-translates it, and splices the result into the plan (Figures 11/16/17).
///
/// Stage 1 builds the global token order (over the union of both inputs, or
/// one input for self-join shapes, sharing the subplan as in Figure 20);
/// stage 2 generates verified rid pairs via prefix filtering; stage 3 joins
/// the rid pairs back to both inputs. Join conjuncts that read each side
/// only through its primary key (`$l.id < $r.id`) run in stage 2.
std::shared_ptr<algebricks::RewriteRule> MakeThreeStageJoinRule();

/// The AQL+ template text after placeholder substitution, exposed for tests
/// and documentation. `pair_filter` is AQL over the stage-2 pair keys
/// `$lp.id` and `$rp.id` (e.g. `lt($lp.id, $rp.id)`) that the rid-pair join
/// applies beside `$lp.pt = $rp.pt`; empty for none.
std::string ThreeStageTemplateText(double delta, bool self_like,
                                   const std::string& pair_filter);

}  // namespace simdb::core

#endif  // SIMDB_CORE_THREE_STAGE_H_
