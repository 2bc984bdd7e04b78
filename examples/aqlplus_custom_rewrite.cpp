// AQL+ as a general rewrite framework (paper Section 5.2: "AQL+ is a general
// extension framework, not only for similarity queries"). This example
// builds a custom optimizer rule out of the same machinery the three-stage
// similarity join uses: an AQL+ template with ## meta-clauses and $$
// meta-variables, compiled at optimization time and spliced into the plan.
//
// The custom rule rewrites
//     SELECT top-group(field) over <subplan>
// (a made-up marker predicate) into a template that groups the subplan's
// rows by the field, keeps the most frequent value, and joins it back — a
// "mode filter" that AQL itself cannot express in one SELECT.
#include <cstdio>
#include <filesystem>

#include "algebricks/rules.h"
#include "aql/parser.h"
#include "aql/translator.h"
#include "core/query_processor.h"
#include "storage/file_util.h"

using namespace simdb;
using simdb::adm::Value;

namespace {

/// The custom rule: pattern-match, instantiate the AQL+ template, splice.
class ModeFilterRule : public algebricks::RewriteRule {
 public:
  std::string name() const override { return "mode-filter-via-aqlplus"; }

  Result<bool> Apply(algebricks::LOpPtr& op,
                     algebricks::OptContext&) override {
    using algebricks::LExpr;
    using algebricks::LOpKind;
    if (op->kind != LOpKind::kSelect) return false;
    const algebricks::LExprPtr& cond = op->expr;
    if (cond->kind != LExpr::Kind::kCall || cond->name != "top-group" ||
        cond->children.size() != 1) {
      return false;
    }
    const algebricks::LOpPtr& input = op->inputs[0];
    if (input->kind != LOpKind::kDataScan) return false;

    // The AQL+ template: rank field values by frequency over ##INPUT, keep
    // the top one, then join back to ##INPUT on $$FIELD.
    static constexpr const char* kTemplate = R"AQL(
      let $best := (
        for $r1 in ##INPUT1
        group by $g := $$FIELD1 with $r1
        order by count($r1) desc
        limit 1
        return $g
      )
      for $row in ##INPUT2
      for $top in $best
      where $$FIELD2 = $top
      return true
    )AQL";

    aql::MetaBindings bindings;
    bindings.clauses["INPUT1"] = {input, input->out_var};
    bindings.clauses["INPUT2"] = {input, input->out_var};
    algebricks::LExprPtr field = cond->children[0];
    bindings.vars["FIELD1"] = field;
    bindings.vars["FIELD2"] = field;

    SIMDB_ASSIGN_OR_RETURN(aql::AExprPtr ast,
                           aql::ParseExpression(kTemplate));
    aql::Translator translator(std::move(bindings));
    SIMDB_ASSIGN_OR_RETURN(aql::TranslationResult tr,
                           translator.TranslateQuery(ast));
    // Strip the template's `return true` projection to re-expose the
    // record variable, then restore the SELECT's output shape.
    algebricks::LOpPtr plan = tr.plan->inputs[0]->inputs[0];
    op = algebricks::MakeProject(plan, {input->out_var});
    return true;
  }
};

Status RunDemo(core::QueryProcessor& engine) {
  SIMDB_RETURN_IF_ERROR(engine.Execute(R"(
    create dataset Events primary key id;
    insert into Events [
      {'id': 1, 'kind': 'click'}, {'id': 2, 'kind': 'view'},
      {'id': 3, 'kind': 'click'}, {'id': 4, 'kind': 'click'},
      {'id': 5, 'kind': 'purchase'}, {'id': 6, 'kind': 'view'}
    ];
  )"));
  // Register the marker function so the query type-checks, then rewrite.
  hyracks::FunctionRegistry::Global().Register(
      {"top-group", 1, 1,
       [](std::span<const Value>) -> Result<Value> {
         return Status::Internal(
             "top-group is a rewrite marker and must be optimized away");
       }});

  // Run the custom rule manually on a translated query, then execute.
  aql::Translator translator;
  SIMDB_ASSIGN_OR_RETURN(aql::AExprPtr ast, aql::ParseExpression(R"(
    for $e in dataset Events
    where top-group($e.kind)
    return $e.id
  )"));
  SIMDB_ASSIGN_OR_RETURN(aql::TranslationResult tr,
                         translator.TranslateQuery(ast));
  algebricks::OptContext ctx;
  ctx.catalog = engine.catalog();
  algebricks::RuleSet set;
  set.name = "custom";
  set.rules = {std::make_shared<ModeFilterRule>(),
               algebricks::MakePushSelectIntoJoinRule(),
               algebricks::MakePushSelectBelowJoinRule()};
  SIMDB_RETURN_IF_ERROR(
      algebricks::ApplyRuleSet(tr.plan, set, ctx).status());
  SIMDB_RETURN_IF_ERROR(algebricks::ApplyCountListifyRewrite(tr.plan, ctx)
                            .status());
  std::printf("rewritten plan:\n%s\n", tr.plan->ToString().c_str());

  hyracks::Job job;
  algebricks::JobGenerator jobgen;
  SIMDB_RETURN_IF_ERROR(jobgen.Generate(tr.plan, &job));
  ThreadPool pool(2);
  hyracks::ExecContext exec;
  exec.pool = &pool;
  exec.catalog = engine.catalog();
  exec.topology = engine.options().topology;
  SIMDB_ASSIGN_OR_RETURN(hyracks::PartitionedRows rows,
                         hyracks::Executor::Run(job, exec));
  std::printf("events of the most frequent kind ('click'):\n");
  size_t count = 0;
  for (const hyracks::Rows& part : rows) {
    for (hyracks::Row t : part) {
      std::printf("  id=%s\n", t[0].ToJson().c_str());
      ++count;
    }
  }
  if (count != 3) return Status::Internal("expected the 3 click events");
  return Status::OK();
}

}  // namespace

int main() {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("simdb_aqlplus_" + std::to_string(::getpid())))
                        .string();
  core::EngineOptions options;
  options.data_dir = dir;
  options.topology = {2, 2};
  core::QueryProcessor engine(options);
  Status status = RunDemo(engine);
  storage::RemoveAllBestEffort(dir);
  if (!status.ok()) {
    std::fprintf(stderr, "aqlplus_custom_rewrite failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
