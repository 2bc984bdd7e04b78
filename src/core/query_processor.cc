#include "core/query_processor.h"

#include <cctype>
#include <functional>
#include <mutex>
#include <unordered_set>

#include "analysis/dag_verifier.h"
#include "analysis/plan_verifier.h"
#include "analysis/rule_contract.h"
#include "common/stopwatch.h"
#include "core/rules_similarity.h"
#include "core/three_stage.h"
#include "hyracks/functions.h"
#include "observability/metrics.h"
#include "storage/file_util.h"

namespace simdb::core {

using algebricks::LOpPtr;
using algebricks::RuleSet;

namespace {

bool IsExchangeName(const std::string& name) {
  return name == "HASH-EXCHANGE" || name == "BROADCAST-EXCHANGE" ||
         name == "GATHER" || name == "MERGE-GATHER";
}

/// Rolls one query's profile into the process-wide registry so bench
/// binaries and the fuzz harness can snapshot cumulative figures.
void RollupMetrics(const obs::QueryProfile& profile) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("query.profiled_count")->Increment();
  reg.GetHistogram("query.exec_micros")
      ->Observe(static_cast<uint64_t>(profile.wall_seconds * 1e6));
  for (const obs::OperatorProfile& op : profile.operators) {
    for (const auto& [name, value] : op.counters) {
      reg.GetCounter(name)->Add(value);
    }
    if (IsExchangeName(op.name)) {
      reg.GetCounter("exchange." + op.name + ".local_bytes")
          ->Add(op.local_bytes);
      reg.GetCounter("exchange." + op.name + ".remote_bytes")
          ->Add(op.remote_bytes);
      reg.GetCounter("exchange." + op.name + ".remote_transfers")
          ->Add(op.remote_transfers);
    }
  }
}

/// Pre-execution admission estimate: bytes the optimized plan's dataset
/// scans will produce (records x kAdmissionBytesPerRecord). Shared subplans
/// are counted once — they are materialized once. Deliberately coarse: its
/// only job is to refuse obviously hopeless queries before any task runs.
int64_t EstimateScanBytes(const algebricks::LOpPtr& root,
                          storage::Catalog* catalog) {
  std::unordered_set<const algebricks::LOp*> seen;
  int64_t bytes = 0;
  std::function<void(const algebricks::LOpPtr&)> walk =
      [&](const algebricks::LOpPtr& op) {
        if (op == nullptr || !seen.insert(op.get()).second) return;
        if (op->kind == algebricks::LOpKind::kDataScan) {
          storage::Dataset* ds = catalog->Find(op->dataset);
          if (ds != nullptr) {
            bytes +=
                ds->record_count() * QueryProcessor::kAdmissionBytesPerRecord;
          }
        }
        for (const algebricks::LOpPtr& in : op->inputs) walk(in);
      };
  walk(root);
  return bytes;
}

}  // namespace

QueryProcessor::QueryProcessor(EngineOptions options)
    : options_(std::move(options)),
      catalog_(options_.data_dir, options_.lsm),
      // The environment override (SIMDB_TRANSPORT) lets CI rerun the entire
      // suite on a real backend without touching any test code.
      transport_(transport::MakeTransport(
          transport::KindFromEnv(options_.transport),
          options_.topology.num_nodes)),
      pool_(std::make_unique<ThreadPool>(options_.num_threads)) {
  options_.transport = transport_->kind();
  opt_.catalog = &catalog_;
  if (options_.verify_plans) {
    check_hook_ = std::make_unique<analysis::RuleContractChecker>(&catalog_);
    opt_.check_hook = check_hook_.get();
  }
}

Result<storage::Dataset*> QueryProcessor::CreateDataset(
    const std::string& name, const std::string& pk_field) {
  WriterLock lock(state_mu_);
  storage::DatasetSpec spec;
  spec.name = name;
  spec.pk_field = pk_field;
  spec.num_partitions = options_.topology.total_partitions();
  return catalog_.CreateDataset(std::move(spec));
}

Status QueryProcessor::Insert(const std::string& dataset, adm::Value record) {
  WriterLock lock(state_mu_);
  storage::Dataset* ds = catalog_.Find(dataset);
  if (ds == nullptr) return Status::NotFound("dataset " + dataset);
  SIMDB_ASSIGN_OR_RETURN(int64_t pk, ds->Insert(std::move(record)));
  (void)pk;
  return Status::OK();
}

void QueryProcessor::RegisterSimilarityUdf(similarity::SimilarityFunction fn) {
  // Make it callable by name in queries...
  hyracks::FunctionDef def;
  def.name = fn.name;
  def.min_args = 2;
  def.max_args = 2;
  auto eval = fn.eval;
  def.fn = [eval](std::span<const adm::Value> args) {
    return eval(args[0], args[1]);
  };
  hyracks::FunctionRegistry::Global().Register(std::move(def));
  // ...and resolvable as a `set simfunction` alias for `~=`.
  similarity::SimilarityFunctionRegistry::Global().Register(std::move(fn));
}

Status QueryProcessor::OptimizePlan(LOpPtr& plan,
                                    algebricks::OptContext& opt) {
  RuleSet normalize;
  normalize.name = "normalize";
  normalize.rules = {
      algebricks::MakeRemoveTrivialSelectRule(),
      MakeSimilaritySugarRule(),
      algebricks::MakePushSelectIntoJoinRule(),
      algebricks::MakePushSelectBelowJoinRule(),
  };
  RuleSet similarity_set;
  similarity_set.name = "similarity";
  similarity_set.rules = {
      MakeIndexSelectRule(),
      MakeIndexJoinRule(),
      MakeThreeStageJoinRule(),
  };
  // Paper Section 5.3: normalize, apply the similarity rule set (which may
  // regenerate whole subplans through AQL+), then let the newly generated
  // plan go through the earlier rules again, and finally specialize
  // aggregates. Records read only by field are split last, once every rule
  // set has run.
  RuleSet finalize;
  finalize.name = "finalize";
  finalize.rules = {MakeUseCheckVariantRule()};
  finalize.max_iterations = 1;
  SIMDB_RETURN_IF_ERROR(ApplyRuleSet(plan, normalize, opt).status());
  SIMDB_RETURN_IF_ERROR(ApplyRuleSet(plan, similarity_set, opt).status());
  SIMDB_RETURN_IF_ERROR(ApplyRuleSet(plan, normalize, opt).status());
  SIMDB_RETURN_IF_ERROR(ApplyCountListifyRewrite(plan, opt).status());
  SIMDB_RETURN_IF_ERROR(ApplyRuleSet(plan, finalize, opt).status());
  SIMDB_RETURN_IF_ERROR(algebricks::ApplySplitRecordRewrite(plan, opt).status());
  return Status::OK();
}

Status QueryProcessor::RunQuery(const aql::AExprPtr& query,
                                QueryResult* result,
                                algebricks::OptContext& opt,
                                const QueryGovernor* gov) {
  CompileStats compile;
  Stopwatch total;

  Stopwatch phase;
  aql::Translator translator({}, &functions_);
  SIMDB_ASSIGN_OR_RETURN(aql::TranslationResult tr,
                         translator.TranslateQuery(query));
  compile.translate_seconds = phase.ElapsedSeconds();
  if (options_.verify_plans) {
    SIMDB_RETURN_IF_ERROR(analysis::PlanVerifier::Verify(tr.plan, &catalog_));
  }

  phase.Restart();
  double aqlplus_before = opt.aqlplus_seconds;
  size_t fired_before = opt.fired_rules.size();
  SIMDB_RETURN_IF_ERROR(OptimizePlan(tr.plan, opt));
  compile.optimize_seconds = phase.ElapsedSeconds();
  compile.aqlplus_seconds = opt.aqlplus_seconds - aqlplus_before;
  if (options_.verify_plans) {
    SIMDB_RETURN_IF_ERROR(analysis::PlanVerifier::Verify(tr.plan, &catalog_));
  }

  // Admission control: refuse a query whose scanned input alone cannot fit
  // the memory quota, before generating or running any task.
  if (gov != nullptr && gov->budget != nullptr &&
      gov->budget->max_memory_bytes() > 0) {
    int64_t est = EstimateScanBytes(tr.plan, &catalog_);
    if (est > gov->budget->max_memory_bytes()) {
      return Status::ResourceExhausted(
          "admission: estimated " + std::to_string(est) +
          " bytes of scanned input exceeds the " +
          std::to_string(gov->budget->max_memory_bytes()) +
          "-byte memory quota");
    }
  }

  phase.Restart();
  hyracks::Job job;
  algebricks::JobGenerator jobgen(opt.enable_subplan_reuse);
  SIMDB_RETURN_IF_ERROR(jobgen.Generate(tr.plan, &job));
  compile.jobgen_seconds = phase.ElapsedSeconds();
  if (options_.verify_plans) {
    SIMDB_RETURN_IF_ERROR(
        analysis::DagVerifier::Verify(job, options_.topology));
  }
  compile.total_seconds = total.ElapsedSeconds();

  hyracks::ExecStats exec_stats;
  hyracks::ExecContext ctx;
  ctx.pool = pool_.get();
  ctx.catalog = &catalog_;
  ctx.topology = options_.topology;
  ctx.stats = &exec_stats;
  ctx.t_occurrence_algorithm = options_.t_occurrence_algorithm;
  ctx.posting_cache_enabled = options_.posting_cache_enabled;
  ctx.batch_execution = options_.batch_execution;
  ctx.transport = transport_.get();
  if (gov != nullptr) {
    ctx.cancel = gov->cancel;
    ctx.budget = gov->budget;
    ctx.query_id = gov->query_id;
  }
  std::unique_ptr<obs::TraceCollector> collector;
  if (options_.profile_queries) {
    collector = std::make_unique<obs::TraceCollector>();
    ctx.trace = collector.get();
  }
  Result<hyracks::PartitionedRows> run = hyracks::Executor::Run(job, ctx);
  if (!run.ok()) {
    // Hand the execution stats back even on failure: the cancellation tests
    // assert the graph drained (executed + skipped == total) from here.
    if (result != nullptr) result->exec = std::move(exec_stats);
    return run.status();
  }
  hyracks::PartitionedRows rows = std::move(run).value();

  std::shared_ptr<const obs::QueryProfile> profile;
  if (collector != nullptr) {
    uint64_t dropped = collector->dropped();
    auto built = std::make_shared<obs::QueryProfile>(obs::BuildQueryProfile(
        exec_stats, options_.topology, collector->Drain(), dropped));
    RollupMetrics(*built);
    profile = std::move(built);
  }

  if (result != nullptr) {
    result->rows.clear();
    if (tr.is_count) {
      result->rows.push_back(
          adm::Value::Int64(static_cast<int64_t>(hyracks::RowsCount(rows))));
    } else {
      for (const hyracks::Rows& part : rows) {
        for (hyracks::Row row : part) {
          result->rows.push_back(row.empty() ? adm::Value::Missing() : row[0]);
        }
      }
    }
    result->exec = std::move(exec_stats);
    result->compile = compile;
    result->profile = std::move(profile);
    result->logical_plan = tr.plan->ToString();
    result->fired_rules.assign(opt.fired_rules.begin() + fired_before,
                               opt.fired_rules.end());
  }
  return Status::OK();
}

Status QueryProcessor::ExecuteStatement(const aql::Statement& stmt,
                                        QueryResult* result,
                                        algebricks::OptContext& opt,
                                        const QueryGovernor* gov,
                                        bool concurrent) {
  if (concurrent) {
    switch (stmt.kind) {
      case aql::Statement::Kind::kUseDataverse:
      case aql::Statement::Kind::kSet:
      case aql::Statement::Kind::kExplain:
      case aql::Statement::Kind::kQuery:
        break;  // read-only / per-call session state
      default:
        return Status::InvalidArgument(
            "DDL/mutation statements are not allowed on a concurrent "
            "session; use the exclusive Execute path");
    }
  }
  switch (stmt.kind) {
    case aql::Statement::Kind::kUseDataverse:
      return Status::OK();  // single-dataverse engine
    case aql::Statement::Kind::kSet: {
      if (stmt.name == "simfunction") {
        opt.sim_function_alias = stmt.set_value;
        return Status::OK();
      }
      if (stmt.name == "simthreshold") {
        char* end = nullptr;
        double v = std::strtod(stmt.set_value.c_str(), &end);
        if (end == stmt.set_value.c_str()) {
          return Status::ParseError("bad simthreshold");
        }
        opt.sim_threshold = v;
        return Status::OK();
      }
      return Status::OK();  // unknown settings are accepted and ignored
    }
    case aql::Statement::Kind::kCreateDataset: {
      storage::DatasetSpec spec;
      spec.name = stmt.dataset;
      spec.pk_field = stmt.pk_field;
      spec.num_partitions = stmt.partitions > 0
                                ? stmt.partitions
                                : options_.topology.total_partitions();
      return catalog_.CreateDataset(std::move(spec)).status();
    }
    case aql::Statement::Kind::kCreateIndex: {
      storage::Dataset* ds = catalog_.Find(stmt.dataset);
      if (ds == nullptr) return Status::NotFound("dataset " + stmt.dataset);
      storage::IndexSpec spec;
      spec.name = stmt.name;
      spec.field = stmt.field;
      if (stmt.index_type == "ngram") {
        spec.kind = similarity::IndexKind::kNGram;
        spec.gram_len = stmt.gram_len;
      } else if (stmt.index_type == "keyword") {
        spec.kind = similarity::IndexKind::kKeyword;
      } else {
        spec.kind = similarity::IndexKind::kBtree;
      }
      return ds->CreateIndex(std::move(spec));
    }
    case aql::Statement::Kind::kCreateFunction: {
      functions_[stmt.name] = {stmt.params, stmt.body};
      return Status::OK();
    }
    case aql::Statement::Kind::kInsert: {
      storage::Dataset* ds = catalog_.Find(stmt.dataset);
      if (ds == nullptr) return Status::NotFound("dataset " + stmt.dataset);
      SIMDB_ASSIGN_OR_RETURN(adm::Value payload, EvalConstantAst(stmt.body));
      if (payload.is_object()) {
        return ds->Insert(std::move(payload)).status();
      }
      if (payload.is_list()) {
        for (const adm::Value& record : payload.AsList()) {
          SIMDB_RETURN_IF_ERROR(ds->Insert(record).status());
        }
        return Status::OK();
      }
      return Status::TypeError("insert expects a record or list of records");
    }
    case aql::Statement::Kind::kDelete: {
      storage::Dataset* ds = catalog_.Find(stmt.dataset);
      if (ds == nullptr) return Status::NotFound("dataset " + stmt.dataset);
      // Evaluate `for $v in dataset X where cond return $v.<pk>` and delete
      // the surviving primary keys.
      auto flwor = std::make_shared<aql::Flwor>();
      aql::Clause for_clause;
      for_clause.kind = aql::Clause::Kind::kFor;
      for_clause.var = stmt.var;
      auto ds_ref = std::make_shared<aql::AExpr>();
      ds_ref->kind = aql::AExpr::Kind::kDatasetRef;
      ds_ref->name = stmt.dataset;
      for_clause.source = ds_ref;
      flwor->clauses.push_back(std::move(for_clause));
      if (stmt.condition != nullptr) {
        aql::Clause where_clause;
        where_clause.kind = aql::Clause::Kind::kWhere;
        where_clause.condition = stmt.condition;
        flwor->clauses.push_back(std::move(where_clause));
      }
      flwor->return_expr =
          aql::MakeField(aql::MakeVar(stmt.var), ds->spec().pk_field);
      auto query = std::make_shared<aql::AExpr>();
      query->kind = aql::AExpr::Kind::kSubquery;
      query->subquery = std::move(flwor);
      QueryResult pks;
      SIMDB_RETURN_IF_ERROR(RunQuery(query, &pks, opt, gov));
      for (const adm::Value& pk : pks.rows) {
        if (!pk.is_int64()) return Status::TypeError("non-int64 primary key");
        SIMDB_RETURN_IF_ERROR(ds->Delete(pk.AsInt64()));
      }
      return Status::OK();
    }
    case aql::Statement::Kind::kLoad: {
      storage::Dataset* ds = catalog_.Find(stmt.dataset);
      if (ds == nullptr) return Status::NotFound("dataset " + stmt.dataset);
      SIMDB_ASSIGN_OR_RETURN(std::string data, storage::ReadFile(stmt.path));
      size_t start = 0;
      while (start < data.size()) {
        size_t end = data.find('\n', start);
        if (end == std::string::npos) end = data.size();
        std::string_view line(data.data() + start, end - start);
        start = end + 1;
        // Skip blank lines.
        bool blank = true;
        for (char c : line) {
          if (!std::isspace(static_cast<unsigned char>(c))) blank = false;
        }
        if (blank) continue;
        SIMDB_ASSIGN_OR_RETURN(adm::Value record, adm::Value::FromJson(line));
        SIMDB_RETURN_IF_ERROR(ds->Insert(std::move(record)).status());
      }
      return Status::OK();
    }
    case aql::Statement::Kind::kExplain: {
      aql::Translator translator({}, &functions_);
      SIMDB_ASSIGN_OR_RETURN(aql::TranslationResult tr,
                             translator.TranslateQuery(stmt.body));
      size_t fired_before = opt.fired_rules.size();
      SIMDB_RETURN_IF_ERROR(OptimizePlan(tr.plan, opt));
      if (options_.verify_plans) {
        SIMDB_RETURN_IF_ERROR(
            analysis::PlanVerifier::Verify(tr.plan, &catalog_));
      }
      if (result != nullptr) {
        result->rows = {adm::Value::String(tr.plan->ToString())};
        result->logical_plan = tr.plan->ToString();
        result->fired_rules.assign(opt.fired_rules.begin() + fired_before,
                                   opt.fired_rules.end());
      }
      return Status::OK();
    }
    case aql::Statement::Kind::kQuery:
      return RunQuery(stmt.body, result, opt, gov);
  }
  return Status::Internal("unreachable statement kind");
}

Result<adm::Value> QueryProcessor::EvalConstantAst(const aql::AExprPtr& expr) {
  if (expr == nullptr) return Status::PlanError("empty expression");
  switch (expr->kind) {
    case aql::AExpr::Kind::kLiteral:
      return expr->literal;
    case aql::AExpr::Kind::kRecord: {
      adm::Value::Object fields;
      for (size_t i = 0; i < expr->children.size(); ++i) {
        SIMDB_ASSIGN_OR_RETURN(adm::Value v, EvalConstantAst(expr->children[i]));
        fields.emplace_back(expr->field_names[i], std::move(v));
      }
      return adm::Value::MakeObject(std::move(fields));
    }
    case aql::AExpr::Kind::kList: {
      adm::Value::Array items;
      for (const aql::AExprPtr& c : expr->children) {
        SIMDB_ASSIGN_OR_RETURN(adm::Value v, EvalConstantAst(c));
        items.push_back(std::move(v));
      }
      return adm::Value::MakeArray(std::move(items));
    }
    case aql::AExpr::Kind::kCall: {
      const hyracks::FunctionDef* def =
          hyracks::FunctionRegistry::Global().Find(expr->name);
      if (def == nullptr) {
        return Status::PlanError("unknown function " + expr->name);
      }
      std::vector<adm::Value> args;
      for (const aql::AExprPtr& c : expr->children) {
        SIMDB_ASSIGN_OR_RETURN(adm::Value v, EvalConstantAst(c));
        args.push_back(std::move(v));
      }
      return def->fn(args);
    }
    default:
      return Status::PlanError(
          "insert payloads must be constant records/lists");
  }
}

Status QueryProcessor::Execute(std::string_view aql, QueryResult* result) {
  Stopwatch parse;
  SIMDB_ASSIGN_OR_RETURN(aql::Program program, aql::ParseProgram(aql));
  double parse_seconds = parse.ElapsedSeconds();
  WriterLock lock(state_mu_);
  for (const aql::Statement& stmt : program.statements) {
    SIMDB_RETURN_IF_ERROR(
        ExecuteStatement(stmt, result, opt_, nullptr, /*concurrent=*/false));
  }
  if (result != nullptr) result->compile.parse_seconds = parse_seconds;
  return Status::OK();
}

Status QueryProcessor::ExecuteConcurrent(std::string_view aql,
                                         const QueryGovernor& gov,
                                         QueryResult* result) {
  Stopwatch parse;
  SIMDB_ASSIGN_OR_RETURN(aql::Program program, aql::ParseProgram(aql));
  double parse_seconds = parse.ElapsedSeconds();
  ReaderLock lock(state_mu_);
  // Per-query optimizer context: a copy of the engine's session defaults
  // that this query's `set` statements mutate privately. In verify mode the
  // (stateful) contract checker is likewise a per-query instance.
  algebricks::OptContext opt = opt_;
  std::unique_ptr<analysis::RuleContractChecker> checker;
  if (options_.verify_plans) {
    checker = std::make_unique<analysis::RuleContractChecker>(&catalog_);
    opt.check_hook = checker.get();
  } else {
    opt.check_hook = nullptr;
  }
  for (const aql::Statement& stmt : program.statements) {
    SIMDB_RETURN_IF_ERROR(
        ExecuteStatement(stmt, result, opt, &gov, /*concurrent=*/true));
  }
  if (result != nullptr) result->compile.parse_seconds = parse_seconds;
  return Status::OK();
}

Result<LOpPtr> QueryProcessor::PlanLastQuery(std::string_view aql) {
  SIMDB_ASSIGN_OR_RETURN(aql::Program program, aql::ParseProgram(aql));
  WriterLock lock(state_mu_);
  const aql::AExprPtr* query = nullptr;
  for (const aql::Statement& stmt : program.statements) {
    if (stmt.kind == aql::Statement::Kind::kQuery) {
      query = &stmt.body;
    } else {
      SIMDB_RETURN_IF_ERROR(ExecuteStatement(stmt, nullptr, opt_, nullptr,
                                             /*concurrent=*/false));
    }
  }
  if (query == nullptr) return Status::InvalidArgument("no query to explain");
  aql::Translator translator({}, &functions_);
  SIMDB_ASSIGN_OR_RETURN(aql::TranslationResult tr,
                         translator.TranslateQuery(*query));
  SIMDB_RETURN_IF_ERROR(OptimizePlan(tr.plan, opt_));
  if (options_.verify_plans) {
    SIMDB_RETURN_IF_ERROR(analysis::PlanVerifier::Verify(tr.plan, &catalog_));
  }
  return tr.plan;
}

Result<std::string> QueryProcessor::Explain(std::string_view aql) {
  SIMDB_ASSIGN_OR_RETURN(LOpPtr plan, PlanLastQuery(aql));
  return plan->ToString();
}

Result<hyracks::Job> QueryProcessor::CompileJob(std::string_view aql) {
  SIMDB_ASSIGN_OR_RETURN(LOpPtr plan, PlanLastQuery(aql));
  hyracks::Job job;
  algebricks::JobGenerator jobgen(opt_.enable_subplan_reuse);
  SIMDB_RETURN_IF_ERROR(jobgen.Generate(plan, &job));
  if (options_.verify_plans) {
    SIMDB_RETURN_IF_ERROR(
        analysis::DagVerifier::Verify(job, options_.topology));
  }
  return job;
}

}  // namespace simdb::core
