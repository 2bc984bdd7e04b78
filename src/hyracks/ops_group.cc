#include "hyracks/ops_group.h"

#include <unordered_map>

namespace simdb::hyracks {

using adm::Value;

namespace {

struct GroupState {
  std::vector<Value> accumulators;  // one per agg
  std::vector<int64_t> counts;      // row counts per agg (for kCount)
  std::vector<Value::Array> lists;  // for kListify
};

}  // namespace

Result<Rows> HashGroupOp::ExecutePartition(
    ExecContext&, int, const std::vector<const Rows*>& inputs) {
  // Group states keyed by the key tuple; output in first-seen order so
  // results are deterministic under any executor.
  using Groups = std::unordered_map<Tuple, GroupState, KeyHash, KeyEq>;
  Groups groups;
  std::vector<Groups::value_type*> order;
  for (const Tuple& row : *inputs[0]) {
    Tuple keys;
    keys.reserve(key_exprs_.size());
    for (const ExprPtr& ke : key_exprs_) {
      SIMDB_ASSIGN_OR_RETURN(Value k, ke->Eval(row));
      keys.push_back(std::move(k));
    }
    auto [it, inserted] = groups.try_emplace(std::move(keys));
    GroupState& g = it->second;
    if (inserted) {
      order.push_back(&*it);
      g.accumulators.resize(aggs_.size());
      g.counts.assign(aggs_.size(), 0);
      g.lists.resize(aggs_.size());
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const AggSpec& spec = aggs_[a];
      if (spec.kind == AggSpec::Kind::kCount) {
        ++g.counts[a];
        continue;
      }
      SIMDB_ASSIGN_OR_RETURN(Value v, spec.input->Eval(row));
      switch (spec.kind) {
        case AggSpec::Kind::kSum: {
          if (!v.is_numeric()) {
            return Status::TypeError("sum over non-numeric value");
          }
          if (g.counts[a] == 0) {
            g.accumulators[a] = v;
          } else if (g.accumulators[a].is_int64() && v.is_int64()) {
            g.accumulators[a] =
                Value::Int64(g.accumulators[a].AsInt64() + v.AsInt64());
          } else {
            g.accumulators[a] =
                Value::Double(g.accumulators[a].AsNumber() + v.AsNumber());
          }
          ++g.counts[a];
          break;
        }
        case AggSpec::Kind::kMin:
          if (g.counts[a] == 0 || Value::Compare(v, g.accumulators[a]) < 0) {
            g.accumulators[a] = v;
          }
          ++g.counts[a];
          break;
        case AggSpec::Kind::kMax:
          if (g.counts[a] == 0 || Value::Compare(v, g.accumulators[a]) > 0) {
            g.accumulators[a] = v;
          }
          ++g.counts[a];
          break;
        case AggSpec::Kind::kFirst:
          if (g.counts[a] == 0) g.accumulators[a] = v;
          ++g.counts[a];
          break;
        case AggSpec::Kind::kListify:
          g.lists[a].push_back(std::move(v));
          ++g.counts[a];
          break;
        case AggSpec::Kind::kCount:
          break;  // handled above
      }
    }
  }
  Rows rows;
  rows.reserve(groups.size());
  for (Groups::value_type* entry : order) {
    GroupState& g = entry->second;
    Tuple row = entry->first;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      switch (aggs_[a].kind) {
        case AggSpec::Kind::kCount:
          row.push_back(Value::Int64(g.counts[a]));
          break;
        case AggSpec::Kind::kListify:
          row.push_back(Value::MakeArray(std::move(g.lists[a])));
          break;
        default:
          row.push_back(g.counts[a] == 0 ? Value::Null()
                                         : std::move(g.accumulators[a]));
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace simdb::hyracks
