#include "hyracks/ops_group.h"

#include <numeric>

#include "hyracks/key_table.h"

namespace simdb::hyracks {

using adm::Value;

bool HashGroupOp::SameAs(const Operator& other) const {
  const auto* o = dynamic_cast<const HashGroupOp*>(&other);
  if (o == nullptr || o->aggs_.size() != aggs_.size() ||
      !SameExprs(o->key_exprs_, key_exprs_)) {
    return false;
  }
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (o->aggs_[i].kind != aggs_[i].kind ||
        !SameExpr(o->aggs_[i].input, aggs_[i].input)) {
      return false;
    }
  }
  return true;
}

Result<Rows> HashGroupOp::ExecutePartition(
    ExecContext&, int, const std::vector<const Rows*>& inputs) {
  const size_t nkeys = key_exprs_.size();
  const size_t naggs = aggs_.size();
  std::vector<int> key_columns(nkeys);
  std::iota(key_columns.begin(), key_columns.end(), 0);
  // Each row's keys are evaluated into a new row of the key frame. A new key
  // keeps that row, so group g's key is keys[g] and the groups come out in
  // first-seen order under any executor; a key seen before drops it again.
  Rows keys(nkeys);
  KeyTable table;
  // Aggregate state, flat per group: slot g * naggs + a.
  std::vector<Value> accumulators;
  std::vector<int64_t> counts;
  std::vector<Value::Array> lists;
  for (Row row : *inputs[0]) {
    std::span<Value> key = keys.Append();
    for (size_t k = 0; k < nkeys; ++k) {
      SIMDB_ASSIGN_OR_RETURN(key[k], key_exprs_[k]->Eval(row));
    }
    uint64_t hash = HashColumns(key, key_columns);
    uint32_t g = table.Find(hash, [&](uint32_t id) {
      return ColumnsEqual(keys[id], key_columns, key, key_columns);
    });
    if (g == KeyTable::kNone) {
      g = table.Insert(hash);
      accumulators.resize(accumulators.size() + naggs);
      counts.resize(counts.size() + naggs, 0);
      lists.resize(lists.size() + naggs);
    } else {
      keys.PopBack();
    }
    for (size_t a = 0; a < naggs; ++a) {
      const AggSpec& spec = aggs_[a];
      const size_t slot = g * naggs + a;
      Value& acc = accumulators[slot];
      int64_t& count = counts[slot];
      if (spec.kind == AggSpec::Kind::kCount) {
        ++count;
        continue;
      }
      SIMDB_ASSIGN_OR_RETURN(Value v, spec.input->Eval(row));
      switch (spec.kind) {
        case AggSpec::Kind::kSum: {
          if (!v.is_numeric()) {
            return Status::TypeError("sum over non-numeric value");
          }
          if (count == 0) {
            acc = v;
          } else if (acc.is_int64() && v.is_int64()) {
            acc = Value::Int64(acc.AsInt64() + v.AsInt64());
          } else {
            acc = Value::Double(acc.AsNumber() + v.AsNumber());
          }
          ++count;
          break;
        }
        case AggSpec::Kind::kMin:
          if (count == 0 || Value::Compare(v, acc) < 0) acc = v;
          ++count;
          break;
        case AggSpec::Kind::kMax:
          if (count == 0 || Value::Compare(v, acc) > 0) acc = v;
          ++count;
          break;
        case AggSpec::Kind::kFirst:
          if (count == 0) acc = v;
          ++count;
          break;
        case AggSpec::Kind::kListify:
          lists[slot].push_back(std::move(v));
          ++count;
          break;
        case AggSpec::Kind::kCount:
          break;  // handled above
      }
    }
  }
  Rows rows(nkeys + naggs);
  for (size_t g = 0; g < keys.size(); ++g) {
    std::span<Value> out = rows.Append();
    std::span<Value> key = keys.MutableRow(g);
    std::move(key.begin(), key.end(), out.begin());
    for (size_t a = 0; a < naggs; ++a) {
      const size_t slot = g * naggs + a;
      switch (aggs_[a].kind) {
        case AggSpec::Kind::kCount:
          out[nkeys + a] = Value::Int64(counts[slot]);
          break;
        case AggSpec::Kind::kListify:
          out[nkeys + a] = Value::MakeArray(std::move(lists[slot]));
          break;
        default:
          out[nkeys + a] = counts[slot] == 0 ? Value::Null()
                                             : std::move(accumulators[slot]);
      }
    }
  }
  return rows;
}

}  // namespace simdb::hyracks
