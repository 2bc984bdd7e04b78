#include "hyracks/exec.h"

#include <algorithm>

#include "common/logging.h"

namespace simdb::hyracks {

void MergeCounterSink(OpStats& stats, const OpCounterSink& sink) {
  for (const auto& [name, delta] : sink.entries) {
    auto pos = std::lower_bound(
        stats.counters.begin(), stats.counters.end(), name,
        [](const std::pair<std::string, uint64_t>& e, const char* n) {
          return e.first < n;
        });
    if (pos != stats.counters.end() && pos->first == name) {
      pos->second += delta;
    } else {
      stats.counters.emplace(pos, name, delta);
    }
  }
}

std::vector<int> ComputeStages(const Job& job) {
  const auto& nodes = job.nodes();
  std::vector<int> stages(nodes.size(), 0);
  for (size_t i = 0; i < nodes.size(); ++i) {
    int s = 0;
    for (int in : nodes[i].inputs) {
      int bump = nodes[static_cast<size_t>(in)].op->partition_local() ? 0 : 1;
      s = std::max(s, stages[static_cast<size_t>(in)] + bump);
    }
    stages[i] = s;
  }
  return stages;
}

Status PartitionOperator::ValidateInputArity(size_t provided) const {
  int expected = num_inputs();
  if (expected < 0) {
    if (provided == 0) {
      return Status::Internal(name() + " expects at least one input");
    }
    return Status::OK();
  }
  if (provided != static_cast<size_t>(expected)) {
    return Status::Internal(name() + " expects " + std::to_string(expected) +
                            " input(s), got " + std::to_string(provided));
  }
  return Status::OK();
}

int Job::Add(std::unique_ptr<Operator> op, std::vector<int> inputs,
             RowSchema schema) {
  int id = static_cast<int>(nodes_.size());
  for (int in : inputs) {
    SIMDB_CHECK(in >= 0 && in < id) << "job inputs must precede the node";
  }
  nodes_.push_back(Node{std::move(op), std::move(inputs), std::move(schema)});
  return id;
}

std::string Job::ToString() const {
  std::string out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    out += std::to_string(i) + ": " + nodes_[i].op->name() + " <- [";
    for (size_t j = 0; j < nodes_[i].inputs.size(); ++j) {
      if (j > 0) out += ", ";
      out += std::to_string(nodes_[i].inputs[j]);
    }
    out += "] " + nodes_[i].schema.ToString() + "\n";
  }
  return out;
}

}  // namespace simdb::hyracks
