#ifndef SIMDB_TESTING_FUZZ_H_
#define SIMDB_TESTING_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "adm/value.h"
#include "datagen/textgen.h"

namespace simdb::testing {

/// One randomly generated similarity query over the fuzz dataset "D". The
/// query is a plain FLWOR returning rows (records of ids for joins, whole
/// records for selections) so the differential runner can compare full
/// order-normalized result sets, or one of those inside count(...).
struct FuzzQuery {
  std::string label;  // "jaccard-select", "ed-join", "count-ed-join", ...
  std::string aql;    // the query text (no trailing ';')
  /// When set, a query that must answer exactly as `aql` under the baseline
  /// variant without running the operator `aql` exercises: a shape that
  /// every plan variant runs through the same HASH-JOIN or HASH-GROUP is
  /// checked against it, since no variant could disagree with the others.
  std::string twin;
};

/// A complete differential test case derived from one uint64_t seed: a text
/// dataset profile, a record count, DDL (dataset + keyword/ngram indexes),
/// and a handful of queries mixing Jaccard and edit-distance selections,
/// self joins, multi-way (two-similarity-predicate) joins, and counts of a
/// selection or self join. Thresholds include the corner cases delta in
/// {0, 1} and k in {0, large} so the T-occurrence corner paths (T <= 0) are
/// exercised. Each case also carries an equi-join and a group-by whose keys
/// mix int64 and double values, each with a twin query (see FuzzQuery).
struct FuzzCase {
  uint64_t seed = 0;
  datagen::TextProfile profile;
  uint64_t data_seed = 0;  // forked from `seed`; logged for reproduction
  int num_records = 0;
  std::string ddl;
  std::vector<FuzzQuery> queries;
};

/// Deterministically expands `seed` into a FuzzCase. Same seed, same case —
/// across runs, platforms, and library-internal refactors that do not touch
/// the generator itself.
FuzzCase MakeFuzzCase(uint64_t seed);

/// Regenerates the case's records. Record streams are prefix-stable: the
/// first `count` records are identical for any two calls with the same case,
/// which is what lets the failure minimizer shrink the dataset by prefix.
std::vector<adm::Value> MakeRecords(const FuzzCase& c, int count);

/// Human-readable one-line description (for failure reports).
std::string DescribeFuzzCase(const FuzzCase& c);

}  // namespace simdb::testing

#endif  // SIMDB_TESTING_FUZZ_H_
