#include "testing/fuzz.h"

#include <algorithm>

#include "common/random.h"

namespace simdb::testing {

namespace {

// Fixed Fork() stream ids: adding a stream must not renumber existing ones,
// or every recorded failing seed changes meaning.
constexpr uint64_t kStreamProfile = 1;
constexpr uint64_t kStreamData = 2;
constexpr uint64_t kStreamQuery = 3;
constexpr uint64_t kStreamSampler = 4;
constexpr uint64_t kStreamPkPredicate = 5;
constexpr uint64_t kStreamAggregate = 6;
constexpr uint64_t kStreamMixedKeys = 7;

std::string FmtDouble(double v) {
  // Stable short rendering for thresholds (0, 0.1, ..., 1).
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Jaccard threshold with edge cases: 0 (matches everything, including
/// token-disjoint pairs — the T = 0 corner), 1 (exact set match), otherwise a
/// mid-range value in 0.1 steps.
double PickJaccardDelta(Random& rng) {
  uint64_t c = rng.Uniform(8);
  if (c == 0) return 0.0;
  if (c == 1) return 1.0;
  return 0.1 * static_cast<double>(1 + rng.Uniform(8));  // 0.1 .. 0.8
}

/// Edit-distance threshold with edge cases: 0 (exact match), a large k that
/// drives T = |G(q)| - k*n below zero for short names (index corner branch),
/// otherwise small k.
int PickEditK(Random& rng) {
  uint64_t c = rng.Uniform(8);
  if (c == 0) return 0;
  if (c == 1) return 9;
  return 1 + static_cast<int>(rng.Uniform(3));  // 1 .. 3
}

/// The joins' primary-key conjunct: `<`, `<=`, `>`, `>=` or `!=` with either
/// operand first, or none at all (self pairs and mirrored pairs then reach
/// the answer). The join rules apply it where both keys first meet.
std::string PickPkConjunct(Random& rng) {
  static const char* const kComparators[] = {"<", "<=", ">", ">=", "!="};
  uint64_t c = rng.Uniform(11);
  if (c == 10) return "";
  std::string cmp = kComparators[c / 2];
  return c % 2 == 0 ? " and $o.id " + cmp + " $i.id"
                    : " and $i.id " + cmp + " $o.id";
}

/// On a quarter of the seeds, a join conjunct that reads the non-pk `field`
/// of both sides, alone or beside the pks. It must stay on top of the join.
std::string PickNonPkConjunct(Random& rng, const std::string& field) {
  if (!rng.OneIn(4)) return "";
  if (rng.OneIn(2)) return " and $o." + field + " != $i." + field;
  return " and ($o.id < $i.id or $o." + field + " = $i." + field + ")";
}

std::string SampleText(datagen::WorkloadSampler& sampler,
                       const std::string& fallback) {
  Result<std::string> v = sampler.SampleWithMinWords(1);
  return v.ok() ? *v : fallback;
}

std::string SampleName(datagen::WorkloadSampler& sampler,
                       const std::string& fallback) {
  Result<std::string> v = sampler.SampleWithMinChars(3);
  return v.ok() ? *v : fallback;
}

}  // namespace

FuzzCase MakeFuzzCase(uint64_t seed) {
  Random master(seed);
  Random prof_rng = master.Fork(kStreamProfile);
  Random query_rng = master.Fork(kStreamQuery);
  Random pk_rng = master.Fork(kStreamPkPredicate);

  FuzzCase c;
  c.seed = seed;
  c.data_seed = master.Fork(kStreamData).initial_seed();

  // Small vocabularies and high duplicate rates make the similarity space
  // dense enough that every plan variant has non-trivial answers to disagree
  // about.
  switch (prof_rng.Uniform(3)) {
    case 0:
      c.profile = datagen::AmazonProfile();
      break;
    case 1:
      c.profile = datagen::TwitterProfile();
      break;
    default:
      c.profile = datagen::RedditProfile();
      break;
  }
  c.profile.vocab_size = 30 + static_cast<int>(prof_rng.Uniform(50));
  c.profile.avg_words = 3 + static_cast<int>(prof_rng.Uniform(4));
  c.profile.max_words = std::min(c.profile.max_words, 20);
  c.profile.name_pool_size = 30 + static_cast<int>(prof_rng.Uniform(40));
  c.profile.near_duplicate_rate = 0.3 + 0.2 * prof_rng.NextDouble();
  c.profile.name_typo_rate = 0.5;
  c.num_records = 60 + static_cast<int>(prof_rng.Uniform(60));

  const std::string& text_field = c.profile.text_field;
  const std::string& name_field = c.profile.name_field;
  c.ddl = "create dataset D primary key id;"
          "create index kw on D(" + text_field + ") type keyword;"
          "create index ng on D(" + name_field + ") type ngram(2);";

  // Pre-generate the record stream once so query constants can be sampled
  // from real field values (the paper's workload protocol).
  datagen::TextDatasetGenerator gen(c.profile, c.data_seed);
  for (int64_t i = 0; i < c.num_records; ++i) gen.NextRecord(i);
  Random sampler_seed = master.Fork(kStreamSampler);
  datagen::WorkloadSampler texts(gen.texts(), sampler_seed.NextU64());
  datagen::WorkloadSampler names(gen.names(), sampler_seed.NextU64());

  auto jaccard_pred = [&](const std::string& a, const std::string& b,
                          double delta) {
    return "similarity-jaccard(word-tokens(" + a + "), word-tokens(" + b +
           ")) >= " + FmtDouble(delta);
  };
  auto ed_pred = [&](const std::string& a, const std::string& b, int k) {
    return "edit-distance(" + a + ", " + b + ") <= " + std::to_string(k);
  };

  // 1. A selection (Jaccard or edit distance), returning whole records so
  //    the comparison is bit-exact on record content.
  if (query_rng.OneIn(2)) {
    double delta = PickJaccardDelta(query_rng);
    std::string v = SampleText(texts, "ba ri");
    c.queries.push_back(
        {"jaccard-select",
         "for $t in dataset D where " +
             jaccard_pred("$t." + text_field, "'" + v + "'", delta) +
             " return $t"});
  } else {
    int k = PickEditK(query_rng);
    std::string v = SampleName(names, "maria");
    c.queries.push_back(
        {"ed-select",
         "for $t in dataset D where " +
             ed_pred("$t." + name_field, "'" + v + "'", k) + " return $t"});
  }

  // 2. A self join (Jaccard or edit distance) with a drawn pk conjunct and,
  //    on some seeds, a conjunct over the other text field.
  std::string pk_conjunct = PickPkConjunct(pk_rng);
  if (query_rng.OneIn(2)) {
    double delta = PickJaccardDelta(query_rng);
    c.queries.push_back(
        {"jaccard-join",
         "for $o in dataset D for $i in dataset D where " +
             jaccard_pred("$o." + text_field, "$i." + text_field, delta) +
             pk_conjunct + PickNonPkConjunct(pk_rng, name_field) +
             " return {'o': $o.id, 'i': $i.id}"});
  } else {
    int k = PickEditK(query_rng);
    c.queries.push_back(
        {"ed-join",
         "for $o in dataset D for $i in dataset D where " +
             ed_pred("$o." + name_field, "$i." + name_field, k) +
             pk_conjunct + PickNonPkConjunct(pk_rng, text_field) +
             " return {'o': $o.id, 'i': $i.id}"});
  }

  // 3. Every third seed: a multi-way join (two similarity predicates in one
  //    join, as in paper Figure 25(b)), outer limited so the NL baseline
  //    stays cheap. The predicate order is randomized so either similarity
  //    condition can be the indexed one.
  if (seed % 3 == 0) {
    double delta = 0.1 * static_cast<double>(2 + query_rng.Uniform(6));
    int k = 1 + static_cast<int>(query_rng.Uniform(3));
    int64_t limit = 20 + static_cast<int64_t>(query_rng.Uniform(20));
    std::string jac =
        jaccard_pred("$o." + text_field, "$i." + text_field, delta);
    std::string ed = ed_pred("$o." + name_field, "$i." + name_field, k);
    std::string first = jac, second = ed;
    if (query_rng.OneIn(2)) std::swap(first, second);
    c.queries.push_back(
        {"multiway-join",
         "for $o in dataset D for $i in dataset D where $o.id < " +
             std::to_string(limit) + " and " + first + " and " + second +
             PickPkConjunct(pk_rng) + " return {'o': $o.id, 'i': $i.id}"});
  }

  // 4. On half the seeds: the selection or the self join again inside
  //    count(...), which the translator turns into a COUNT aggregate.
  Random agg_rng = master.Fork(kStreamAggregate);
  if (agg_rng.OneIn(2)) {
    // A copy, not a reference: the push_back below may reallocate.
    FuzzQuery inner = c.queries[agg_rng.Uniform(2)];
    c.queries.push_back({"count-" + inner.label, "count(" + inner.aql + ")"});
  }

  // 5. Keys mixing int64 and double: int64 1 and double 1.0 are one key for
  //    `=`, so a hash table must hash and compare them alike. Every plan
  //    variant runs these through the same HASH-JOIN or HASH-GROUP, so each
  //    carries a twin that reaches the answer another way.
  Random mixed_rng = master.Fork(kStreamMixedKeys);
  const std::string key_fields[] = {"id", name_field, text_field};
  auto key_expr = [](const std::string& field, const std::string& var) {
    return field == "id" ? var + ".id" : "len(" + var + "." + field + ")";
  };
  //    An equi-join with `+ 0.0` on either side; its twin is the `<=`/`>=`
  //    pair, which plans as an NL-JOIN comparing with Value::Compare.
  {
    const std::string& field = key_fields[mixed_rng.Uniform(3)];
    std::string outer = key_expr(field, "$o");
    std::string inner = key_expr(field, "$i");
    if (mixed_rng.OneIn(2)) {
      outer += " + 0.0";
    } else {
      inner += " + 0.0";
    }
    const std::string head = "for $o in dataset D for $i in dataset D where ";
    const std::string ret = " return {'o': $o.id, 'i': $i.id}";
    c.queries.push_back(
        {"mixed-key-join", head + outer + " = " + inner + ret,
         head + outer + " <= " + inner + " and " + outer + " >= " + inner +
             ret});
  }
  //    A group-by over both the int64 and the double form of one key per
  //    record; its twin groups the double form twice. Only the counts are
  //    returned, since a group's key prints as whichever form came first.
  {
    std::string key = key_expr(key_fields[mixed_rng.Uniform(3)], "$t");
    auto group = [&](const std::string& first, const std::string& second) {
      return "for $t in dataset D for $k in [" + first + ", " + second +
             "] group by $g := $k with $k return count($k)";
    };
    c.queries.push_back({"mixed-key-group", group(key, key + " + 0.0"),
                         group(key + " + 0.0", key + " + 0.0")});
  }
  return c;
}

std::vector<adm::Value> MakeRecords(const FuzzCase& c, int count) {
  datagen::TextDatasetGenerator gen(c.profile, c.data_seed);
  std::vector<adm::Value> records;
  records.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) records.push_back(gen.NextRecord(i));
  return records;
}

std::string DescribeFuzzCase(const FuzzCase& c) {
  std::string out = "seed=" + std::to_string(c.seed) + " profile=" +
                    c.profile.label + " vocab=" +
                    std::to_string(c.profile.vocab_size) + " records=" +
                    std::to_string(c.num_records) + " queries=[";
  for (size_t i = 0; i < c.queries.size(); ++i) {
    if (i > 0) out += ", ";
    out += c.queries[i].label;
  }
  out += "]";
  return out;
}

}  // namespace simdb::testing
