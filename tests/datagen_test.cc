#include <gtest/gtest.h>

#include <set>

#include "cluster/cost_model.h"
#include "datagen/textgen.h"
#include "similarity/edit_distance.h"
#include "similarity/jaccard.h"
#include "similarity/tokenizer.h"

namespace simdb::datagen {
namespace {

TEST(TextGenTest, Deterministic) {
  TextDatasetGenerator a(AmazonProfile(), 1), b(AmazonProfile(), 1);
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(a.NextRecord(i).ToJson(), b.NextRecord(i).ToJson());
  }
}

TEST(TextGenTest, RecordShape) {
  TextDatasetGenerator gen(AmazonProfile(), 2);
  adm::Value record = gen.NextRecord(7);
  EXPECT_EQ(record.GetField("id").AsInt64(), 7);
  EXPECT_TRUE(record.GetField("reviewerName").is_string());
  EXPECT_TRUE(record.GetField("summary").is_string());
}

TEST(TextGenTest, WordsAreUniquePerRank) {
  TextDatasetGenerator gen(AmazonProfile(), 3);
  std::set<std::string> words;
  for (uint64_t r = 0; r < 2000; ++r) words.insert(gen.Word(r));
  EXPECT_EQ(words.size(), 2000u);
}

TEST(TextGenTest, LengthDistributionRespectsBounds) {
  TextProfile profile = AmazonProfile();
  TextDatasetGenerator gen(profile, 4);
  double total_words = 0;
  int n = 2000;
  for (int64_t i = 0; i < n; ++i) {
    adm::Value rec = gen.NextRecord(i);
    auto words = similarity::WordTokens(rec.GetField("summary").AsString());
    EXPECT_GE(static_cast<int>(words.size()), profile.min_words);
    EXPECT_LE(static_cast<int>(words.size()), profile.max_words);
    total_words += static_cast<double>(words.size());
  }
  double avg = total_words / n;
  EXPECT_GT(avg, profile.avg_words * 0.4);
  EXPECT_LT(avg, profile.avg_words * 2.0);
}

TEST(TextGenTest, ZipfSkewProducesFrequentTokens) {
  TextDatasetGenerator gen(AmazonProfile(), 5);
  std::map<std::string, int> counts;
  for (int64_t i = 0; i < 3000; ++i) {
    adm::Value rec = gen.NextRecord(i);
    for (const std::string& w :
         similarity::WordTokens(rec.GetField("summary").AsString())) {
      ++counts[w];
    }
  }
  int max_count = 0, total = 0;
  for (const auto& [w, c] : counts) {
    max_count = std::max(max_count, c);
    total += c;
  }
  // The most frequent token should dominate (Zipf), but not be everything.
  EXPECT_GT(max_count, total / 50);
  EXPECT_LT(max_count, total / 2);
}

TEST(TextGenTest, NearDuplicatesExistForJoins) {
  TextProfile profile = AmazonProfile();
  profile.near_duplicate_rate = 0.3;
  TextDatasetGenerator gen(profile, 6);
  for (int64_t i = 0; i < 2000; ++i) gen.NextRecord(i);
  // Count record pairs with high word-level similarity among a sample.
  const auto& texts = gen.texts();
  int near = 0;
  for (size_t i = 0; i < 200; ++i) {
    auto a = similarity::WordTokens(texts[i]);
    std::sort(a.begin(), a.end());
    for (size_t j = i + 1; j < 400; ++j) {
      auto b = similarity::WordTokens(texts[j]);
      std::sort(b.begin(), b.end());
      if (similarity::JaccardCheckSorted(a, b, 0.8) >= 0) ++near;
    }
  }
  EXPECT_GT(near, 0);
}

TEST(TextGenTest, NameTyposKeepEditDistanceSmall) {
  TextProfile profile = AmazonProfile();
  profile.name_typo_rate = 1.0;  // always perturb once seeded
  TextDatasetGenerator gen(profile, 7);
  gen.NextRecord(0);
  int close = 0;
  for (int64_t i = 1; i < 300; ++i) {
    adm::Value rec = gen.NextRecord(i);
    const std::string& name = rec.GetField("reviewerName").AsString();
    for (const std::string& prev : gen.names()) {
      if (&prev == &gen.names().back()) break;
      int d = similarity::EditDistanceCheck(name, prev, 2);
      if (d >= 0 && d > 0) {
        ++close;
        break;
      }
    }
  }
  EXPECT_GT(close, 50);  // plenty of near-duplicate names
}

TEST(TextGenTest, ProfilesDiffer) {
  EXPECT_EQ(AmazonProfile().text_field, "summary");
  EXPECT_EQ(RedditProfile().text_field, "title");
  EXPECT_EQ(TwitterProfile().text_field, "text");
  EXPECT_GT(RedditProfile().avg_words, AmazonProfile().avg_words);
}

TEST(WorkloadSamplerTest, RespectsConstraints) {
  TextDatasetGenerator gen(AmazonProfile(), 8);
  for (int64_t i = 0; i < 500; ++i) gen.NextRecord(i);
  WorkloadSampler texts(gen.texts());
  for (int i = 0; i < 20; ++i) {
    auto v = texts.SampleWithMinWords(3);
    ASSERT_TRUE(v.ok());
    EXPECT_GE(similarity::WordTokens(*v).size(), 3u);
  }
  WorkloadSampler names(gen.names());
  for (int i = 0; i < 20; ++i) {
    auto v = names.SampleWithMinChars(3);
    ASSERT_TRUE(v.ok());
    EXPECT_GE(v->size(), 3u);
  }
}

TEST(WorkloadSamplerTest, ImpossibleConstraintFails) {
  WorkloadSampler sampler({"a", "b"});
  EXPECT_FALSE(sampler.SampleWithMinChars(100).ok());
}

// ---------- cluster cost model ----------

TEST(CostModelTest, ComputeIsMaxOverNodes) {
  hyracks::ExecStats stats;
  hyracks::OpStats op;
  op.name = "X";
  op.partition_seconds = {1.0, 1.0, 3.0, 1.0};  // node0: p0,p1; node1: p2,p3
  stats.ops.push_back(op);
  hyracks::ClusterTopology topo{2, 2};
  auto report = cluster::ComputeMakespan(stats, topo);
  EXPECT_DOUBLE_EQ(report.compute_seconds, 4.0);  // node1 = 3 + 1
  EXPECT_DOUBLE_EQ(report.network_seconds, 0.0);
}

TEST(CostModelTest, NetworkScalesWithBytes) {
  hyracks::ExecStats stats;
  hyracks::OpStats op;
  op.name = "EXCHANGE";
  op.partition_seconds = {0, 0, 0, 0};
  op.remote_bytes = 117ull * 1024 * 1024 * 2;  // 2 seconds at full bandwidth
  stats.ops.push_back(op);
  hyracks::ClusterTopology topo{2, 2};
  auto report = cluster::ComputeMakespan(stats, topo);
  EXPECT_GT(report.network_seconds, 0.9);  // spread over 2 nodes: ~1s + latency
  EXPECT_LT(report.network_seconds, 2.0);
}

TEST(CostModelTest, MoreNodesReduceNetworkTime) {
  hyracks::ExecStats stats;
  hyracks::OpStats op;
  op.partition_seconds.assign(16, 0.0);
  op.remote_bytes = 1ull << 30;
  stats.ops.push_back(op);
  auto few = cluster::ComputeMakespan(stats, {2, 8});
  auto many = cluster::ComputeMakespan(stats, {8, 2});
  EXPECT_GT(few.network_seconds, many.network_seconds);
}

TEST(CostModelTest, FormatIsReadable) {
  cluster::MakespanReport report{1.5, 0.25, 1.75};
  std::string s = cluster::FormatMakespan(report);
  EXPECT_NE(s.find("1.75"), std::string::npos);
}

}  // namespace
}  // namespace simdb::datagen
