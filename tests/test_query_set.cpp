// Tests for QuerySet preparation, run summaries, and generator family
// controls added for the benchmark workloads.
#include <gtest/gtest.h>

#include "blast/driver.h"
#include "blast/query_set.h"
#include "seqdb/generator.h"

namespace pioblast {
namespace {

TEST(QuerySet, BuildsOneContextPerQuery) {
  const std::string fasta = ">q0\nMKVLAWERTYMKVLAWERTY\n>q1\nACDEFGHIKLMNPQRS\n";
  const blast::GlobalDbStats stats{1'000'000, 3'000};
  const auto set = blast::QuerySet::build(
      fasta, blast::SearchParams::blastp_defaults(), stats);
  ASSERT_EQ(set->size(), 2u);
  EXPECT_EQ(set->queries()[0].id, "q0");
  EXPECT_EQ(set->contexts()[0].query_id(), 0u);
  EXPECT_EQ(set->contexts()[1].query_id(), 1u);
  EXPECT_EQ(set->contexts()[0].residues().size(), 20u);
  EXPECT_EQ(set->stats().num_seqs, 3000u);
}

TEST(QuerySet, ContextsShareOneMatrix) {
  const std::string fasta = ">a\nMKVLAW\n>b\nMKVLAW\n";
  const blast::GlobalDbStats stats{1000, 10};
  const auto set = blast::QuerySet::build(
      fasta, blast::SearchParams::blastp_defaults(), stats);
  EXPECT_EQ(&set->contexts()[0].matrix(), &set->contexts()[1].matrix());
  EXPECT_EQ(&set->contexts()[0].matrix(), &set->matrix());
}

TEST(QuerySet, MalformedFastaThrows) {
  const blast::GlobalDbStats stats{1000, 10};
  EXPECT_THROW(blast::QuerySet::build("garbage, no defline",
                                      blast::SearchParams::blastp_defaults(),
                                      stats),
               util::RuntimeError);
}

TEST(SummarizeRun, UsesWorkerMaxAndMasterOutput) {
  mpisim::RunReport report;
  report.ranks.resize(3);
  auto& master = report.ranks[0];
  master.rank = 0;
  master.phases.add("output", 5.0);
  master.final_clock = 20.0;
  auto& w1 = report.ranks[1];
  w1.rank = 1;
  w1.phases.add("copy", 1.0);
  w1.phases.add("search", 10.0);
  w1.final_clock = 20.0;
  auto& w2 = report.ranks[2];
  w2.rank = 2;
  w2.phases.add("input", 2.0);
  w2.phases.add("search", 12.0);
  w2.final_clock = 20.0;

  const auto ph = blast::summarize_run(report);
  EXPECT_DOUBLE_EQ(ph.total, 20.0);
  EXPECT_DOUBLE_EQ(ph.copy_input, 2.0);  // max over workers of copy+input
  EXPECT_DOUBLE_EQ(ph.search, 12.0);
  EXPECT_DOUBLE_EQ(ph.output, 5.0);
  EXPECT_DOUBLE_EQ(ph.other, 20.0 - 2.0 - 12.0 - 5.0);
  EXPECT_NEAR(ph.search_fraction(), 0.6, 1e-12);
}

TEST(Generator, MaxRootsCapsDeNovoSequences) {
  seqdb::GeneratorConfig cfg;
  cfg.target_residues = 100'000;
  cfg.max_roots = 5;
  cfg.family_fraction = 0.0;  // without the cap nothing would derive
  const auto db = seqdb::generate_database(cfg);
  int roots = 0;
  for (const auto& r : db)
    if (r.description.rfind("homolog of", 0) != 0) ++roots;
  EXPECT_EQ(roots, 5);
}

TEST(Generator, MaxRootsCreatesLargeFamilies) {
  seqdb::GeneratorConfig cfg;
  cfg.target_residues = 300'000;
  cfg.max_roots = 4;
  cfg.family_fraction = 0.9;
  const auto db = seqdb::generate_database(cfg);
  // With 4 roots and ~1000 sequences, the average family exceeds 200.
  EXPECT_GT(db.size() / 4, 100u);
}

TEST(CostModel, HspResultChargeIsPerRecord) {
  sim::CostModel::Params p;
  p.sec_per_hsp_result = 1e-3;
  const sim::CostModel cost(p);
  EXPECT_DOUBLE_EQ(cost.hsp_result_seconds(100), 0.1);
  EXPECT_DOUBLE_EQ(cost.hsp_result_seconds(0), 0.0);
}

TEST(CostModel, MergeBytesSeparateFromRecords) {
  sim::CostModel::Params p;
  p.sec_per_merge_record = 1e-6;
  p.sec_per_merge_byte = 1e-7;
  const sim::CostModel cost(p);
  EXPECT_DOUBLE_EQ(cost.merge_seconds(10, 0), 1e-5);
  EXPECT_DOUBLE_EQ(cost.merge_seconds(0, 100), 1e-5);
  EXPECT_DOUBLE_EQ(cost.merge_seconds(10, 100), 2e-5);
}

}  // namespace
}  // namespace pioblast
