// Tests of the benchmark's own logic: percentiles, statement streams,
// reply classification and the bom_txn lost-update check.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "outcome.h"
#include "stats.h"
#include "storage/database.h"
#include "workload/bom.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending: NearestRank must sort
}

TEST(PercentileTest, NearestRankPicksTheCeilRank) {
  EXPECT_EQ(NearestRank(OneTo(10), 0.5).value, 5.0);
  EXPECT_EQ(NearestRank(OneTo(11), 0.5).value, 6.0);
  EXPECT_EQ(NearestRank(OneTo(100), 0.99).value, 99.0);
  EXPECT_EQ(NearestRank(OneTo(1000), 0.99).value, 990.0);
  EXPECT_EQ(NearestRank(OneTo(1), 0.99).value, 1.0);
  EXPECT_EQ(NearestRank(OneTo(7), 1.0).value, 7.0);
  EXPECT_EQ(Median(OneTo(4)), 2.0);
}

TEST(PercentileTest, CountsOnlyWithTenSamplesBeyond) {
  Percentile enough = NearestRank(OneTo(1000), 0.99);
  EXPECT_EQ(enough.samples, 1000u);
  EXPECT_EQ(enough.beyond, 10u);
  EXPECT_TRUE(enough.supported);

  Percentile short_by_one = NearestRank(OneTo(999), 0.99);
  EXPECT_EQ(short_by_one.beyond, 9u);
  EXPECT_FALSE(short_by_one.supported);

  EXPECT_TRUE(NearestRank(OneTo(21), 0.5).supported);
  EXPECT_FALSE(NearestRank(OneTo(19), 0.5).supported);

  Percentile empty = NearestRank({}, 0.5);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_FALSE(empty.supported);
}

BomShape TestShape() {
  BomShape shape;
  shape.roots = 20;
  shape.mids = 88;
  shape.leaves = 800;
  shape.leaf_level = 5;
  return shape;
}

std::vector<std::string> Texts(const WorkloadSpec& spec, uint64_t seed,
                               uint64_t stream, size_t cycles) {
  StatementStream s(spec, TestShape(), seed, stream);
  std::vector<std::string> out;
  for (size_t i = 0; i < cycles; ++i) {
    for (const Step& step : s.Next()) out.push_back(step.text);
  }
  return out;
}

TEST(StreamTest, SameSeedSameStatementsOtherSeedOthers) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    SCOPED_TRACE(spec.name);
    EXPECT_EQ(Texts(spec, 7, 0, 60), Texts(spec, 7, 0, 60));
    EXPECT_NE(Texts(spec, 7, 0, 60), Texts(spec, 8, 0, 60));
    EXPECT_NE(Texts(spec, 7, 0, 60), Texts(spec, 7, 1, 60));
  }
}

TEST(StreamTest, BomCycleIsReadTransactionRead) {
  StatementStream s(*FindWorkload("bom_txn"), TestShape(), 3, 0);
  Cycle cycle = s.Next();
  ASSERT_EQ(cycle.size(), 6u);
  EXPECT_EQ(cycle[0].kind, StepKind::kRead);
  EXPECT_EQ(cycle[1].kind, StepKind::kBegin);
  EXPECT_EQ(cycle[2].kind, StepKind::kUpdate);
  EXPECT_EQ(cycle[2].part.rfind("p5_", 0), 0u);
  EXPECT_EQ(cycle[3].kind, StepKind::kUpdate);
  EXPECT_EQ(cycle[3].part.rfind("p2_", 0), 0u);
  EXPECT_EQ(cycle[4].kind, StepKind::kCommit);
  EXPECT_EQ(cycle[5].kind, StepKind::kRead);
  EXPECT_NE(cycle[5].text.find("'" + cycle[3].part + "'"), std::string::npos);
}

TEST(StreamTest, BomDataSeedIsDeterministicAndPinsTheSize) {
  const WorkloadSpec& spec = *FindWorkload("bom_txn");
  for (uint64_t seed : {1u, 2u, 7919u}) {
    const uint64_t data_seed = BomDataSeed(spec, seed);
    EXPECT_EQ(data_seed, BomDataSeed(spec, seed));
    mad::Database db("BOM");
    auto stats = mad::workload::GenerateBom(db, BomScaleOf(spec, data_seed));
    ASSERT_TRUE(stats.ok());
    EXPECT_GE(stats->parts, kBomPartsMin);
    EXPECT_LE(stats->parts, kBomPartsMax);
  }
  EXPECT_NE(BomDataSeed(spec, 1), BomDataSeed(spec, 2));
}

TEST(StreamTest, GeoPointKeysStayInRange) {
  const WorkloadSpec& spec = *FindWorkload("geo_point");
  for (const std::string& text : Texts(spec, 11, 2, 2000)) {
    size_t q = text.find("'S");
    ASSERT_NE(q, std::string::npos) << text;
    int k = std::stoi(text.substr(q + 2));
    EXPECT_GE(k, 1);
    EXPECT_LE(k, spec.geo_states);
  }
}

TEST(StreamTest, NoWorkloadExceedsFourConnections) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    EXPECT_GE(spec.connections, 1u);
    EXPECT_LE(spec.connections, 4u) << spec.name;
  }
}

mad::Result<mad::server::Message> Reply(mad::server::MessageType type,
                                        const std::string& text = "") {
  mad::server::Message m;
  m.type = type;
  m.text = text;
  return m;
}

TEST(ClassifyTest, EachOutcomeIsRecognised) {
  using mad::server::MessageType;
  EXPECT_EQ(Classify(Reply(MessageType::kResult, "1 atom(s) updated")),
            Outcome::kOk);
  EXPECT_EQ(Classify(Reply(MessageType::kError,
                           "Constraint violation: error[MQL0601]: write-write "
                           "conflict: atom #5")),
            Outcome::kAbort);
  EXPECT_EQ(Classify(Reply(MessageType::kError,
                           "Invalid argument: error[MQL0101]: unknown atom "
                           "type 'prt'")),
            Outcome::kError);
  EXPECT_EQ(Classify(Reply(MessageType::kBusy, "queue full")), Outcome::kBusy);
  EXPECT_EQ(Classify(Reply(MessageType::kBye, "draining")),
            Outcome::kTransport);
  EXPECT_EQ(Classify(mad::Status::Internal("recv: connection reset by peer")),
            Outcome::kTransport);
}

TEST(LedgerTest, PassesWhenEveryAckedIncrementLanded) {
  std::map<std::string, int64_t> generated = {{"p2_1", 10}, {"p5_3", 4}};
  std::map<std::string, int64_t> acked = {{"p2_1", 3}};
  std::map<std::string, int64_t> final = {{"p2_1", 13}, {"p5_3", 4}};
  EXPECT_TRUE(CheckCostLedger(generated, acked, final).empty());
}

TEST(LedgerTest, FiresWhenOneAckedIncrementIsWithheld) {
  std::map<std::string, int64_t> generated = {{"p2_1", 10}, {"p5_3", 4}};
  std::map<std::string, int64_t> acked = {{"p2_1", 3}, {"p5_3", 1}};
  // The server applied every increment, but the client's ledger lost one:
  // the check must report the part, as it would a lost update.
  std::map<std::string, int64_t> final = {{"p2_1", 13}, {"p5_3", 5}};
  std::map<std::string, int64_t> withheld = acked;
  withheld["p5_3"] -= 1;
  std::vector<std::string> report = CheckCostLedger(generated, withheld, final);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_NE(report[0].find("p5_3"), std::string::npos);

  // And a lost update on the server side: one increment never landed.
  final["p2_1"] = 12;
  report = CheckCostLedger(generated, acked, final);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_NE(report[0].find("p2_1"), std::string::npos);
}

TEST(LedgerTest, ReportsPhantomAndMissingParts) {
  std::map<std::string, int64_t> generated = {{"p2_1", 10}};
  EXPECT_EQ(CheckCostLedger(generated, {{"ghost", 1}}, {{"p2_1", 10}}).size(),
            1u);
  EXPECT_EQ(CheckCostLedger(generated, {}, {}).size(), 1u);
}

}  // namespace
}  // namespace perfbench
