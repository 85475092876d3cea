// One plan per SELECT: EXPLAIN returns the Status SELECT returns, a SELECT
// registers its `name(structure)` only once its plan is built, EXPLAIN
// ANALYZE registers exactly as SELECT does, and EXPLAIN ANALYZE prints the
// plan plain EXPLAIN prints and then runs that plan — seeds included — at
// the head and at a view with pending writes.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "mql/parser.h"
#include "mql/session.h"
#include "workload/bom.h"
#include "workload/geo.h"

namespace mad {
namespace mql {
namespace {

/// Runs `text` without the static analyzer, so planning errors reach the
/// executor.
Result<QueryResult> RunUnchecked(Session& session, const std::string& text) {
  MAD_ASSIGN_OR_RETURN(Statement statement, ParseStatement(text));
  return session.Run(std::move(statement));
}

bool HasSpan(const QueryTrace& trace, const std::string& name) {
  for (const TraceSpan& span : trace.spans()) {
    if (span.name == name) return true;
  }
  return false;
}

class SelectPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::BuildFigure4GeoDatabase(db_).ok());
    ASSERT_TRUE(workload::BuildCarBom(db_).ok());
    session_ = std::make_unique<Session>(&db_);
  }

  Database db_{"GEO_BOM"};
  std::unique_ptr<Session> session_;
};

TEST_F(SelectPlanTest, ExplainFailsWhereSelectFails) {
  for (const std::string body :
       {"SELECT ALL FROM state-area WHERE nosuch.name = 'x'",
        "SELECT ALL FROM state-area WHERE COUNT(nosuch) > 1",
        "SELECT ALL FROM part-[composition*] WHERE nosuch.name = 'x'",
        "SELECT ALL FROM part-[composition*] WHERE COUNT(part) > 1"}) {
    SCOPED_TRACE(body);
    Status select = RunUnchecked(*session_, body).status();
    ASSERT_FALSE(select.ok());
    EXPECT_EQ(RunUnchecked(*session_, "EXPLAIN " + body).status(), select);
    EXPECT_EQ(RunUnchecked(*session_, "EXPLAIN ANALYZE " + body).status(),
              select);
  }
}

TEST_F(SelectPlanTest, AFailedPlanRegistersNothing) {
  for (const std::string prefix : {"", "EXPLAIN ANALYZE "}) {
    SCOPED_TRACE(prefix);
    EXPECT_FALSE(RunUnchecked(*session_, prefix +
                                             "SELECT ALL FROM q(state-area) "
                                             "WHERE nosuch.name = 'x'")
                     .ok());
    EXPECT_FALSE(session_->HasRegisteredMoleculeType("q"));
    EXPECT_FALSE(RunUnchecked(*session_, "SELECT ALL FROM q").ok());
  }
}

TEST_F(SelectPlanTest, ExplainAnalyzeRegistersLikeSelect) {
  for (const std::string prefix : {"", "EXPLAIN ANALYZE "}) {
    SCOPED_TRACE(prefix);
    Session session(&db_);
    ASSERT_TRUE(RunUnchecked(session,
                             "EXPLAIN SELECT ALL FROM q(state-area) "
                             "WHERE area.name = 'a7'")
                    .ok());
    EXPECT_FALSE(session.HasRegisteredMoleculeType("q"));
    ASSERT_TRUE(RunUnchecked(session, prefix +
                                          "SELECT ALL FROM q(state-area) "
                                          "WHERE area.name = 'a7'")
                    .ok());
    EXPECT_TRUE(session.HasRegisteredMoleculeType("q"));
    auto reused = RunUnchecked(session, "SELECT ALL FROM q");
    ASSERT_TRUE(reused.ok()) << reused.status();
    EXPECT_EQ(reused->molecules->description().nodes().size(), 2u);
    // An error raised while executing the plan leaves the name registered.
    auto failed = RunUnchecked(
        session,
        prefix + "SELECT ALL FROM r(state-area) WHERE area.hectare / 0 > 1");
    ASSERT_FALSE(failed.ok());
    EXPECT_NE(failed.status().message().find("division by zero"),
              std::string::npos)
        << failed.status();
    EXPECT_TRUE(session.HasRegisteredMoleculeType("r"));
  }
}

// The optimizer_test and docs/MQL.md statements, planned at the head and at
// views where a transaction has pending writes on the root stores.
TEST_F(SelectPlanTest, ExplainAnalyzeShowsThePlanItRan) {
  ASSERT_TRUE(db_.CreateIndex("state", "name").ok());
  const char* const kStatements[] = {
      "SELECT ALL FROM m(state-area-edge-point) "
      "WHERE state.name = 'SP' AND state.hectare > 0",
      "SELECT ALL FROM state-area-edge-point "
      "WHERE state.hectare > 900 AND point.name = 'pn'",
      "SELECT ALL FROM state-area-edge-point "
      "WHERE state.name = 'SP' AND point.name = 'pn' AND COUNT(point) > 2",
      "SELECT ALL FROM state-area-edge-point WHERE area.name = 'a7'",
      "SELECT state.name FROM mt_state(state-area-edge-point) "
      "WHERE point.name = 'pn'",
      "SELECT ALL FROM state-area "
      "WHERE state.hectare > 2000000 OR area.hectare > 1",
      "SELECT ALL FROM state-area-edge-point",
      "SELECT ALL FROM part-[composition*] WHERE root.name = 'car'",
      "SELECT ALL FROM part-[composition~*2] WHERE part.cost > 1",
  };
  Session writer(&db_);
  size_t index_seeds = 0;
  size_t scan_seeds = 0;
  auto check = [&](Session& session) {
    for (const char* body : kStatements) {
      SCOPED_TRACE(body);
      auto plain = session.Execute(std::string("EXPLAIN ") + body);
      ASSERT_TRUE(plain.ok()) << plain.status();
      auto analyzed = session.Execute(std::string("EXPLAIN ANALYZE ") + body);
      ASSERT_TRUE(analyzed.ok()) << analyzed.status();
      const std::string& text = analyzed->message;
      const size_t profile = text.find("-- execution profile --\n");
      ASSERT_NE(profile, std::string::npos) << text;
      EXPECT_EQ(text.substr(0, profile), plain->message);
      ASSERT_NE(analyzed->trace, nullptr);
      const bool index_seed = plain->message.find("seed-index[") !=
                              std::string::npos;
      const bool scan_seed = plain->message.find("seed-scan[") !=
                             std::string::npos;
      EXPECT_EQ(HasSpan(*analyzed->trace, "index-seed"), index_seed) << text;
      EXPECT_EQ(HasSpan(*analyzed->trace, "seed-scan"), scan_seed) << text;
      index_seeds += index_seed;
      scan_seeds += scan_seed;
    }
  };

  check(*session_);
  EXPECT_EQ(index_seeds, 2u);
  EXPECT_EQ(scan_seeds, 1u);

  // Pending writes on the root stores: no seed is planned, none runs.
  index_seeds = scan_seeds = 0;
  ASSERT_TRUE(writer.Execute("BEGIN;").ok());
  ASSERT_TRUE(writer
                  .Execute("UPDATE state SET hectare = hectare + 1 "
                           "WHERE name = 'SP';")
                  .ok());
  ASSERT_TRUE(
      writer.Execute("UPDATE part SET cost = cost + 1 WHERE name = 'bolt';")
          .ok());
  check(writer);
  check(*session_);
  EXPECT_EQ(index_seeds + scan_seeds, 0u);
  ASSERT_TRUE(writer.Execute("ROLLBACK;").ok());
}

}  // namespace
}  // namespace mql
}  // namespace mad
