#include "mql/optimizer.h"

#include <gtest/gtest.h>

#include <vector>

#include "mql/session.h"
#include "workload/geo.h"

namespace mad {
namespace mql {
namespace e = mad::expr;
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = workload::BuildFigure4GeoDatabase(db_);
    ASSERT_TRUE(ids.ok());
    ids_ = *ids;
    auto md = MoleculeDescription::CreateFromTypes(
        db_, {"state", "area", "edge", "point"},
        {{"state-area", "state", "area", false},
         {"area-edge", "area", "edge", false},
         {"edge-point", "edge", "point", false}});
    ASSERT_TRUE(md.ok());
    md_ = std::make_unique<MoleculeDescription>(*std::move(md));
  }

  Database db_{"GEO_DB"};
  workload::GeoIds ids_;
  std::unique_ptr<MoleculeDescription> md_;
};

TEST_F(OptimizerTest, ReferencedNodesClassification) {
  auto root_ref = e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{1}));
  auto leaf_ref = e::Eq(e::Attr("point", "name"), e::Lit("pn"));
  auto mixed = e::Gt(e::Attr("state", "hectare"), e::Attr("area", "hectare"));
  EXPECT_EQ(*ReferencedNodes(db_, *md_, *root_ref), (std::vector<size_t>{0}));
  EXPECT_EQ(*ReferencedNodes(db_, *md_, *leaf_ref), (std::vector<size_t>{3}));
  EXPECT_EQ(*ReferencedNodes(db_, *md_, *mixed),
            (std::vector<size_t>{0, 1}));
  // Unqualified 'x' resolves uniquely to point.
  EXPECT_EQ(*ReferencedNodes(db_, *md_, *e::Gt(e::Attr("x"), e::Lit(0.0))),
            (std::vector<size_t>{3}));
  // COUNT and FORALL bind their quantified node even without attribute
  // references underneath.
  EXPECT_EQ(*ReferencedNodes(db_, *md_,
                             *e::Ge(e::Count("point"), e::Lit(int64_t{2}))),
            (std::vector<size_t>{3}));
  EXPECT_EQ(*ReferencedNodes(
                db_, *md_,
                *e::ForAll("point", e::Gt(e::Attr("point", "x"),
                                          e::Attr("area", "hectare")))),
            (std::vector<size_t>{1, 3}));
  // Constant predicates reference nothing.
  EXPECT_TRUE(ReferencedNodes(db_, *md_, *e::Lit(true))->empty());
  // Unknown references surface as errors.
  EXPECT_FALSE(ReferencedNodes(db_, *md_, *e::Attr("bogus", "name")).ok());
}

TEST_F(OptimizerTest, SplitsConjunctionPerNode) {
  auto pred = e::And(
      e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{900})),
      e::And(e::Ne(e::Attr("state", "name"), e::Lit("XX")),
             e::Eq(e::Attr("point", "name"), e::Lit("pn"))));
  auto plan = PlanPredicatePushdown(db_, *md_, pred);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->node_filters.size(), 2u);
  EXPECT_EQ(plan->node_filters[0].node_index, 0u);
  EXPECT_EQ(plan->node_filters[0].predicate->ToString(),
            "((state.hectare > 900) AND (state.name != 'XX'))");
  EXPECT_EQ(plan->node_filters[1].node_index, 3u);
  EXPECT_EQ(plan->node_filters[1].predicate->ToString(),
            "(point.name = 'pn')");
  EXPECT_EQ(plan->residual, nullptr);
  EXPECT_TRUE(plan->HasPushdown());
}

TEST_F(OptimizerTest, PushesOnlyATopologicallyOrderedPrefix) {
  // The engine runs node filters in topological order and the residual
  // last, so a conjunct whose node precedes an earlier conjunct's node —
  // and everything after it — stays residual, in WHERE order.
  auto pred = e::And(
      e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{900})),
      e::And(e::Eq(e::Attr("point", "name"), e::Lit("pn")),
             e::And(e::Ne(e::Attr("state", "name"), e::Lit("XX")),
                    e::Gt(e::Attr("point", "x"), e::Lit(0.0)))));
  auto plan = PlanPredicatePushdown(db_, *md_, pred);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->node_filters.size(), 2u);
  EXPECT_EQ(plan->node_filters[0].predicate->ToString(),
            "(state.hectare > 900)");
  EXPECT_EQ(plan->node_filters[1].predicate->ToString(),
            "(point.name = 'pn')");
  ASSERT_NE(plan->residual, nullptr);
  EXPECT_EQ(plan->residual->ToString(),
            "((state.name != 'XX') AND (point.x > 0))");

  // A multi-node conjunct ends the prefix as well.
  auto mixed = PlanPredicatePushdown(
      db_, *md_,
      e::And(e::Gt(e::Attr("state", "hectare"), e::Attr("area", "hectare")),
             e::Eq(e::Attr("state", "name"), e::Lit("SP"))));
  ASSERT_TRUE(mixed.ok());
  EXPECT_TRUE(mixed->node_filters.empty());
  EXPECT_FALSE(mixed->seed.has_value());
  EXPECT_FALSE(mixed->scan_seed.has_value());
}

TEST_F(OptimizerTest, MultiNodeDisjunctionStaysResidual) {
  auto pred = e::Or(e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{900})),
                    e::Eq(e::Attr("point", "name"), e::Lit("pn")));
  auto plan = PlanPredicatePushdown(db_, *md_, pred);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->node_filters.empty());
  ASSERT_NE(plan->residual, nullptr);
  EXPECT_EQ(plan->residual->ToString(), pred->ToString());
  EXPECT_FALSE(plan->HasPushdown());
}

TEST_F(OptimizerTest, SingleNodeDisjunctionIsPushed) {
  // A disjunction confined to one node is still decidable on that node.
  auto pred = e::Or(e::Eq(e::Attr("point", "name"), e::Lit("pn")),
                    e::Gt(e::Attr("point", "x"), e::Lit(100.0)));
  auto plan = PlanPredicatePushdown(db_, *md_, pred);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->node_filters.size(), 1u);
  EXPECT_EQ(plan->node_filters[0].node_index, 3u);
  EXPECT_EQ(plan->node_filters[0].predicate->ToString(), pred->ToString());
  EXPECT_EQ(plan->residual, nullptr);
}

TEST_F(OptimizerTest, CountConjunctIsPushedToItsNode) {
  auto pred = e::And(e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{0})),
                     e::Ge(e::Count("point"), e::Lit(int64_t{2})));
  auto plan = PlanPredicatePushdown(db_, *md_, pred);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->node_filters.size(), 2u);
  EXPECT_EQ(plan->node_filters[0].node_index, 0u);
  EXPECT_EQ(plan->node_filters[1].node_index, 3u);
  EXPECT_EQ(plan->node_filters[1].predicate->ToString(),
            "(COUNT(point) >= 2)");
  EXPECT_EQ(plan->residual, nullptr);
}

TEST_F(OptimizerTest, ConstantPredicateStaysResidual) {
  auto plan = PlanPredicatePushdown(db_, *md_, e::Lit(true));
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->node_filters.empty());
  ASSERT_NE(plan->residual, nullptr);
  EXPECT_FALSE(plan->HasPushdown());
}

TEST_F(OptimizerTest, NullPredicateYieldsEmptyPlan) {
  auto plan = PlanPredicatePushdown(db_, *md_, nullptr);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->node_filters.empty());
  EXPECT_EQ(plan->residual, nullptr);
  EXPECT_FALSE(plan->seed.has_value());
  EXPECT_FALSE(plan->HasPushdown());
}

TEST_F(OptimizerTest, IndexSeedRequiresIndexAndRootEquality) {
  auto pred = e::And(e::Eq(e::Attr("state", "name"), e::Lit("SP")),
                     e::Gt(e::Attr("point", "x"), e::Lit(0.0)));
  // No index yet: the conjunct is pushed, but nothing seeds the roots.
  auto before = PlanPredicatePushdown(db_, *md_, pred);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before->seed.has_value());

  ASSERT_TRUE(db_.CreateIndex("state", "name").ok());
  auto after = PlanPredicatePushdown(db_, *md_, pred);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after->seed.has_value());
  EXPECT_EQ(after->seed->attribute, "name");
  EXPECT_EQ(after->seed->value.ToString(), "'SP'");
  ASSERT_EQ(after->node_filters.size(), 2u);
  // The seed only narrows: the root conjunct still verifies as a filter.
  EXPECT_EQ(after->node_filters[0].predicate->ToString(),
            "(state.name = 'SP')");

  // Inequalities and non-root equalities never seed.
  auto range = PlanPredicatePushdown(
      db_, *md_, e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{900})));
  ASSERT_TRUE(range.ok());
  EXPECT_FALSE(range->seed.has_value());
}

TEST_F(OptimizerTest, SeedsNeedTheRootHeadAtTheView) {
  // The index and the columns mirror the head, so a view the root store's
  // head is not visible at gets neither seed — only the pushed filters.
  ASSERT_TRUE(db_.CreateIndex("state", "name").ok());
  auto equality = e::Eq(e::Attr("state", "name"), e::Lit("SP"));
  auto range = e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{900}));
  std::unique_ptr<Transaction> txn = db_.Begin();
  ASSERT_TRUE(db_.InsertAtom("state", {Value("XX"), Value(int64_t{1})},
                             txn.get())
                  .ok());
  ReaderLock lock(db_.mutex());
  for (const ReadView& view : {txn->view(), ReadView{db_.current_epoch(), 0}}) {
    auto seeded = PlanPredicatePushdown(db_, *md_, equality, view);
    ASSERT_TRUE(seeded.ok());
    EXPECT_FALSE(seeded->seed.has_value());
    EXPECT_EQ(seeded->node_filters.size(), 1u);
    auto scanned = PlanPredicatePushdown(db_, *md_, range, view);
    ASSERT_TRUE(scanned.ok());
    EXPECT_FALSE(scanned->scan_seed.has_value());
    EXPECT_EQ(scanned->node_filters.size(), 1u);
  }
  // The head itself, pending insert included, still seeds.
  EXPECT_TRUE(PlanPredicatePushdown(db_, *md_, equality)->seed.has_value());
  EXPECT_TRUE(PlanPredicatePushdown(db_, *md_, range)->scan_seed.has_value());
  lock.Unlock();
  ASSERT_TRUE(txn->Rollback().ok());
}

/// Canonical keys in result order — the bit-for-bit comparison: same
/// molecules, same atoms and links per molecule, same order.
std::vector<std::string> Keys(const QueryResult& r) {
  std::vector<std::string> keys;
  keys.reserve(r.molecules->size());
  for (const Molecule& m : r.molecules->molecules()) {
    keys.push_back(m.CanonicalKey());
  }
  return keys;
}

TEST_F(OptimizerTest, PushdownAndBaselineAgree) {
  // An index on the root makes the seeded path participate too.
  ASSERT_TRUE(db_.CreateIndex("state", "name").ok());
  const char* queries[] = {
      "SELECT ALL FROM m1(state-area-edge-point) "
      "WHERE state.hectare > 900;",
      "SELECT ALL FROM m2(state-area-edge-point) "
      "WHERE state.hectare > 900 AND point.name = 'pn';",
      "SELECT ALL FROM m3(state-area-edge-point) "
      "WHERE point.name = 'pn';",
      "SELECT ALL FROM m4(state-area-edge-point) "
      "WHERE state.name = 'SP' OR point.name = 'p9';",
      "SELECT state.name FROM m5(state-area-edge-point) "
      "WHERE state.hectare >= 1000 AND NOT state.name = 'SP';",
      "SELECT ALL FROM m6(state-area-edge-point) "
      "WHERE state.name = 'SP' AND point.x >= 0;",
      "SELECT ALL FROM m7(state-area-edge-point) "
      "WHERE COUNT(point) >= 1 AND state.hectare > 0;",
      "SELECT ALL FROM m8(state-area-edge-point) "
      "WHERE FORALL point (point.x >= 0);",
  };
  // Pushdown on/off must agree bit-for-bit, per Theorem 2's closure
  // argument: Σ commutes with the derivation split because each pushed
  // conjunct is decided by the same group either way.
  for (const char* query : queries) {
    SessionOptions off;
    off.enable_root_pushdown = false;
    Session plain(&db_, off);
    auto expected = plain.Execute(query);
    ASSERT_TRUE(expected.ok()) << query << ": " << expected.status();
    Session session(&db_);
    auto result = session.Execute(query);
    ASSERT_TRUE(result.ok()) << query << ": " << result.status();
    EXPECT_EQ(Keys(*result), Keys(*expected)) << query;
  }
}

// Pushed and unpushed plans evaluate the WHERE's conjuncts in the same
// order across nodes. Root 'a' reaches an `ar` atom with n = 0, so a
// leading division on `ar` must raise its error before the later root
// equality can reject 'a' — neither a pushed root filter nor an index seed
// on that equality may run first.
TEST(OptimizerCrossNodeTest, PushdownKeepsConjunctOrderAcrossNodes) {
  const char* queries[] = {
      "SELECT ALL FROM m(st-ar) WHERE 10 / ar.n > 1 AND st.name = 'zz';",
      "SELECT ALL FROM m(st-ar) WHERE 10 / ar.n > 1 AND st.name = 'b';",
      "SELECT ALL FROM m(st-ar) WHERE st.name = 'zz' AND 10 / ar.n > 1;",
      "SELECT ALL FROM m(st-ar) WHERE st.name = 'b' AND 10 / ar.n > 1;",
      "SELECT ALL FROM m(st-ar) WHERE ar.n > 1 AND 10 / ar.n > 1 "
      "AND st.name = 'b';",
  };
  for (bool indexed : {false, true}) {
    Database db("CROSS");
    Session setup(&db);
    ASSERT_TRUE(setup
                    .ExecuteScript(
                        "CREATE ATOM TYPE st (name STRING);"
                        "CREATE ATOM TYPE ar (n INT64);"
                        "CREATE LINK TYPE sa (st, ar);"
                        "INSERT INTO st VALUES ('a'), ('b');"
                        "INSERT INTO ar VALUES (0), (5);"
                        "INSERT LINK sa FROM (name = 'a') TO (n = 0);"
                        "INSERT LINK sa FROM (name = 'b') TO (n = 5);")
                    .ok());
    if (indexed) {
      ASSERT_TRUE(db.CreateIndex("st", "name").ok());
    }
    for (const char* query : queries) {
      SessionOptions off;
      off.enable_root_pushdown = false;
      Session plain(&db, off);
      auto expected = plain.Execute(query);
      Session session(&db);
      auto result = session.Execute(query);
      const std::string where =
          std::string(query) + (indexed ? " (indexed)" : " (no index)");
      if (result.ok() != expected.ok()) {
        ADD_FAILURE() << where << ": pushdown "
                      << (result.ok() ? std::string("ok")
                                      : result.status().ToString())
                      << ", unpushed "
                      << (expected.ok() ? std::string("ok")
                                        : expected.status().ToString());
      } else if (expected.ok()) {
        EXPECT_EQ(Keys(*result), Keys(*expected)) << where;
      } else {
        EXPECT_EQ(result.status().code(), expected.status().code()) << where;
        EXPECT_EQ(result.status().message(), expected.status().message())
            << where;
      }
    }
    // The first query really divides by zero.
    SessionOptions off;
    off.enable_root_pushdown = false;
    Session plain(&db, off);
    EXPECT_FALSE(plain.Execute(queries[0]).ok());
  }
}

TEST_F(OptimizerTest, PushdownDerivesOnlyQualifyingRoots) {
  Session session(&db_);
  auto result = session.Execute(
      "SELECT ALL FROM m(state-area-edge-point) WHERE state.name = 'SP';");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->molecules->size(), 1u);
  EXPECT_EQ(result->molecules->molecules()[0].root(), ids_.states["SP"]);
  // No index on state.name, but the columnar scan seed pre-filters the
  // root column with the batch compare kernel: only the qualifying root
  // fans out, nothing reaches the per-molecule reject path.
  ASSERT_TRUE(result->derivation.has_value());
  EXPECT_EQ(result->derivation->roots, 1u);
  EXPECT_EQ(result->derivation->molecules_rejected, 0u);
}

TEST_F(OptimizerTest, ScanSeedSkippedWhenFirstRootConjunctErrors) {
  // The first root conjunct errors on every row (string + int), so the
  // kernel reports error bits and the scan seed must stand down: the query
  // surfaces the evaluation error exactly as the unseeded path would.
  Session session(&db_);
  auto result = session.Execute(
      "SELECT ALL FROM m(state-area-edge-point) "
      "WHERE state.name > 3 AND state.hectare > 0;");
  EXPECT_FALSE(result.ok());
  // And a disabled-pushdown session reports the identical error.
  SessionOptions options;
  options.enable_root_pushdown = false;
  Session plain(&db_, options);
  auto expected = plain.Execute(
      "SELECT ALL FROM m(state-area-edge-point) "
      "WHERE state.name > 3 AND state.hectare > 0;");
  EXPECT_FALSE(expected.ok());
  EXPECT_EQ(result.status().code(), expected.status().code());
  EXPECT_EQ(result.status().message(), expected.status().message());
}

TEST_F(OptimizerTest, IndexSeedOnALaterConjunctCannotHideAnError) {
  // AND short-circuits left to right, so only the first root conjunct may
  // narrow the roots: seeding from the later `name` equality would skip the
  // hectare-0 state whose first conjunct divides by zero.
  ASSERT_TRUE(db_.CreateIndex("state", "name").ok());
  Session writer(&db_);
  ASSERT_TRUE(writer.Execute("INSERT INTO state VALUES ('ZERO', 0);").ok());
  const std::string query =
      "SELECT ALL FROM m(state-area-edge-point) "
      "WHERE 10 / state.hectare > 1 AND state.name = 'zz';";
  SessionOptions off;
  off.enable_root_pushdown = false;
  Session plain(&db_, off);
  auto expected = plain.Execute(query);
  ASSERT_FALSE(expected.ok());
  Session session(&db_);
  auto result = session.Execute(query);
  ASSERT_FALSE(result.ok()) << "the seeded path hid: " << expected.status();
  EXPECT_EQ(result.status().code(), expected.status().code());
  EXPECT_EQ(result.status().message(), expected.status().message());

  auto plan = PlanPredicatePushdown(
      db_, *md_,
      e::And(e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{0})),
             e::Eq(e::Attr("state", "name"), e::Lit("SP"))));
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->seed.has_value());
}

TEST_F(OptimizerTest, IndexSeedNarrowsTheFanOut) {
  ASSERT_TRUE(db_.CreateIndex("state", "name").ok());
  Session session(&db_);
  auto result = session.Execute(
      "SELECT ALL FROM m(state-area-edge-point) WHERE state.name = 'SP';");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->molecules->size(), 1u);
  EXPECT_EQ(result->molecules->molecules()[0].root(), ids_.states["SP"]);
  // The index bucket seeds exactly the qualifying root: one root fans
  // out, nothing is rejected.
  ASSERT_TRUE(result->derivation.has_value());
  EXPECT_EQ(result->derivation->roots, 1u);
  EXPECT_EQ(result->derivation->molecules_rejected, 0u);
}

// An index-seeded statement derives only the seeded molecules, so its
// pushed programs compile scalar: a batch leaf would sweep the whole root
// column on first use. Without a matching index the same filter runs batch.
TEST_F(OptimizerTest, IndexSeededStatementsCompileScalar) {
  Session session(&db_);
  const std::string explain =
      "EXPLAIN SELECT ALL FROM m(state-area-edge-point) "
      "WHERE state.name = 'SP' AND state.hectare > 0;";
  auto unseeded = session.Execute(explain);
  ASSERT_TRUE(unseeded.ok()) << unseeded.status();
  EXPECT_EQ(unseeded->message.find("seed-index"), std::string::npos);
  EXPECT_NE(unseeded->message.find("batch["), std::string::npos)
      << unseeded->message;

  ASSERT_TRUE(db_.CreateIndex("state", "name").ok());
  auto seeded = session.Execute(explain);
  ASSERT_TRUE(seeded.ok()) << seeded.status();
  EXPECT_NE(seeded->message.find("seed-index"), std::string::npos);
  EXPECT_EQ(seeded->message.find("batch["), std::string::npos)
      << seeded->message;
  EXPECT_NE(seeded->message.find(", scalar"), std::string::npos);
}

}  // namespace
}  // namespace mql
}  // namespace mad
