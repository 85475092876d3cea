// Differential test of the compiled recursive Σ: `SELECT ALL FROM
// part-[composition*] WHERE ...` run through Session::Run (no analyzer, so
// malformed predicates reach the executor) against the per-closure tree
// interpreter the session used to run, kept here as the oracle. Results and
// error Statuses must agree at the head, inside a transaction with pending
// writes, and under PIN SNAPSHOT while another session commits.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "expr/eval.h"
#include "mql/parser.h"
#include "mql/session.h"
#include "mql/translator.h"
#include "workload/bom.h"

namespace mad {
namespace mql {
namespace {

/// The oracle. Evaluates a WHERE predicate over one recursive molecule.
/// Permitted qualifiers: "root" (binds the root atom only), the recursion's
/// atom type (existential over the closure members), or none (unqualified
/// attributes of the atom type).
class RecursiveQualifier {
 public:
  RecursiveQualifier(const Database& db, const RecursiveDescription& rd,
                     const expr::ExprPtr& predicate, ReadView view)
      : db_(db), rd_(rd), predicate_(predicate), view_(view) {}

  Result<bool> Matches(const RecursiveMolecule& m) const {
    return EvalBoolean(*predicate_, m);
  }

 private:
  Result<bool> EvalBoolean(const expr::Expr& e,
                           const RecursiveMolecule& m) const {
    using K = expr::Expr::Kind;
    switch (e.kind()) {
      case K::kAnd: {
        MAD_ASSIGN_OR_RETURN(bool lhs, EvalBoolean(*e.left(), m));
        if (!lhs) return false;
        return EvalBoolean(*e.right(), m);
      }
      case K::kOr: {
        MAD_ASSIGN_OR_RETURN(bool lhs, EvalBoolean(*e.left(), m));
        if (lhs) return true;
        return EvalBoolean(*e.right(), m);
      }
      case K::kNot: {
        MAD_ASSIGN_OR_RETURN(bool operand, EvalBoolean(*e.left(), m));
        return !operand;
      }
      default:
        return EvalExistential(e, m);
    }
  }

  Result<bool> EvalExistential(const expr::Expr& e,
                               const RecursiveMolecule& m) const {
    std::vector<const expr::Expr*> refs;
    e.CollectAttrRefs(&refs);
    bool needs_root = false;
    bool needs_member = false;
    for (const expr::Expr* ref : refs) {
      if (ref->qualifier() == "root") {
        needs_root = true;
      } else if (ref->qualifier().empty() ||
                 ref->qualifier() == rd_.atom_type) {
        needs_member = true;
      } else {
        return Status::InvalidArgument(
            "recursive queries allow the qualifiers 'root' and '" +
            rd_.atom_type + "'; found '" + ref->qualifier() + "'");
      }
    }

    MAD_ASSIGN_OR_RETURN(const AtomType* at, db_.GetAtomType(rd_.atom_type));
    const Schema& schema = at->description();
    const Atom* root_atom = at->occurrence().FindVersionAt(m.root(), view_);
    if (root_atom == nullptr) {
      return Status::Internal("recursive molecule root missing from store");
    }

    expr::BindingSet bindings;
    if (needs_root) bindings.Bind("root", &schema, root_atom);
    if (!needs_member) {
      return expr::EvalPredicate(e, bindings);
    }
    // Existential over every closure member (the root included).
    for (const auto& level : m.levels()) {
      for (AtomId id : level) {
        const Atom* atom = at->occurrence().FindVersionAt(id, view_);
        if (atom == nullptr) {
          return Status::Internal("recursive molecule atom missing from store");
        }
        bindings.Bind(rd_.atom_type, &schema, atom);
        MAD_ASSIGN_OR_RETURN(bool hit, expr::EvalPredicate(e, bindings));
        if (hit) return true;
      }
    }
    return false;
  }

  const Database& db_;
  const RecursiveDescription& rd_;
  const expr::ExprPtr& predicate_;
  ReadView view_;
};

const char* const kStructures[] = {"part-[composition*]",
                                   "part-[composition~*2]"};

/// Root only, member only, mixed, OR/NOT, unqualified, `part.`-qualified,
/// constant, division by zero (raised, and hidden by a short circuit — the
/// value-position OR finds its witness at the root, level 0, before any
/// member that would divide by zero, so it pins level order), and what
/// the recursive scope rejects: a foreign qualifier, an unknown attribute,
/// COUNT and FORALL.
const char* const kWheres[] = {
    "root.name = 'root2'",
    "root.cost > 10000",
    "part.name = 'p3_4'",
    "part.cost < 40",
    "root.cost > part.cost * 20",
    "root.name = 'root1' AND part.cost > 900",
    "part.cost = root.cost - 9990",
    "root.name = 'root3' OR NOT (part.cost > 5)",
    "NOT (root.cost >= 10001)",
    "cost > 990",
    "name = 'p2_3' OR root.name = 'root2'",
    "root.name = 'root1' AND cost < 100",
    "part.cost >= 0 AND part.name != 'p1_1'",
    "1 = 1",
    "1 = 2",
    "root.cost / (part.cost - part.cost) > 1",
    "part.cost > 500 OR 10 / (part.cost - 37) > 0",
    "root.name = 'nomatch' AND part.cost / 0 > 1",
    "root.cost / 0 > 1",
    "(part.name = root.name OR 1 / (part.cost - part.cost) > 0) = (1 = 1)",
    "nosuch.name = 'x'",
    "root.nosuch = 1",
    "nosuch = 1",
    "COUNT(part) > 1",
    "FORALL part (part.cost > 0)",
};

class RecursiveWhereTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::BomScale scale;
    scale.roots = 3;
    scale.depth = 4;
    scale.fanout = 3;
    scale.seed = 11;
    ASSERT_TRUE(workload::GenerateBom(db_, scale).ok());
    session_ = std::make_unique<Session>(&db_);
  }

  /// Runs every structure × WHERE through `session` and the oracle at
  /// `view`, the view that session reads at.
  void ExpectAllMatchOracle(Session& session, ReadView view) {
    size_t errors = 0;
    size_t hits = 0;
    for (const char* structure : kStructures) {
      for (const char* where : kWheres) {
        const std::string text = std::string("SELECT ALL FROM ") + structure +
                                 " WHERE " + where + ";";
        SCOPED_TRACE(text);
        Result<Statement> parsed = ParseStatement(text);
        ASSERT_TRUE(parsed.ok()) << parsed.status();
        const SelectStatement& select = std::get<SelectStatement>(*parsed);
        Result<TranslatedFrom> from =
            TranslateStructure(db_, *select.from.structure);
        ASSERT_TRUE(from.ok()) << from.status();
        ASSERT_TRUE(from->recursive.has_value());
        Result<std::vector<RecursiveMolecule>> closures =
            DeriveRecursiveMolecules(db_, *from->recursive, view);
        ASSERT_TRUE(closures.ok()) << closures.status();
        ASSERT_FALSE(closures->empty());

        RecursiveQualifier oracle(db_, *from->recursive, select.where, view);
        Status oracle_status;
        std::vector<const RecursiveMolecule*> expected;
        for (const RecursiveMolecule& m : *closures) {
          Result<bool> hit = oracle.Matches(m);
          if (!hit.ok()) {
            oracle_status = hit.status();
            break;
          }
          if (*hit) expected.push_back(&m);
        }

        Result<QueryResult> got = session.Run(std::move(parsed).value());
        if (!oracle_status.ok()) {
          ++errors;
          ASSERT_FALSE(got.ok());
          EXPECT_EQ(got.status().ToString(), oracle_status.ToString());
          continue;
        }
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_EQ(got->recursive.size(), expected.size());
        hits += expected.size();
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(got->recursive[i].root(), expected[i]->root());
          EXPECT_EQ(got->recursive[i].levels(), expected[i]->levels());
        }
      }
    }
    // Both outcomes are exercised: errors and non-trivial matches.
    EXPECT_GE(errors, 12u);
    EXPECT_GT(hits, 0u);
  }

  Database db_{"BOM"};
  std::unique_ptr<Session> session_;
};

TEST_F(RecursiveWhereTest, MatchesTheInterpreterAtTheHead) {
  ExpectAllMatchOracle(*session_, ReadView{db_.current_epoch(), 0});
}

TEST_F(RecursiveWhereTest, MatchesTheInterpreterInsideATransaction) {
  ASSERT_TRUE(session_->Execute("BEGIN;").ok());
  for (const char* write :
       {"UPDATE part SET cost = cost + 1000 WHERE name = 'p3_4';",
        "UPDATE part SET name = 'root9' WHERE name = 'root2';",
        "UPDATE part SET cost = 37 WHERE name = 'p2_3';",
        "DELETE FROM part WHERE name = 'p1_2';"}) {
    auto written = session_->Execute(write);
    ASSERT_TRUE(written.ok()) << write << ": " << written.status();
  }
  const std::vector<TransactionInfo> open = db_.ActiveTransactions();
  ASSERT_EQ(open.size(), 1u);
  ExpectAllMatchOracle(
      *session_,
      ReadView{open[0].snapshot_epoch, kPendingEpochBase + open[0].id});
  ASSERT_TRUE(session_->Execute("ROLLBACK;").ok());
}

TEST_F(RecursiveWhereTest, MatchesTheInterpreterUnderAPinnedSnapshot) {
  auto pinned = session_->Execute("SET PIN SNAPSHOT ON;");
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  const uint64_t epoch = pinned->epoch;
  Session writer(&db_);
  for (const char* write :
       {"UPDATE part SET cost = cost + 1000 WHERE name = 'p3_4';",
        "UPDATE part SET name = 'root9' WHERE name = 'root2';",
        "DELETE FROM part WHERE name = 'p1_2';"}) {
    auto written = writer.Execute(write);
    ASSERT_TRUE(written.ok()) << write << ": " << written.status();
  }
  ASSERT_GT(db_.current_epoch(), epoch);
  ExpectAllMatchOracle(*session_, ReadView{epoch, 0});
}

// The interpreter bound `root` and the member together for a leaf naming
// both, so an unqualified attribute beside `root.` was ambiguous at run time
// although sema resolves it to the member. The compiled Σ binds it the way
// sema checks it.
TEST_F(RecursiveWhereTest, UnqualifiedBesideRootBindsTheMember) {
  auto qualified = session_->Execute(
      "SELECT ALL FROM part-[composition*] WHERE root.cost > part.cost * 20;");
  ASSERT_TRUE(qualified.ok()) << qualified.status();
  ASSERT_FALSE(qualified->recursive.empty());
  auto unqualified = session_->Execute(
      "SELECT ALL FROM part-[composition*] WHERE root.cost > cost * 20;");
  ASSERT_TRUE(unqualified.ok()) << unqualified.status();
  ASSERT_EQ(unqualified->recursive.size(), qualified->recursive.size());
  for (size_t i = 0; i < qualified->recursive.size(); ++i) {
    EXPECT_EQ(unqualified->recursive[i].root(),
              qualified->recursive[i].root());
  }
}

}  // namespace
}  // namespace mql
}  // namespace mad
