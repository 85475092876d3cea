// End-to-end MQL transaction coverage: BEGIN / COMMIT / ROLLBACK round-trip
// through the session, snapshot isolation between two sessions on one
// database, MQL0601 write-write conflicts, the MQL0505/0506 analyzer
// warnings, SHOW TRANSACTIONS, and the DDL-in-transaction guard.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "mql/session.h"

namespace mad {
namespace mql {
namespace {

class MqlTxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    writer_ = std::make_unique<Session>(&db_);
    reader_ = std::make_unique<Session>(&db_);
    ASSERT_TRUE(writer_
                    ->ExecuteScript(
                        "CREATE ATOM TYPE part (name STRING);"
                        "CREATE LINK TYPE composition (part, part);"
                        "INSERT INTO part VALUES ('engine'), ('piston');")
                    .ok());
  }

  size_t CountParts(Session& session) {
    auto result = session.Execute("SELECT ALL FROM part;");
    EXPECT_TRUE(result.ok()) << result.status();
    return result->molecules->size();
  }

  Database db_{"TXN_DB"};
  std::unique_ptr<Session> writer_;
  std::unique_ptr<Session> reader_;
};

TEST_F(MqlTxnTest, BeginCommitRoundTrip) {
  auto begin = writer_->Execute("BEGIN;");
  ASSERT_TRUE(begin.ok());
  EXPECT_TRUE(writer_->in_transaction());
  EXPECT_NE(begin->message.find("started at epoch"), std::string::npos);

  ASSERT_TRUE(writer_->Execute("INSERT INTO part VALUES ('valve');").ok());

  // The writer reads its own pending insert; the reader does not.
  EXPECT_EQ(CountParts(*writer_), 3u);
  EXPECT_EQ(CountParts(*reader_), 2u);

  auto commit = writer_->Execute("COMMIT;");
  ASSERT_TRUE(commit.ok()) << commit.status();
  EXPECT_FALSE(writer_->in_transaction());
  EXPECT_EQ(commit->epoch, db_.current_epoch());

  EXPECT_EQ(CountParts(*reader_), 3u);
}

TEST_F(MqlTxnTest, RollbackDiscardsEveryPendingWrite) {
  ASSERT_TRUE(writer_->Execute("BEGIN TRANSACTION;").ok());
  ASSERT_TRUE(writer_->Execute("INSERT INTO part VALUES ('scrap');").ok());
  ASSERT_TRUE(
      writer_->Execute("DELETE FROM part WHERE name = 'piston';").ok());
  EXPECT_EQ(CountParts(*writer_), 2u);  // +scrap, -piston

  auto rollback = writer_->Execute("ROLLBACK;");
  ASSERT_TRUE(rollback.ok());
  EXPECT_FALSE(writer_->in_transaction());
  EXPECT_EQ(CountParts(*writer_), 2u);  // engine, piston — as before
  EXPECT_EQ(CountParts(*reader_), 2u);
  EXPECT_TRUE(db_.CheckConsistency().ok());
}

TEST_F(MqlTxnTest, SelectsPinTheSnapshotEpoch) {
  auto before = reader_->Execute("SELECT ALL FROM part;");
  ASSERT_TRUE(before.ok());
  const uint64_t epoch_before = before->epoch;
  ASSERT_TRUE(writer_->Execute("INSERT INTO part VALUES ('valve');").ok());
  auto after = reader_->Execute("SELECT ALL FROM part;");
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->epoch, epoch_before);
  EXPECT_EQ(after->molecules->size(), 3u);
}

TEST_F(MqlTxnTest, WriteWriteConflictSurfacesAsMql0601) {
  ASSERT_TRUE(writer_->Execute("BEGIN;").ok());
  ASSERT_TRUE(
      writer_->Execute("UPDATE part SET name = 'engine-w' WHERE name = 'engine';")
          .ok());

  // The reader session (autocommit) touches the same atom: conflict, and
  // the status line carries the MQL0601 diagnostic code.
  auto clash =
      reader_->Execute("UPDATE part SET name = 'engine-r' WHERE name = 'engine';");
  ASSERT_FALSE(clash.ok());
  EXPECT_NE(clash.status().message().find("MQL0601"), std::string::npos)
      << clash.status();
  EXPECT_TRUE(Database::IsWriteConflict(clash.status()));

  ASSERT_TRUE(writer_->Execute("COMMIT;").ok());
  auto engine = writer_->Execute("SELECT ALL FROM part WHERE name = 'engine-w';");
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->molecules->size(), 1u);
}

TEST_F(MqlTxnTest, NestedBeginWarnsAndKeepsTheOpenTransaction) {
  ASSERT_TRUE(writer_->Execute("BEGIN;").ok());
  ASSERT_TRUE(writer_->Execute("INSERT INTO part VALUES ('valve');").ok());

  auto nested = writer_->Execute("BEGIN;");
  ASSERT_TRUE(nested.ok());  // warning, not error
  ASSERT_FALSE(nested->diagnostics.empty());
  EXPECT_STREQ(nested->diagnostics[0].code(), "MQL0505");
  EXPECT_NE(nested->message.find("already open"), std::string::npos);

  // The pending insert survived the nested BEGIN.
  ASSERT_TRUE(writer_->Execute("COMMIT;").ok());
  EXPECT_EQ(CountParts(*reader_), 3u);
}

TEST_F(MqlTxnTest, CommitWithoutBeginWarns) {
  auto commit = writer_->Execute("COMMIT;");
  ASSERT_TRUE(commit.ok());
  ASSERT_FALSE(commit->diagnostics.empty());
  EXPECT_STREQ(commit->diagnostics[0].code(), "MQL0506");
  EXPECT_NE(commit->message.find("no open transaction"), std::string::npos);

  auto rollback = writer_->Execute("ROLLBACK;");
  ASSERT_TRUE(rollback.ok());
  ASSERT_FALSE(rollback->diagnostics.empty());
  EXPECT_STREQ(rollback->diagnostics[0].code(), "MQL0506");
}

TEST_F(MqlTxnTest, DdlIsRejectedInsideATransaction) {
  ASSERT_TRUE(writer_->Execute("BEGIN;").ok());
  auto ddl = writer_->Execute("CREATE ATOM TYPE other (name STRING);");
  ASSERT_FALSE(ddl.ok());
  EXPECT_EQ(ddl.status().code(), StatusCode::kInvalidArgument);
  auto checkpoint = writer_->Execute("CHECKPOINT;");
  ASSERT_FALSE(checkpoint.ok());
  ASSERT_TRUE(writer_->Execute("ROLLBACK;").ok());
}

TEST_F(MqlTxnTest, ShowTransactionsListsTheOpenOne) {
  auto idle = writer_->Execute("SHOW TRANSACTIONS;");
  ASSERT_TRUE(idle.ok());
  EXPECT_NE(idle->message.find("no open transactions"), std::string::npos);

  ASSERT_TRUE(writer_->Execute("BEGIN;").ok());
  ASSERT_TRUE(writer_->Execute("INSERT INTO part VALUES ('valve');").ok());
  auto open = writer_->Execute("SHOW TRANSACTIONS;");
  ASSERT_TRUE(open.ok());
  EXPECT_NE(open->message.find("1 open transaction"), std::string::npos);
  EXPECT_NE(open->message.find("epoch"), std::string::npos);
  ASSERT_TRUE(writer_->Execute("ROLLBACK;").ok());
}

// Regression test for the op-count race: SHOW TRANSACTIONS samples every
// open transaction's operation count from whatever thread runs the
// statement, concurrently with the owning session bumping it — the counter
// is atomic precisely for that cross-thread read (the tsan CI job runs
// this test under ThreadSanitizer).
TEST_F(MqlTxnTest, ShowTransactionsRacesTheWritersOpCount) {
  ASSERT_TRUE(writer_->Execute("BEGIN;").ok());
  std::atomic<bool> done{false};
  std::thread observer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      auto shown = reader_->Execute("SHOW TRANSACTIONS;");
      EXPECT_TRUE(shown.ok()) << shown.status();
    }
  });
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(writer_->Execute("INSERT INTO part VALUES ('valve');").ok());
  }
  done.store(true, std::memory_order_relaxed);
  observer.join();
  ASSERT_TRUE(writer_->Execute("ROLLBACK;").ok());
  EXPECT_EQ(CountParts(*reader_), 2u);
}

TEST_F(MqlTxnTest, SessionDestructionRollsBackTheOpenTransaction) {
  ASSERT_TRUE(writer_->Execute("BEGIN;").ok());
  ASSERT_TRUE(writer_->Execute("DELETE FROM part;").ok());
  writer_.reset();  // dies with the transaction open
  EXPECT_FALSE(db_.HasActiveTransactions());
  EXPECT_EQ(CountParts(*reader_), 2u);
  EXPECT_TRUE(db_.CheckConsistency().ok());
}

TEST_F(MqlTxnTest, ExplainPlansAtTheSessionsView) {
  // Both leaves are batch-eligible while the head is every reader's view.
  const char* explain =
      "EXPLAIN SELECT ALL FROM part WHERE part.name = 'engine' OR "
      "part.name = 'x';";
  auto clean = writer_->Execute(explain);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_NE(clean->message.find("batch[2/2 leaves]"), std::string::npos)
      << clean->message;

  // A pending write makes the head differ from the transaction's view, so
  // SELECT compiles the predicate scalar there; EXPLAIN must plan the same.
  ASSERT_TRUE(writer_->Execute("BEGIN;").ok());
  ASSERT_TRUE(
      writer_->Execute("UPDATE part SET name = 'motor' WHERE name = 'piston';")
          .ok());
  for (Session* session : {writer_.get(), reader_.get()}) {
    auto pending = session->Execute(explain);
    ASSERT_TRUE(pending.ok()) << pending.status();
    EXPECT_NE(pending->message.find("loops over {part}, scalar"),
              std::string::npos)
        << pending->message;
    EXPECT_EQ(pending->message.find("batch["), std::string::npos)
        << pending->message;
  }
  ASSERT_TRUE(writer_->Execute("ROLLBACK;").ok());
}

}  // namespace
}  // namespace mql
}  // namespace mad
