// Differential coverage of the view-taking store reads (DESIGN.md §11):
// whenever the head is visible at a view — the named head view kHeadView,
// or a committed epoch with nothing pending — FindVersionAt, ContainsAt,
// PartnersAt and SnapshotAt must answer exactly what the head reads Find,
// Contains, Partners and atoms() answer: the same pointers, the same
// partner list object, the same order. Covered for present ids, absent
// ids, ids whose older versions sit in the archive, and while another
// transaction holds pending inserts, updates and erases in the head.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "storage/database.h"

namespace mad {
namespace {

Schema NamedSchema() {
  Schema s;
  EXPECT_TRUE(s.AddAttribute("name", DataType::kString).ok());
  return s;
}

class ReadViewTest : public ::testing::Test {
 protected:
  /// Ten parts in a chain plus a few shortcuts, then committed churn behind
  /// an old pin so the archive holds superseded and deleted versions.
  void SetUp() override {
    ASSERT_TRUE(db_.DefineAtomType("part", NamedSchema()).ok());
    ASSERT_TRUE(db_.DefineLinkType("composition", "part", "part").ok());
    for (int i = 0; i < 10; ++i) {
      std::string name = "p";
      name += std::to_string(i);
      auto id = db_.InsertAtom("part", {Value(name)});
      ASSERT_TRUE(id.ok());
      ids_.push_back(*id);
    }
    for (size_t i = 0; i + 1 < ids_.size(); ++i) {
      ASSERT_TRUE(db_.InsertLink("composition", ids_[i], ids_[i + 1]).ok());
    }
    ASSERT_TRUE(db_.InsertLink("composition", ids_[0], ids_[5]).ok());
    ASSERT_TRUE(db_.InsertLink("composition", ids_[2], ids_[7]).ok());

    {
      ReaderLock lock(db_.mutex());
      old_pin_ = db_.PinEpoch();
    }
    ASSERT_TRUE(db_.UpdateAtom("part", ids_[1], {Value("p1-v2")}).ok());
    ASSERT_TRUE(db_.UpdateAtom("part", ids_[1], {Value("p1-v3")}).ok());
    ASSERT_TRUE(db_.DeleteAtom("part", ids_[4]).ok());  // cascades 3->4, 4->5
    ASSERT_TRUE(db_.EraseLink("composition", ids_[0], ids_[5]).ok());
    ASSERT_GT(Parts().archived_count(), 0u);
    ASSERT_GT(Compositions().archived_count(), 0u);
  }

  const AtomStore& Parts() {
    auto at = db_.GetAtomType("part");
    EXPECT_TRUE(at.ok());
    return (*at)->occurrence();
  }

  const LinkStore& Compositions() {
    auto lt = db_.GetLinkType("composition");
    EXPECT_TRUE(lt.ok());
    return (*lt)->occurrence();
  }

  /// Every id ever handed out, plus ids no atom ever had.
  std::vector<AtomId> Probes() const {
    std::vector<AtomId> probes = ids_;
    for (AtomId id : extra_) probes.push_back(id);
    const uint64_t top = probes.empty() ? 0 : probes.back().value;
    probes.push_back(AtomId{top + 100});
    probes.push_back(AtomId{top + 101});
    return probes;
  }

  /// The head is visible at `view`, so every view-taking read must be the
  /// head read itself.
  void ExpectViewReadsAreHeadReads(const ReadView& view) {
    ReaderLock lock(db_.mutex());
    const AtomStore& parts = Parts();
    const LinkStore& links = Compositions();
    ASSERT_TRUE(parts.HeadVisibleAt(view));
    ASSERT_TRUE(links.HeadVisibleAt(view));

    const std::vector<AtomId> probes = Probes();
    for (AtomId id : probes) {
      SCOPED_TRACE("atom #" + std::to_string(id.value));
      EXPECT_EQ(parts.FindVersionAt(id, view), parts.Find(id));
      EXPECT_EQ(parts.ContainsAt(id, view), parts.Contains(id));
      for (LinkDirection direction :
           {LinkDirection::kForward, LinkDirection::kBackward}) {
        std::vector<AtomId> scratch;
        const std::vector<AtomId>& at_view =
            links.PartnersAt(id, direction, view, &scratch);
        EXPECT_EQ(&at_view, &links.Partners(id, direction));
        EXPECT_TRUE(scratch.empty());
      }
      for (AtomId other : probes) {
        EXPECT_EQ(links.ContainsAt(id, other, view),
                  links.Contains(id, other));
      }
    }

    const std::vector<const Atom*> snapshot = parts.SnapshotAt(view);
    ASSERT_EQ(snapshot.size(), parts.atoms().size());
    for (size_t i = 0; i < snapshot.size(); ++i) {
      EXPECT_EQ(snapshot[i], &parts.atoms()[i]) << "row " << i;
    }
  }

  Database db_{"READ_VIEW_DB"};
  std::vector<AtomId> ids_;
  std::vector<AtomId> extra_;  // atoms inserted by a test
  EpochPin old_pin_;
};

TEST_F(ReadViewTest, DefaultReadViewStaysAtEpochZero) {
  EXPECT_EQ(ReadView{}.epoch, 0u);
  EXPECT_EQ(ReadView{}.self_stamp, 0u);
  EXPECT_EQ(kHeadView.self_stamp, 0u);
  EXPECT_TRUE(IsPendingEpoch(kHeadView.epoch));
  EXPECT_LT(kHeadView.epoch, kNeverDeleted);
  ReaderLock lock(db_.mutex());
  EXPECT_FALSE(Parts().HeadVisibleAt(ReadView{}));
}

TEST_F(ReadViewTest, HeadViewReadsTheHead) {
  ExpectViewReadsAreHeadReads(kHeadView);
}

TEST_F(ReadViewTest, HeadVisibleCommittedEpochReadsTheHead) {
  ExpectViewReadsAreHeadReads(ReadView{db_.current_epoch(), 0});
}

TEST_F(ReadViewTest, ArchivedVersionsStayReadableBehindTheHead) {
  ReaderLock lock(db_.mutex());
  const ReadView old_view = old_pin_.view();
  ASSERT_FALSE(Parts().HeadVisibleAt(old_view));
  const Atom* old_p1 = Parts().FindVersionAt(ids_[1], old_view);
  ASSERT_NE(old_p1, nullptr);
  EXPECT_EQ(old_p1->values[0].AsString(), "p1");
  EXPECT_EQ(Parts().Find(ids_[1])->values[0].AsString(), "p1-v3");
  // Deleted since the pin: gone from the head, still in the old snapshot.
  EXPECT_EQ(Parts().Find(ids_[4]), nullptr);
  EXPECT_NE(Parts().FindVersionAt(ids_[4], old_view), nullptr);
  EXPECT_EQ(Parts().FindVersionAt(ids_[4], kHeadView), nullptr);
  EXPECT_EQ(Parts().FindVersionAt(AtomId{9999}, old_view), nullptr);
  std::vector<AtomId> scratch;
  const std::vector<AtomId>& old_partners = Compositions().PartnersAt(
      ids_[0], LinkDirection::kForward, old_view, &scratch);
  EXPECT_EQ(&old_partners, &scratch);
  EXPECT_EQ(old_partners, (std::vector<AtomId>{ids_[1], ids_[5]}));
  EXPECT_EQ(Compositions().Partners(ids_[0], LinkDirection::kForward),
            (std::vector<AtomId>{ids_[1]}));
}

TEST_F(ReadViewTest, HeadViewReadsPendingWritesOfAnOpenTransaction) {
  std::unique_ptr<Transaction> txn = db_.Begin();
  auto fresh = db_.InsertAtom("part", {Value("fresh")}, txn.get());
  ASSERT_TRUE(fresh.ok());
  extra_.push_back(*fresh);
  ASSERT_TRUE(
      db_.UpdateAtom("part", ids_[2], {Value("p2-pending")}, txn.get()).ok());
  ASSERT_TRUE(db_.DeleteAtom("part", ids_[8], txn.get()).ok());
  ASSERT_TRUE(
      db_.EraseLink("composition", ids_[6], ids_[7], txn.get()).ok());
  ASSERT_TRUE(
      db_.InsertLink("composition", *fresh, ids_[0], txn.get()).ok());
  ASSERT_GT(Parts().pending_count(), 0u);
  ASSERT_GT(Compositions().pending_count(), 0u);

  // kHeadView stays head-visible with writes pending: it is the head.
  ExpectViewReadsAreHeadReads(kHeadView);

  ReaderLock lock(db_.mutex());
  const ReadView committed{db_.current_epoch(), 0};
  const ReadView own = txn->view();
  for (const ReadView& view : {committed, own}) {
    EXPECT_FALSE(Parts().HeadVisibleAt(view));
    EXPECT_FALSE(Compositions().HeadVisibleAt(view));
  }
  // Another reader at the committed epoch sees none of the pending writes.
  EXPECT_EQ(Parts().FindVersionAt(*fresh, committed), nullptr);
  EXPECT_EQ(Parts().FindVersionAt(ids_[2], committed)->values[0].AsString(),
            "p2");
  EXPECT_NE(Parts().FindVersionAt(ids_[8], committed), nullptr);
  std::vector<AtomId> scratch;
  EXPECT_EQ(Compositions().PartnersAt(ids_[6], LinkDirection::kForward,
                                      committed, &scratch),
            (std::vector<AtomId>{ids_[7]}));
  // The writing transaction sees exactly the head for what it wrote.
  EXPECT_EQ(Parts().FindVersionAt(*fresh, own), Parts().Find(*fresh));
  EXPECT_EQ(Parts().FindVersionAt(ids_[2], own), Parts().Find(ids_[2]));
  EXPECT_EQ(Parts().FindVersionAt(ids_[8], own), nullptr);
  EXPECT_EQ(Compositions().PartnersAt(*fresh, LinkDirection::kForward, own,
                                      &scratch),
            Compositions().Partners(*fresh, LinkDirection::kForward));
  lock.Unlock();
  ASSERT_TRUE(txn->Rollback().ok());
}

}  // namespace
}  // namespace mad
