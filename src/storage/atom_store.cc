#include "storage/atom_store.h"

#include <algorithm>

namespace mad {

Status AtomStore::Insert(Atom atom, uint64_t create_epoch) {
  if (!atom.id.valid()) {
    return Status::InvalidArgument("atom id must be valid");
  }
  if (by_id_.Find(atom.id.value) != nullptr) {
    return Status::AlreadyExists("atom #" + std::to_string(atom.id.value) +
                                 " already present");
  }
  by_id_.Assign(atom.id.value, atoms_.size());
  atoms_.push_back(std::move(atom));
  columns_.AppendRow(atoms_.back());
  meta_.push_back(VersionMeta{create_epoch, next_seq_++});
  NoteEpoch(create_epoch);
  return Status::OK();
}

Status AtomStore::Erase(AtomId id) {
  const uint64_t* found = by_id_.Find(id.value);
  if (found == nullptr) {
    return Status::NotFound("atom #" + std::to_string(id.value) +
                            " not present");
  }
  const size_t pos = static_cast<size_t>(*found);
  if (IsPendingEpoch(meta_[pos].create_epoch)) --pending_count_;
  by_id_.Erase(id.value);
  atoms_.erase(atoms_.begin() + static_cast<ptrdiff_t>(pos));
  meta_.erase(meta_.begin() + static_cast<ptrdiff_t>(pos));
  columns_.EraseRow(pos);
  // Reindex the tail to keep insertion order stable.
  for (size_t i = pos; i < atoms_.size(); ++i) {
    by_id_.Assign(atoms_[i].id.value, i);
  }
  return Status::OK();
}

Result<AtomStore::ArchiveHandle> AtomStore::Archive(AtomId id,
                                                    uint64_t delete_epoch) {
  const uint64_t* found = by_id_.Find(id.value);
  if (found == nullptr) {
    return Status::NotFound("atom #" + std::to_string(id.value) +
                            " not present");
  }
  const size_t pos = static_cast<size_t>(*found);
  archived_.push_back(ArchivedAtom{std::move(atoms_[pos]),
                                   meta_[pos].create_epoch, delete_epoch,
                                   meta_[pos].seq});
  // The create stamp's pending count moves with the version; only the new
  // delete stamp is accounted here.
  by_id_.Erase(id.value);
  atoms_.erase(atoms_.begin() + static_cast<ptrdiff_t>(pos));
  meta_.erase(meta_.begin() + static_cast<ptrdiff_t>(pos));
  columns_.EraseRow(pos);
  for (size_t i = pos; i < atoms_.size(); ++i) {
    by_id_.Assign(atoms_[i].id.value, i);
  }
  NoteEpoch(delete_epoch);
  return std::prev(archived_.end());
}

Status AtomStore::Resurrect(ArchiveHandle handle) {
  if (by_id_.Find(handle->atom.id.value) != nullptr) {
    return Status::AlreadyExists("atom #" +
                                 std::to_string(handle->atom.id.value) +
                                 " re-entered the head before resurrection");
  }
  if (IsPendingEpoch(handle->delete_epoch)) --pending_count_;
  // Reinsert at the seq-sorted position so head order stays the insertion
  // order of the surviving versions.
  auto pos_it = std::lower_bound(
      meta_.begin(), meta_.end(), handle->seq,
      [](const VersionMeta& m, uint64_t seq) { return m.seq < seq; });
  size_t pos = static_cast<size_t>(pos_it - meta_.begin());
  atoms_.insert(atoms_.begin() + static_cast<ptrdiff_t>(pos),
                std::move(handle->atom));
  columns_.InsertRow(pos, atoms_[pos]);
  meta_.insert(pos_it, VersionMeta{handle->create_epoch, handle->seq});
  for (size_t i = pos; i < atoms_.size(); ++i) {
    by_id_.Assign(atoms_[i].id.value, i);
  }
  archived_.erase(handle);
  return Status::OK();
}

void AtomStore::RestampCreate(AtomId id, uint64_t epoch) {
  const uint64_t* pos = by_id_.Find(id.value);
  if (pos == nullptr) return;
  VersionMeta& meta = meta_[*pos];
  if (!IsPendingEpoch(meta.create_epoch)) return;
  meta.create_epoch = epoch;
  NoteRestamp(epoch);
}

void AtomStore::RestampArchived(ArchiveHandle handle, uint64_t epoch) {
  if (IsPendingEpoch(handle->create_epoch)) {
    handle->create_epoch = epoch;
    NoteRestamp(epoch);
  }
  if (IsPendingEpoch(handle->delete_epoch)) {
    handle->delete_epoch = epoch;
    NoteRestamp(epoch);
  }
}

void AtomStore::DropArchived(ArchiveHandle handle) {
  if (IsPendingEpoch(handle->delete_epoch)) --pending_count_;
  if (IsPendingEpoch(handle->create_epoch)) --pending_count_;
  archived_.erase(handle);
}

void AtomStore::MoveToBack(const std::vector<AtomId>& ids) {
  std::vector<size_t> moving;
  moving.reserve(ids.size());
  for (AtomId id : ids) {
    if (const uint64_t* pos = by_id_.Find(id.value)) moving.push_back(*pos);
  }
  if (moving.empty()) return;
  std::sort(moving.begin(), moving.end());
  moving.erase(std::unique(moving.begin(), moving.end()), moving.end());
  // Stable partition of the tail that starts at the first moving row: the
  // rows that stay slide up, the moving rows follow in their old order.
  const size_t first = moving.front();
  std::vector<Atom> moved;
  std::vector<uint64_t> moved_epochs;
  moved.reserve(moving.size());
  moved_epochs.reserve(moving.size());
  size_t out = first;
  size_t next = 0;
  for (size_t r = first; r < atoms_.size(); ++r) {
    if (next < moving.size() && moving[next] == r) {
      moved.push_back(std::move(atoms_[r]));
      moved_epochs.push_back(meta_[r].create_epoch);
      ++next;
      continue;
    }
    if (out != r) {
      atoms_[out] = std::move(atoms_[r]);
      meta_[out] = meta_[r];
    }
    ++out;
  }
  for (size_t k = 0; k < moved.size(); ++k, ++out) {
    atoms_[out] = std::move(moved[k]);
    meta_[out] = VersionMeta{moved_epochs[k], next_seq_++};
  }
  // The column mirror drops the tail and re-appends it in the new order.
  for (size_t r = atoms_.size(); r > first; --r) columns_.EraseRow(r - 1);
  for (size_t r = first; r < atoms_.size(); ++r) {
    columns_.AppendRow(atoms_[r]);
    by_id_.Assign(atoms_[r].id.value, r);
  }
}

size_t AtomStore::ReclaimBefore(uint64_t horizon) {
  size_t reclaimed = 0;
  for (auto it = archived_.begin(); it != archived_.end();) {
    if (!IsPendingEpoch(it->delete_epoch) && it->delete_epoch <= horizon) {
      it = archived_.erase(it);
      ++reclaimed;
    } else {
      ++it;
    }
  }
  return reclaimed;
}

const Atom* AtomStore::FindVersionBehindHead(AtomId id,
                                             const ReadView& view) const {
  const uint64_t* pos = by_id_.Find(id.value);
  if (pos != nullptr &&
      VisibleAt(meta_[*pos].create_epoch, kNeverDeleted, view)) {
    return &atoms_[*pos];
  }
  // Version intervals of one id are disjoint, so at most one archived
  // version is visible at any view.
  for (const ArchivedAtom& a : archived_) {
    if (a.atom.id == id && VisibleAt(a.create_epoch, a.delete_epoch, view)) {
      return &a.atom;
    }
  }
  return nullptr;
}

std::vector<const Atom*> AtomStore::SnapshotAt(const ReadView& view) const {
  AssertOwnerSharedHeld();
  std::vector<const Atom*> out;
  if (HeadVisibleAt(view)) {
    out.reserve(atoms_.size());
    for (const Atom& atom : atoms_) out.push_back(&atom);
    return out;
  }
  std::vector<std::pair<uint64_t, const Atom*>> ordered;
  ordered.reserve(atoms_.size());
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (VisibleAt(meta_[i].create_epoch, kNeverDeleted, view)) {
      ordered.emplace_back(meta_[i].seq, &atoms_[i]);
    }
  }
  for (const ArchivedAtom& a : archived_) {
    if (VisibleAt(a.create_epoch, a.delete_epoch, view)) {
      ordered.emplace_back(a.seq, &a.atom);
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.reserve(ordered.size());
  for (const auto& [seq, atom] : ordered) out.push_back(atom);
  return out;
}

}  // namespace mad
