#include "mql/session.h"

#include <algorithm>
#include <atomic>

#include "expr/compile.h"
#include "expr/eval.h"
#include "molecule/derivation.h"
#include "molecule/operations.h"
#include "mql/optimizer.h"
#include "mql/parser.h"
#include "mql/sema.h"
#include "mql/translator.h"
#include "text/printer.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace mad {
namespace mql {

namespace {

/// Monotone id shared by every Session in the process, so labeled metric
/// names never collide across concurrently-live sessions.
std::atomic<uint64_t> g_next_session_id{1};

/// Evaluates a WHERE predicate over one recursive molecule. Permitted
/// qualifiers: "root" (binds the root atom only), the recursion's atom
/// type (existential over the closure members), or none (unqualified
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

}  // namespace

Session::Session(Database* db, SessionOptions options)
    : db_(db),
      options_(options),
      session_id_(g_next_session_id.fetch_add(1, std::memory_order_relaxed)),
      session_metrics_(Registry::Global(),
                       "mql.session." + std::to_string(session_id_) + ".") {
  session_statements_ = &session_metrics_.GetCounter("statements");
  session_latency_ = &session_metrics_.GetHistogram("statement_us");
  if (options_.pin_snapshot) RefreshSnapshotPin();
}

Session::~Session() = default;  // txn_ rolls back via Transaction's dtor

ReadView Session::CurrentView() const {
  if (txn_ != nullptr) return txn_->view();
  if (snapshot_pin_.pinned()) return snapshot_pin_.view();
  return ReadView{db_->current_epoch(), 0};
}

void Session::RefreshSnapshotPin() {
  ReaderLock read_lock(db_->mutex());
  snapshot_pin_ = db_->PinEpoch();
}

Status Session::RequireNoTransaction(const char* what) const {
  if (txn_ == nullptr) return Status::OK();
  return Status::InvalidArgument(
      std::string(what) + " is not allowed inside a transaction; COMMIT or "
      "ROLLBACK transaction #" + std::to_string(txn_->id()) + " first");
}

Status Session::WrapConflict(Status status) {
  if (!Database::IsWriteConflict(status)) return status;
  Diagnostic diag;
  diag.id = DiagId::kTxnConflict;
  diag.message = status.message();
  return Status(DiagStatusCode(DiagId::kTxnConflict),
                FormatDiagnosticLine(diag));
}

Result<QueryResult> Session::Execute(const std::string& text) {
  MAD_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(text));
  std::vector<Diagnostic> diags = AnalyzeStatement(
      *db_, registry_, stmt, AnalyzerContext{txn_ != nullptr});
  if (HasErrors(diags)) return DiagnosticsToStatus(diags);
  Result<QueryResult> result = Run(std::move(stmt));
  if (result.ok()) {
    for (Diagnostic& warning : WarningsOnly(diags)) {
      result->diagnostics.push_back(std::move(warning));
    }
  }
  return result;
}

Result<std::vector<QueryResult>> Session::ExecuteScript(
    const std::string& text) {
  MAD_ASSIGN_OR_RETURN(std::vector<Statement> statements, ParseScript(text));
  std::vector<QueryResult> results;
  results.reserve(statements.size());
  for (Statement& stmt : statements) {
    // Analyze per statement, not upfront: later statements must see the
    // catalog effects of earlier DDL in the script (and the transaction
    // lints the BEGIN/COMMIT state of earlier statements).
    std::vector<Diagnostic> diags = AnalyzeStatement(
        *db_, registry_, stmt, AnalyzerContext{txn_ != nullptr});
    if (HasErrors(diags)) return DiagnosticsToStatus(diags);
    Result<QueryResult> result = Run(std::move(stmt));
    if (!result.ok()) return result.status();
    for (Diagnostic& warning : WarningsOnly(diags)) {
      result->diagnostics.push_back(std::move(warning));
    }
    results.push_back(std::move(*result));
  }
  return results;
}

Result<QueryResult> Session::Run(Statement statement) {
  // Process-wide aggregates (stable names, pinned by dashboards and tests)
  // plus this session's labeled handles — per-session observability was
  // impossible when these were only function-local statics.
  static Counter& statements = Registry::Global().GetCounter("mql.statements");
  static Histogram& latency =
      Registry::Global().GetHistogram("mql.statement_us");
  statements.Increment();
  session_statements_->Increment();
  ScopedTimer timer(latency);
  ScopedTimer session_timer(*session_latency_);

  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    if (!options_.trace || CurrentTrace() != nullptr) {
      // Tracing off, or already under an EXPLAIN ANALYZE / outer trace.
      return RunStatement(std::move(statement));
    }
    auto trace = std::make_shared<QueryTrace>();
    Result<QueryResult> traced = [&] {
      TraceScope scope(trace.get());
      return RunStatement(std::move(statement));
    }();
    if (traced.ok() && traced->trace == nullptr) traced->trace = trace;
    return traced;
  }();
  // A successful autocommit write (or COMMIT) advances the session pin so
  // PIN SNAPSHOT reads stay stable *and* observe the session's own writes.
  if (result.ok() && options_.pin_snapshot && txn_ == nullptr &&
      snapshot_pin_.pinned() && result->affected > 0) {
    RefreshSnapshotPin();
  }
  return result;
}

Result<QueryResult> Session::RunStatement(Statement statement) {
  return std::visit(
      [this](auto&& stmt) -> Result<QueryResult> {
        using T = std::decay_t<decltype(stmt)>;
        if constexpr (std::is_same_v<T, SelectStatement>) {
          return RunSelect(std::move(stmt));
        } else if constexpr (std::is_same_v<T, CreateAtomTypeStatement>) {
          return RunCreateAtomType(std::move(stmt));
        } else if constexpr (std::is_same_v<T, CreateLinkTypeStatement>) {
          return RunCreateLinkType(std::move(stmt));
        } else if constexpr (std::is_same_v<T, InsertAtomStatement>) {
          return RunInsertAtom(std::move(stmt));
        } else if constexpr (std::is_same_v<T, InsertLinkStatement>) {
          return RunInsertLink(std::move(stmt));
        } else if constexpr (std::is_same_v<T, UpdateStatement>) {
          return RunUpdate(std::move(stmt));
        } else if constexpr (std::is_same_v<T, ExplainStatement>) {
          return RunExplain(std::move(stmt));
        } else if constexpr (std::is_same_v<T, ShowMetricsStatement>) {
          return RunShowMetrics(std::move(stmt));
        } else if constexpr (std::is_same_v<T, SetOptionStatement>) {
          return RunSetOption(std::move(stmt));
        } else if constexpr (std::is_same_v<T, OpenStatement>) {
          return RunOpen(std::move(stmt));
        } else if constexpr (std::is_same_v<T, CheckpointStatement>) {
          return RunCheckpoint(std::move(stmt));
        } else if constexpr (std::is_same_v<T, CheckStatement>) {
          return RunCheck(std::move(stmt));
        } else if constexpr (std::is_same_v<T, BeginStatement>) {
          return RunBegin(std::move(stmt));
        } else if constexpr (std::is_same_v<T, CommitStatement>) {
          return RunCommit(std::move(stmt));
        } else if constexpr (std::is_same_v<T, RollbackStatement>) {
          return RunRollback(std::move(stmt));
        } else if constexpr (std::is_same_v<T, ShowTransactionsStatement>) {
          return RunShowTransactions(std::move(stmt));
        } else {
          return RunDelete(std::move(stmt));
        }
      },
      std::move(statement));
}

Status Session::RegisterMoleculeType(const std::string& name,
                                     MoleculeDescription description) {
  if (name.empty()) {
    return Status::InvalidArgument("molecule type name must be non-empty");
  }
  registry_.insert_or_assign(name, std::move(description));
  return Status::OK();
}

Result<QueryResult> Session::RunSelect(SelectStatement stmt) {
  ScopedSpan select_span("select",
                         stmt.from.molecule_name.empty()
                             ? std::string()
                             : stmt.from.molecule_name);
  // The whole statement reads at one pinned epoch under a shared lock:
  // concurrent sessions' commits queue behind it, so the engines' borrowed
  // store pointers stay valid for the statement, and the pin keeps GC away
  // from the snapshot's versions. With a transaction open the view is the
  // transaction's (snapshot + its own uncommitted writes).
  ReaderLock read_lock(db_->mutex());
  // The per-statement pin protects the no-transaction, no-session-pin case;
  // CurrentView() then reads at exactly this pinned epoch.
  EpochPin pin = db_->PinEpoch();
  const ReadView view = CurrentView();
  // Resolve the FROM clause into a molecule or recursive description.
  std::optional<MoleculeDescription> md;
  std::optional<RecursiveDescription> rd;
  std::optional<MoleculeDescription> expansion;
  std::string name = stmt.from.molecule_name.empty() ? "query"
                                                     : stmt.from.molecule_name;

  const StructureNode& root = *stmt.from.structure;
  bool bare_identifier =
      stmt.from.molecule_name.empty() && root.branches.empty();
  auto registered = bare_identifier ? registry_.find(root.atom)
                                    : registry_.end();
  if (registered != registry_.end()) {
    md = registered->second;
    name = registered->first;
  } else {
    MAD_ASSIGN_OR_RETURN(TranslatedFrom translated,
                         TranslateStructure(*db_, root));
    md = std::move(translated.description);
    rd = std::move(translated.recursive);
    expansion = std::move(translated.recursive_expansion);
    if (!stmt.from.molecule_name.empty() && md.has_value()) {
      MAD_RETURN_IF_ERROR(RegisterMoleculeType(stmt.from.molecule_name, *md));
    }
  }

  QueryResult result;
  result.epoch = view.epoch;
  if (rd.has_value()) {
    // Recursive query: SELECT ALL only (the closure is the result).
    if (!stmt.select_all) {
      return Status::Unsupported(
          "recursive queries support SELECT ALL projections only");
    }
    MAD_ASSIGN_OR_RETURN(std::vector<RecursiveMolecule> molecules,
                         DeriveRecursiveMolecules(*db_, *rd, view));
    result.kind = QueryResult::Kind::kRecursive;
    result.recursive_description = *rd;
    if (stmt.where != nullptr) {
      ScopedSpan filter_span("sigma", stmt.where->ToString());
      filter_span.set_rows_in(static_cast<int64_t>(molecules.size()));
      RecursiveQualifier qualifier(*db_, *rd, stmt.where, view);
      for (RecursiveMolecule& m : molecules) {
        MAD_ASSIGN_OR_RETURN(bool hit, qualifier.Matches(m));
        if (hit) result.recursive.push_back(std::move(m));
      }
      filter_span.set_rows_out(static_cast<int64_t>(result.recursive.size()));
    } else {
      result.recursive = std::move(molecules);
    }
    if (expansion.has_value()) {
      // Expansion tail: one component molecule per closure member, derived
      // only for the closures that survived the WHERE filter. One engine
      // serves every closure — the adjacency snapshot is built once, not
      // once per recursive molecule.
      DerivationOptions dopts;
      dopts.view = view;
      MAD_ASSIGN_OR_RETURN(DerivationEngine engine,
                           DerivationEngine::Create(*db_, *expansion, dopts));
      DerivationStats totals;
      for (const RecursiveMolecule& m : result.recursive) {
        ScopedSpan expand_span(
            "expand", "root #" + std::to_string(m.root().value));
        std::vector<AtomId> members;
        for (const auto& level : m.levels()) {
          members.insert(members.end(), level.begin(), level.end());
        }
        expand_span.set_rows_in(static_cast<int64_t>(members.size()));
        DerivationStats stats;
        MAD_ASSIGN_OR_RETURN(std::vector<Molecule> components,
                             engine.DeriveForRoots(members, &stats));
        expand_span.set_rows_out(static_cast<int64_t>(components.size()));
        totals.roots += stats.roots;
        totals.atoms_visited += stats.atoms_visited;
        totals.links_scanned += stats.links_scanned;
        totals.threads_used = std::max(totals.threads_used, stats.threads_used);
        totals.wall_ms += stats.wall_ms;
        result.recursive_components.push_back(std::move(components));
      }
      result.expansion_description = std::move(expansion);
      result.derivation = totals;
    }
    select_span.set_rows_out(static_cast<int64_t>(result.recursive.size()));
    return result;
  }

  // Ch. 4 translation: a (definition) ∘ Σ (WHERE) ∘ Π (SELECT). With
  // pushdown enabled the Σ is fused into the derivation: the WHERE's
  // leading single-node conjuncts are split per description node, each
  // group compiled into a flat predicate program the engine evaluates the
  // moment that node's group completes, the rest compiled into a residual
  // program evaluated per root before materialization, and a leading
  // indexed root equality seeds the root set from its AttributeIndex
  // bucket.
  expr::ExprPtr residual_where = stmt.where;
  DerivationOptions dopts;
  dopts.view = view;
  DerivationStats dstats;
  std::optional<MoleculeType> derived;
  if (options_.enable_root_pushdown && stmt.where != nullptr) {
    // Root seeds come only when the root store's head is the view.
    MAD_ASSIGN_OR_RETURN(PushdownPlan plan,
                         PlanPredicatePushdown(*db_, *md, stmt.where, view));
    MAD_ASSIGN_OR_RETURN(const AtomType* root_at,
                         db_->GetAtomType(md->root_node().type_name));
    // The programs live on this frame; the engine borrows them only for
    // the derive call below. An index-seeded statement derives only the
    // seeded molecules, so its programs run scalar: a batch leaf would
    // sweep its whole column on first use.
    const expr::CompiledPredicate::BatchMode mode =
        plan.seed.has_value() ? expr::CompiledPredicate::BatchMode::kScalar
                              : expr::CompiledPredicate::BatchMode::kAuto;
    std::vector<expr::CompiledPredicate> programs;
    programs.reserve(plan.node_filters.size() + 1);
    for (const NodeFilter& filter : plan.node_filters) {
      MAD_ASSIGN_OR_RETURN(expr::CompiledPredicate program,
                           expr::CompiledPredicate::Compile(
                               *db_, *md, filter.predicate, view, mode));
      programs.push_back(std::move(program));
    }
    for (size_t i = 0; i < plan.node_filters.size(); ++i) {
      dopts.node_filters.emplace_back(plan.node_filters[i].node_index,
                                      &programs[i]);
    }
    if (plan.residual != nullptr) {
      MAD_ASSIGN_OR_RETURN(expr::CompiledPredicate residual_program,
                           expr::CompiledPredicate::Compile(
                               *db_, *md, plan.residual, view, mode));
      programs.push_back(std::move(residual_program));
      dopts.residual = &programs.back();
    }
    residual_where = nullptr;  // the engine consumes the whole WHERE

    // Root seeding: take the index bucket instead of scanning the whole
    // occurrence. Bucket order is index insertion order, which diverges
    // from occurrence order after updates, so restore occurrence order —
    // seeded derivation stays bit-identical to the unseeded scan.
    std::optional<std::vector<AtomId>> seeded;
    if (plan.seed.has_value()) {
      ScopedSpan seed_span("index-seed",
                           md->root_node().type_name + "." +
                               plan.seed->attribute + " = " +
                               plan.seed->value.ToString());
      seed_span.set_rows_in(
          static_cast<int64_t>(root_at->occurrence().size()));
      const std::vector<AtomId>& bucket =
          plan.seed->index->Lookup(plan.seed->value);
      std::vector<std::pair<size_t, AtomId>> ordered;
      ordered.reserve(bucket.size());
      for (AtomId id : bucket) {
        std::optional<size_t> pos = root_at->occurrence().PositionOf(id);
        if (pos.has_value()) ordered.emplace_back(*pos, id);
      }
      std::sort(ordered.begin(), ordered.end());
      seeded.emplace();
      seeded->reserve(ordered.size());
      for (const auto& [pos, id] : ordered) seeded->push_back(id);
      seed_span.set_rows_out(static_cast<int64_t>(seeded->size()));
    }

    // Columnar scan seed: no index matched, but the WHERE's first
    // conjunct is a plain root `attr ⊕ literal` — run the batch compare
    // kernel over the whole root column and derive only the passing rows.
    // Applies only when the column is clean and the kernel reports zero
    // error rows (an erroring row must instead surface its error through
    // ordinary evaluation); the planner already checked that the head is
    // the view. Row order is occurrence order by construction, so seeded
    // derivation stays bit-identical to the unseeded scan.
    if (!seeded.has_value() && plan.scan_seed.has_value()) {
      const AtomStore& store = root_at->occurrence();
      const ColumnSet& columns = store.columns();
      const Column* column = columns.column(plan.scan_seed->value_slot);
      expr::RowBitmaps bits;
      if (column != nullptr &&
          expr::BuildCompareBitmaps(*column, columns.rows(),
                                    plan.scan_seed->op, plan.scan_seed->value,
                                    plan.scan_seed->attr_on_left, &bits) &&
          !bits.any_err) {
        ScopedSpan scan_span("seed-scan", md->root_node().type_name + ": " +
                                              plan.scan_seed->display);
        scan_span.set_rows_in(static_cast<int64_t>(columns.rows()));
        seeded.emplace();
        for (size_t r = 0; r < columns.rows(); ++r) {
          if (bits.Pass(r)) seeded->push_back(columns.IdAt(r));
        }
        scan_span.set_rows_out(static_cast<int64_t>(seeded->size()));
      }
    }

    {
      // The fused Σ: rows_in counts the roots fanned out over, rows_out
      // the molecules surviving the pushed programs.
      ScopedSpan sigma_span("sigma", stmt.where->ToString());
      std::vector<Molecule> molecules;
      if (seeded.has_value()) {
        MAD_ASSIGN_OR_RETURN(
            molecules,
            DeriveMoleculesForRoots(*db_, *md, *seeded, dopts, &dstats));
      } else {
        MAD_ASSIGN_OR_RETURN(molecules,
                             DeriveMolecules(*db_, *md, dopts, &dstats));
      }
      sigma_span.set_rows_in(static_cast<int64_t>(dstats.roots));
      sigma_span.set_rows_out(static_cast<int64_t>(molecules.size()));
      derived.emplace(name, *md, std::move(molecules));
    }
  }
  if (!derived.has_value()) {
    MAD_ASSIGN_OR_RETURN(MoleculeType full,
                         DefineMoleculeType(*db_, name, *md, dopts, &dstats));
    derived.emplace(std::move(full));
  }
  result.derivation = dstats;
  MoleculeType mt = *std::move(derived);
  if (residual_where != nullptr) {
    MAD_ASSIGN_OR_RETURN(
        mt, RestrictMolecules(*db_, mt, residual_where, name, view));
  }
  if (!stmt.select_all) {
    MAD_ASSIGN_OR_RETURN(MoleculeProjectionSpec spec,
                         TranslateProjection(mt.description(), stmt.items));
    MAD_ASSIGN_OR_RETURN(mt, ProjectMolecules(*db_, mt, spec, name));
  }
  result.kind = QueryResult::Kind::kMolecules;
  result.molecules = std::make_shared<MoleculeType>(std::move(mt));
  select_span.set_rows_out(static_cast<int64_t>(result.molecules->size()));
  return result;
}

Result<QueryResult> Session::RunCreateAtomType(CreateAtomTypeStatement stmt) {
  MAD_RETURN_IF_ERROR(RequireNoTransaction("CREATE ATOM TYPE"));
  Schema schema;
  for (const auto& [attr, type] : stmt.attributes) {
    MAD_RETURN_IF_ERROR(schema.AddAttribute(attr, type));
  }
  MAD_RETURN_IF_ERROR(db_->DefineAtomType(stmt.name, std::move(schema)));
  QueryResult result;
  result.message = "atom type '" + stmt.name + "' created";
  return result;
}

Result<QueryResult> Session::RunCreateLinkType(CreateLinkTypeStatement stmt) {
  MAD_RETURN_IF_ERROR(RequireNoTransaction("CREATE LINK TYPE"));
  MAD_RETURN_IF_ERROR(db_->DefineLinkType(stmt.name, stmt.first, stmt.second,
                                          stmt.cardinality));
  QueryResult result;
  result.message = "link type '" + stmt.name + "' created";
  return result;
}

Result<QueryResult> Session::RunInsertAtom(InsertAtomStatement stmt) {
  QueryResult result;
  for (std::vector<Value>& row : stmt.rows) {
    MAD_RETURN_IF_ERROR(WrapConflict(
        db_->InsertAtom(stmt.atom_type, std::move(row), txn_.get()).status()));
    ++result.affected;
  }
  result.message = std::to_string(result.affected) + " atom(s) inserted into '" +
                   stmt.atom_type + "'";
  return result;
}

namespace {

/// Atoms of `aname` visible at `view` matching `predicate` (validated up
/// front; null matches every atom), in occurrence order.
Result<std::vector<AtomId>> MatchingAtoms(const Database& db,
                                          const std::string& aname,
                                          const expr::ExprPtr& predicate,
                                          const ReadView& view) {
  MAD_ASSIGN_OR_RETURN(const AtomType* at, db.GetAtomType(aname));
  if (predicate != nullptr) {
    MAD_RETURN_IF_ERROR(
        expr::ValidateAgainstSchema(*predicate, aname, at->description()));
  }
  std::vector<AtomId> matches;
  for (const Atom* atom : at->occurrence().SnapshotAt(view)) {
    if (predicate != nullptr) {
      MAD_ASSIGN_OR_RETURN(
          bool hit,
          expr::EvalOnAtom(*predicate, aname, at->description(), *atom));
      if (!hit) continue;
    }
    matches.push_back(atom->id);
  }
  return matches;
}

}  // namespace

Result<QueryResult> Session::RunInsertLink(InsertLinkStatement stmt) {
  MAD_ASSIGN_OR_RETURN(const LinkType* lt, db_->GetLinkType(stmt.link_type));
  // Match endpoints against this session's view under a shared lock, then
  // release it: the mutators below take the unique lock themselves.
  std::vector<AtomId> first_atoms;
  std::vector<AtomId> second_atoms;
  {
    ReaderLock read_lock(db_->mutex());
    const ReadView view = CurrentView();
    MAD_ASSIGN_OR_RETURN(
        first_atoms,
        MatchingAtoms(*db_, lt->first_atom_type(), stmt.first_predicate, view));
    MAD_ASSIGN_OR_RETURN(second_atoms,
                         MatchingAtoms(*db_, lt->second_atom_type(),
                                       stmt.second_predicate, view));
  }

  QueryResult result;
  for (AtomId first : first_atoms) {
    for (AtomId second : second_atoms) {
      Status s = db_->InsertLink(stmt.link_type, first, second, txn_.get());
      if (s.ok()) {
        ++result.affected;
      } else if (s.code() != StatusCode::kAlreadyExists) {
        return WrapConflict(std::move(s));
      }
    }
  }
  result.message = std::to_string(result.affected) + " link(s) inserted into '" +
                   stmt.link_type + "'";
  return result;
}

Result<QueryResult> Session::RunUpdate(UpdateStatement stmt) {
  MAD_ASSIGN_OR_RETURN(const AtomType* at, db_->GetAtomType(stmt.atom_type));
  const Schema& schema = at->description();

  // Resolve assignment targets and validate value expressions' references.
  std::vector<size_t> target_indexes;
  for (const auto& [attr, value_expr] : stmt.assignments) {
    MAD_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(attr));
    target_indexes.push_back(idx);
    std::vector<const expr::Expr*> refs;
    value_expr->CollectAttrRefs(&refs);
    for (const expr::Expr* ref : refs) {
      if (!ref->qualifier().empty() && ref->qualifier() != stmt.atom_type) {
        return Status::InvalidArgument("qualifier '" + ref->qualifier() +
                                       "' does not match atom type '" +
                                       stmt.atom_type + "'");
      }
      if (!schema.HasAttribute(ref->attribute())) {
        return Status::NotFound("unknown attribute '" + ref->attribute() +
                                "' in atom type '" + stmt.atom_type + "'");
      }
    }
  }

  // Phase 1 (shared lock): resolve targets through this session's view and
  // evaluate every assignment against the pre-update atom images. Phase 2
  // (lock released) applies the staged updates; each target is updated at
  // most once, so the split preserves the historical per-atom semantics.
  std::vector<std::pair<AtomId, std::vector<Value>>> staged;
  {
    ReaderLock read_lock(db_->mutex());
    const ReadView view = CurrentView();
    MAD_ASSIGN_OR_RETURN(
        std::vector<AtomId> targets,
        MatchingAtoms(*db_, stmt.atom_type, stmt.predicate, view));
    for (AtomId id : targets) {
      const Atom* atom = at->occurrence().FindVersionAt(id, view);
      if (atom == nullptr) continue;
      expr::BindingSet bindings;
      bindings.Bind(stmt.atom_type, &schema, atom);
      std::vector<Value> values = atom->values;
      for (size_t i = 0; i < stmt.assignments.size(); ++i) {
        MAD_ASSIGN_OR_RETURN(
            Value v, expr::EvalValue(*stmt.assignments[i].second, bindings));
        values[target_indexes[i]] = std::move(v);
      }
      staged.emplace_back(id, std::move(values));
    }
  }

  QueryResult result;
  for (auto& [id, values] : staged) {
    MAD_RETURN_IF_ERROR(WrapConflict(
        db_->UpdateAtom(stmt.atom_type, id, std::move(values), txn_.get())));
    ++result.affected;
  }
  result.message = std::to_string(result.affected) + " atom(s) updated in '" +
                   stmt.atom_type + "'";
  return result;
}

Result<QueryResult> Session::RunExplain(ExplainStatement stmt) {
  const SelectStatement& select = stmt.select;
  const StructureNode& root = *select.from.structure;
  // Plan as RunSelect would: under the shared lock (the catalog, indexes
  // and store heads are read) and at this session's view. Compiling reads
  // no atom, so no epoch pin is needed.
  ReaderLock read_lock(db_->mutex());
  const ReadView view = CurrentView();

  std::string plan = "-- molecule algebra translation --\n";

  std::optional<MoleculeDescription> md;
  std::optional<RecursiveDescription> rd;
  std::optional<MoleculeDescription> expansion;
  std::string name = select.from.molecule_name.empty()
                         ? "query"
                         : select.from.molecule_name;
  bool bare_identifier =
      select.from.molecule_name.empty() && root.branches.empty();
  auto registered =
      bare_identifier ? registry_.find(root.atom) : registry_.end();
  if (registered != registry_.end()) {
    md = registered->second;
    name = registered->first;
  } else {
    MAD_ASSIGN_OR_RETURN(TranslatedFrom translated,
                         TranslateStructure(*db_, root));
    md = std::move(translated.description);
    rd = std::move(translated.recursive);
    expansion = std::move(translated.recursive_expansion);
  }

  if (rd.has_value()) {
    plan += "closure[" + rd->atom_type + ", " + rd->link_type + ", " +
            (rd->direction == LinkDirection::kForward ? "forward" : "backward");
    plan += rd->max_depth < 0 ? ", unbounded]"
                              : ", depth<=" + std::to_string(rd->max_depth) +
                                    "]";
    plan += "   -- recursive molecule type [Schö89]\n";
    if (expansion.has_value()) {
      plan += "expand-each[" + expansion->ToString() +
              "]   -- per-member component molecule\n";
    }
  } else {
    plan += "a[" + name + ", {";
    for (size_t j = 0; j < md->links().size(); ++j) {
      if (j > 0) plan += ", ";
      const DirectedLink& dl = md->links()[j];
      plan += "<" + dl.link_type + ": " + dl.from +
              (dl.reverse ? " <~ " : " -> ") + dl.to + ">";
    }
    plan += "}]({";
    for (size_t i = 0; i < md->nodes().size(); ++i) {
      if (i > 0) plan += ", ";
      plan += md->nodes()[i].label;
    }
    plan += "})   -- molecule-type definition (Def. 8)\n";
  }

  if (select.where != nullptr) {
    plan += "Sigma[" + select.where->ToString() +
            "]   -- molecule-type restriction (Def. 10)\n";
    if (options_.enable_root_pushdown && md.has_value() && !rd.has_value()) {
      // How the Σ will actually run: per-node compiled filters inside the
      // derivation, an index-seeded root set, and the compiled residual.
      Result<PushdownPlan> pushed =
          PlanPredicatePushdown(*db_, *md, select.where, view);
      if (pushed.ok()) {
        // Same execution mode as RunSelect: index-seeded plans run scalar.
        const expr::CompiledPredicate::BatchMode mode =
            pushed->seed.has_value()
                ? expr::CompiledPredicate::BatchMode::kScalar
                : expr::CompiledPredicate::BatchMode::kAuto;
        for (const NodeFilter& filter : pushed->node_filters) {
          plan += "  push-down[" + md->nodes()[filter.node_index].label +
                  "]: " + filter.predicate->ToString();
          Result<expr::CompiledPredicate> program =
              expr::CompiledPredicate::Compile(*db_, *md, filter.predicate,
                                               view, mode);
          if (program.ok()) plan += "   -- compiled: " + program->Summary();
          plan += "\n";
        }
        if (pushed->seed.has_value()) {
          plan += "  seed-index[" + md->root_node().type_name + "." +
                  pushed->seed->attribute + " = " +
                  pushed->seed->value.ToString() +
                  "]   -- root fan-out from AttributeIndex\n";
        } else if (pushed->scan_seed.has_value()) {
          plan += "  seed-scan[" + md->root_node().type_name + ": " +
                  pushed->scan_seed->display +
                  "]   -- root fan-out from columnar kernel scan\n";
        }
        if (pushed->residual != nullptr) {
          plan += "  residual: " + pushed->residual->ToString();
          Result<expr::CompiledPredicate> program =
              expr::CompiledPredicate::Compile(*db_, *md, pushed->residual,
                                               view, mode);
          if (program.ok()) plan += "   -- compiled: " + program->Summary();
          plan += "\n";
        }
      }
    }
  }
  if (!select.select_all) {
    if (rd.has_value()) {
      return Status::Unsupported(
          "recursive queries support SELECT ALL projections only");
    }
    MAD_ASSIGN_OR_RETURN(MoleculeProjectionSpec spec,
                         TranslateProjection(*md, select.items));
    plan += "Pi[{";
    for (size_t i = 0; i < spec.keep_labels.size(); ++i) {
      if (i > 0) plan += ", ";
      plan += spec.keep_labels[i];
      auto it = spec.attributes.find(spec.keep_labels[i]);
      if (it != spec.attributes.end()) {
        plan += "(";
        for (size_t j = 0; j < it->second.size(); ++j) {
          if (j > 0) plan += ",";
          plan += it->second[j];
        }
        plan += ")";
      }
    }
    plan += "}]   -- molecule-type projection\n";
  }

  if (!stmt.analyze) {
    QueryResult result;
    result.message = std::move(plan);
    return result;
  }

  // EXPLAIN ANALYZE: execute the select under a fresh trace and report the
  // plan together with the recorded operator span tree. RunSelect takes
  // the shared lock itself.
  read_lock.Unlock();
  auto trace = std::make_shared<QueryTrace>();
  Result<QueryResult> executed = [&] {
    TraceScope scope(trace.get());
    return RunSelect(std::move(stmt.select));
  }();
  MAD_RETURN_IF_ERROR(executed.status());

  QueryResult result = *std::move(executed);
  result.kind = QueryResult::Kind::kCommand;
  result.message = std::move(plan) + "-- execution profile --\n" +
                   text::FormatQueryTrace(*trace);
  result.trace = std::move(trace);
  return result;
}

Result<QueryResult> Session::RunShowMetrics(ShowMetricsStatement) {
  QueryResult result;
  result.message =
      text::FormatMetricsSnapshot(Registry::Global().Snapshot());
  return result;
}

Result<QueryResult> Session::RunSetOption(SetOptionStatement stmt) {
  // KnownSessionOptions() (sema.h) is the single source of the option
  // list; it drives dispatch, the analyzer's MQL0106 suggestions, and the
  // "available: ..." list here, so the three cannot drift apart.
  const std::vector<std::string>& options = KnownSessionOptions();
  for (const std::string& option : options) {
    if (!EqualsIgnoreCase(stmt.option, option)) continue;
    if (option == "SYNC") return SetSync(stmt.value);
    if (option == "PIN SNAPSHOT") return SetPinSnapshot(stmt.value);
    return SetTrace(stmt.value);
  }
  std::string available;
  for (const std::string& option : options) {
    if (!available.empty()) available += ", ";
    available += option;
  }
  return Status::InvalidArgument("unknown session option '" + stmt.option +
                                 "'; available: " + available);
}

Result<QueryResult> Session::SetSync(int64_t value) {
  if (value != 0 && value != 1) {
    return Status::InvalidArgument("SYNC must be ON/1 or OFF/0");
  }
  options_.sync = value == 1;
  if (durable_ != nullptr) durable_->set_sync(options_.sync);
  QueryResult result;
  result.message = options_.sync
                       ? "sync on: every mutation is fsync'd"
                       : "sync off: mutations batch in the group-commit "
                         "buffer";
  if (durable_ != nullptr) result.durability = durable_->stats();
  return result;
}

Result<QueryResult> Session::SetPinSnapshot(int64_t value) {
  if (value != 0 && value != 1) {
    return Status::InvalidArgument("PIN SNAPSHOT must be ON/1 or OFF/0");
  }
  options_.pin_snapshot = value == 1;
  QueryResult result;
  if (options_.pin_snapshot) {
    RefreshSnapshotPin();
    result.epoch = snapshot_pin_.epoch();
    result.message = "snapshot pinned at epoch " +
                     std::to_string(snapshot_pin_.epoch()) +
                     ": reads outside transactions stay at this snapshot "
                     "(the session's own writes advance it)";
  } else {
    // Release eagerly so GC can reclaim the snapshot's versions now, not
    // at session close.
    snapshot_pin_.Release();
    result.message = "snapshot pin released: reads follow the newest epoch";
  }
  return result;
}

Result<QueryResult> Session::SetTrace(int64_t value) {
  if (value != 0 && value != 1) {
    return Status::InvalidArgument("TRACE must be ON/1 or OFF/0");
  }
  options_.trace = value == 1;
  QueryResult result;
  result.message = options_.trace
                       ? "trace on: every statement records an operator "
                         "span tree"
                       : "trace off";
  return result;
}

Result<QueryResult> Session::RunOpen(OpenStatement stmt) {
  MAD_RETURN_IF_ERROR(RequireNoTransaction("OPEN"));
  DurabilityOptions options;
  options.sync = options_.sync;
  MAD_ASSIGN_OR_RETURN(std::unique_ptr<DurableDatabase> durable,
                       DurableDatabase::Open(stmt.directory, options));
  // Swap the session over: molecule types registered against the previous
  // database describe structures that may not exist in the new one. The
  // snapshot pin references the previous database and must go first.
  snapshot_pin_.Release();
  durable_ = std::move(durable);
  db_ = &durable_->database();
  registry_.clear();
  if (options_.pin_snapshot) RefreshSnapshotPin();

  DurabilityStats stats = durable_->stats();
  QueryResult result;
  result.message =
      "opened '" + stmt.directory + "' at generation " +
      std::to_string(stats.generation) +
      (stats.created_fresh
           ? " (fresh)"
           : " (" + std::to_string(stats.replayed_records) +
                 " WAL record(s) replayed" +
                 (stats.wal_torn_tail
                      ? ", torn tail of " +
                            std::to_string(stats.wal_discarded_bytes) +
                            " byte(s) discarded"
                      : "") +
                 ")");
  result.durability = std::move(stats);
  return result;
}

Result<QueryResult> Session::RunCheckpoint(CheckpointStatement) {
  MAD_RETURN_IF_ERROR(RequireNoTransaction("CHECKPOINT"));
  if (durable_ == nullptr) {
    return Status::InvalidArgument(
        "CHECKPOINT requires a durable database; OPEN '<directory>' first");
  }
  MAD_RETURN_IF_ERROR(durable_->Checkpoint());
  DurabilityStats stats = durable_->stats();
  QueryResult result;
  result.message = "checkpoint written: generation " +
                   std::to_string(stats.generation) + ", " +
                   std::to_string(stats.last_checkpoint_bytes) + " byte(s)";
  result.durability = std::move(stats);
  return result;
}

Result<QueryResult> Session::RunCheck(CheckStatement stmt) {
  // The diagnostics travel structurally; callers that hold the source text
  // (the shell, mql_lint) render them with carets. The message is just the
  // verdict line.
  QueryResult result;
  if (stmt.inner != nullptr) {
    result.diagnostics = AnalyzeStatement(*db_, registry_, stmt.inner->value,
                                          AnalyzerContext{txn_ != nullptr});
  }
  if (result.diagnostics.empty()) {
    result.message = "CHECK: no issues found";
    return result;
  }
  size_t errors = 0;
  size_t warnings = 0;
  for (const Diagnostic& diag : result.diagnostics) {
    (diag.severity() == Severity::kError ? errors : warnings) += 1;
  }
  result.message = "CHECK: " + std::to_string(errors) + " error(s), " +
                   std::to_string(warnings) + " warning(s)";
  return result;
}

Result<QueryResult> Session::RunDelete(DeleteStatement stmt) {
  std::vector<AtomId> doomed;
  {
    ReaderLock read_lock(db_->mutex());
    MAD_ASSIGN_OR_RETURN(doomed, MatchingAtoms(*db_, stmt.atom_type,
                                               stmt.predicate, CurrentView()));
  }
  QueryResult result;
  for (AtomId id : doomed) {
    MAD_RETURN_IF_ERROR(
        WrapConflict(db_->DeleteAtom(stmt.atom_type, id, txn_.get())));
    ++result.affected;
  }
  result.message = std::to_string(result.affected) + " atom(s) deleted from '" +
                   stmt.atom_type + "'";
  return result;
}

Result<QueryResult> Session::RunBegin(BeginStatement) {
  // The analyzer already warned (MQL0505); executing a nested BEGIN keeps
  // the open transaction rather than silently discarding its writes.
  if (txn_ != nullptr) {
    QueryResult result;
    result.message = "transaction #" + std::to_string(txn_->id()) +
                     " is already open; BEGIN ignored";
    result.epoch = txn_->snapshot_epoch();
    return result;
  }
  txn_ = db_->Begin();
  QueryResult result;
  result.message = "transaction #" + std::to_string(txn_->id()) +
                   " started at epoch " +
                   std::to_string(txn_->snapshot_epoch());
  result.epoch = txn_->snapshot_epoch();
  return result;
}

Result<QueryResult> Session::RunCommit(CommitStatement) {
  if (txn_ == nullptr) {
    QueryResult result;
    result.message = "no open transaction; COMMIT ignored";
    return result;
  }
  const uint64_t id = txn_->id();
  const size_t ops = txn_->op_count();
  Status status = txn_->Commit();
  txn_.reset();
  MAD_RETURN_IF_ERROR(WrapConflict(std::move(status)));
  QueryResult result;
  result.affected = ops;
  result.epoch = db_->current_epoch();
  result.message = "transaction #" + std::to_string(id) + " committed " +
                   std::to_string(ops) + " op" + (ops == 1 ? "" : "s") +
                   " at epoch " + std::to_string(result.epoch);
  if (durable_ != nullptr) result.durability = durable_->stats();
  return result;
}

Result<QueryResult> Session::RunRollback(RollbackStatement) {
  if (txn_ == nullptr) {
    QueryResult result;
    result.message = "no open transaction; ROLLBACK ignored";
    return result;
  }
  const uint64_t id = txn_->id();
  const size_t ops = txn_->op_count();
  Status status = txn_->Rollback();
  txn_.reset();
  MAD_RETURN_IF_ERROR(status);
  QueryResult result;
  result.message = "transaction #" + std::to_string(id) + " rolled back " +
                   std::to_string(ops) + " op" + (ops == 1 ? "" : "s");
  return result;
}

Result<QueryResult> Session::RunShowTransactions(ShowTransactionsStatement) {
  QueryResult result;
  result.message =
      text::FormatEpochStats(db_->GetEpochStats(), db_->ActiveTransactions());
  result.epoch = db_->current_epoch();
  return result;
}

}  // namespace mql
}  // namespace mad
