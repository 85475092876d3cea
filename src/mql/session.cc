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

/// Rewrites a recursive WHERE into the scope sema checks it in
/// (ScopeKind::kRecursive): `root.` binds the closure's root, unqualified
/// references and `<member>.` bind the closure's members. What that scope
/// cannot express — another qualifier, an unknown attribute, COUNT, FORALL
/// — fails here, in evaluation order, with the Status the per-closure
/// interpreter raised on reaching it.
Result<expr::ExprPtr> PinRecursiveWhere(const expr::ExprPtr& e,
                                        const std::string& member,
                                        const Schema& schema) {
  using expr::Expr;
  using K = Expr::Kind;
  switch (e->kind()) {
    case K::kLiteral:
      return e;
    case K::kAttrRef: {
      const std::string& q = e->qualifier();
      if (!q.empty() && q != "root" && q != member) {
        return Status::InvalidArgument(
            "recursive queries allow the qualifiers 'root' and '" + member +
            "'; found '" + q + "'");
      }
      if (!schema.HasAttribute(e->attribute())) {
        return Status::NotFound("unknown attribute '" + e->attribute() + "'");
      }
      return q.empty() ? Expr::MakeAttrRef(member, e->attribute()) : e;
    }
    case K::kCount:
      return Status::InvalidArgument(
          "COUNT(" + e->qualifier() +
          ") is only valid in molecule-scope qualification");
    case K::kForAll:
      return Status::InvalidArgument(
          "FORALL is only valid in molecule-scope qualification");
    default:
      break;
  }
  MAD_ASSIGN_OR_RETURN(expr::ExprPtr lhs,
                       PinRecursiveWhere(e->left(), member, schema));
  if (e->kind() == K::kNot) return Expr::MakeNot(std::move(lhs));
  MAD_ASSIGN_OR_RETURN(expr::ExprPtr rhs,
                       PinRecursiveWhere(e->right(), member, schema));
  switch (e->kind()) {
    case K::kCompare:
      return Expr::MakeCompare(e->compare_op(), std::move(lhs), std::move(rhs));
    case K::kArith:
      return Expr::MakeArith(e->arith_op(), std::move(lhs), std::move(rhs));
    case K::kAnd:
      return Expr::MakeAnd(std::move(lhs), std::move(rhs));
    default:
      return Expr::MakeOr(std::move(lhs), std::move(rhs));
  }
}

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
          return RunSelect(stmt);
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
          return RunSelect(stmt.select, &stmt);
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

/// A SELECT translated into the algebra once — a (definition) ∘ Σ (WHERE) ∘
/// Π (SELECT), or the recursive closure with its own Σ — with every Σ
/// compiled at the view it was planned at. RunSelect executes it, EXPLAIN
/// prints it, EXPLAIN ANALYZE prints and executes the same plan. The
/// programs borrow the plan's descriptions, so a plan is built in place and
/// never copied or moved.
struct Session::SelectPlan {
  SelectPlan() = default;
  SelectPlan(const SelectPlan&) = delete;
  SelectPlan& operator=(const SelectPlan&) = delete;

  std::string name;
  /// Exactly one of `md` (a molecule query) and `rd` (a recursive one).
  std::optional<MoleculeDescription> md;
  std::optional<RecursiveDescription> rd;
  std::optional<MoleculeDescription> expansion;
  /// Root pushdown on and a WHERE present: the molecule Σ runs inside the
  /// derivation; otherwise it runs as a restriction of the derived set.
  bool pushed = false;
  PushdownPlan pushdown;
  /// node_programs[i] is pushdown.node_filters[i]'s program.
  std::vector<expr::CompiledPredicate> node_programs;
  std::optional<expr::CompiledPredicate> residual;
  /// The recursive WHERE, compiled over {root, <atom type>}: node 0 binds
  /// a closure's root, node 1 its members.
  std::optional<MoleculeDescription> recursive_scope;
  std::optional<expr::CompiledPredicate> recursive_where;
  std::optional<MoleculeProjectionSpec> projection;

  /// The EXPLAIN text: the translation and how its Σ will run.
  std::string Explain(const SelectStatement& stmt) const {
    std::string text = "-- molecule algebra translation --\n";
    if (rd.has_value()) {
      text += "closure[" + rd->atom_type + ", " + rd->link_type + ", " +
              (rd->direction == LinkDirection::kForward ? "forward"
                                                        : "backward");
      text += rd->max_depth < 0 ? ", unbounded]"
                                : ", depth<=" + std::to_string(rd->max_depth) +
                                      "]";
      text += "   -- recursive molecule type [Schö89]\n";
      if (expansion.has_value()) {
        text += "expand-each[" + expansion->ToString() +
                "]   -- per-member component molecule\n";
      }
    } else {
      text += "a[" + name + ", {";
      for (size_t j = 0; j < md->links().size(); ++j) {
        if (j > 0) text += ", ";
        const DirectedLink& dl = md->links()[j];
        text += "<" + dl.link_type + ": " + dl.from +
                (dl.reverse ? " <~ " : " -> ") + dl.to + ">";
      }
      text += "}]({";
      for (size_t i = 0; i < md->nodes().size(); ++i) {
        if (i > 0) text += ", ";
        text += md->nodes()[i].label;
      }
      text += "})   -- molecule-type definition (Def. 8)\n";
    }

    if (stmt.where != nullptr) {
      text += "Sigma[" + stmt.where->ToString() +
              "]   -- molecule-type restriction (Def. 10)\n";
    }
    if (pushed) {
      // How the Σ will actually run: per-node compiled filters inside the
      // derivation, a seeded root set, and the compiled residual.
      for (size_t i = 0; i < pushdown.node_filters.size(); ++i) {
        const NodeFilter& filter = pushdown.node_filters[i];
        text += "  push-down[" + md->nodes()[filter.node_index].label +
                "]: " + filter.predicate->ToString() +
                "   -- compiled: " + node_programs[i].Summary() + "\n";
      }
      if (pushdown.seed.has_value()) {
        text += "  seed-index[" + md->root_node().type_name + "." +
                pushdown.seed->attribute + " = " +
                pushdown.seed->value.ToString() +
                "]   -- root fan-out from AttributeIndex\n";
      } else if (pushdown.scan_seed.has_value()) {
        text += "  seed-scan[" + md->root_node().type_name + ": " +
                pushdown.scan_seed->display +
                "]   -- root fan-out from columnar kernel scan\n";
      }
      if (residual.has_value()) {
        text += "  residual: " + pushdown.residual->ToString() +
                "   -- compiled: " + residual->Summary() + "\n";
      }
    }
    if (projection.has_value()) {
      text += "Pi[{";
      for (size_t i = 0; i < projection->keep_labels.size(); ++i) {
        if (i > 0) text += ", ";
        text += projection->keep_labels[i];
        auto it = projection->attributes.find(projection->keep_labels[i]);
        if (it != projection->attributes.end()) {
          text += "(";
          for (size_t j = 0; j < it->second.size(); ++j) {
            if (j > 0) text += ",";
            text += it->second[j];
          }
          text += ")";
        }
      }
      text += "}]   -- molecule-type projection\n";
    }
    return text;
  }
};

Status Session::PlanSelect(const SelectStatement& stmt, ReadView view,
                           SelectPlan* plan) const {
  // Resolve the FROM clause into a molecule or recursive description.
  const StructureNode& root = *stmt.from.structure;
  plan->name = stmt.from.molecule_name.empty() ? "query"
                                               : stmt.from.molecule_name;
  bool bare_identifier =
      stmt.from.molecule_name.empty() && root.branches.empty();
  auto registered = bare_identifier ? registry_.find(root.atom)
                                    : registry_.end();
  if (registered != registry_.end()) {
    plan->md = registered->second;
    plan->name = registered->first;
  } else {
    MAD_ASSIGN_OR_RETURN(TranslatedFrom translated,
                         TranslateStructure(*db_, root));
    plan->md = std::move(translated.description);
    plan->rd = std::move(translated.recursive);
    plan->expansion = std::move(translated.recursive_expansion);
  }

  if (plan->rd.has_value()) {
    // Recursive query: SELECT ALL only (the closure is the result).
    if (!stmt.select_all) {
      return Status::Unsupported(
          "recursive queries support SELECT ALL projections only");
    }
    if (stmt.where == nullptr) return Status::OK();
    const RecursiveDescription& rd = *plan->rd;
    MAD_ASSIGN_OR_RETURN(const AtomType* at, db_->GetAtomType(rd.atom_type));
    MAD_ASSIGN_OR_RETURN(
        expr::ExprPtr pinned,
        PinRecursiveWhere(stmt.where, rd.atom_type, at->description()));
    MAD_ASSIGN_OR_RETURN(
        plan->recursive_scope,
        MoleculeDescription::Create(
            *db_,
            {{rd.atom_type, "root", std::nullopt},
             {rd.atom_type, rd.atom_type, std::nullopt}},
            {{rd.link_type, "root", rd.atom_type,
              rd.direction == LinkDirection::kBackward}}));
    MAD_ASSIGN_OR_RETURN(plan->recursive_where,
                         expr::CompiledPredicate::Compile(
                             *db_, *plan->recursive_scope, pinned, view));
    return Status::OK();
  }

  // Ch. 4 translation: a (definition) ∘ Σ (WHERE) ∘ Π (SELECT). With
  // pushdown enabled the Σ is fused into the derivation: the WHERE's
  // leading single-node conjuncts are split per description node, each
  // group compiled into a flat predicate program the engine evaluates the
  // moment that node's group completes, the rest compiled into a residual
  // program evaluated per root before materialization, and a leading
  // indexed root equality seeds the root set from its AttributeIndex
  // bucket. Root seeds come only when the root store's head is the view.
  const MoleculeDescription& md = *plan->md;
  plan->pushed = options_.enable_root_pushdown && stmt.where != nullptr;
  if (plan->pushed) {
    MAD_ASSIGN_OR_RETURN(plan->pushdown,
                         PlanPredicatePushdown(*db_, md, stmt.where, view));
    // An index-seeded statement derives only the seeded molecules, so its
    // programs run scalar: a batch leaf would sweep its whole column on
    // first use.
    const expr::CompiledPredicate::BatchMode mode =
        plan->pushdown.seed.has_value()
            ? expr::CompiledPredicate::BatchMode::kScalar
            : expr::CompiledPredicate::BatchMode::kAuto;
    plan->node_programs.reserve(plan->pushdown.node_filters.size());
    for (const NodeFilter& filter : plan->pushdown.node_filters) {
      MAD_ASSIGN_OR_RETURN(expr::CompiledPredicate program,
                           expr::CompiledPredicate::Compile(
                               *db_, md, filter.predicate, view, mode));
      plan->node_programs.push_back(std::move(program));
    }
    if (plan->pushdown.residual != nullptr) {
      MAD_ASSIGN_OR_RETURN(
          plan->residual,
          expr::CompiledPredicate::Compile(*db_, md, plan->pushdown.residual,
                                           view, mode));
    }
  }
  if (!stmt.select_all) {
    MAD_ASSIGN_OR_RETURN(plan->projection,
                         TranslateProjection(md, stmt.items));
  }
  return Status::OK();
}

Result<QueryResult> Session::RunSelect(const SelectStatement& stmt,
                                       const ExplainStatement* explain) {
  // The whole statement reads at one pinned epoch under a shared lock:
  // concurrent sessions' commits queue behind it, so the plan's and the
  // engines' borrowed store pointers stay valid for the statement, and the
  // pin keeps GC away from the snapshot's versions. With a transaction open
  // the view is the transaction's (snapshot + its own uncommitted writes).
  // EXPLAIN plans the same way, so it prints the plan SELECT would run.
  ReaderLock read_lock(db_->mutex());
  // The per-statement pin protects the no-transaction, no-session-pin case;
  // CurrentView() then reads at exactly this pinned epoch.
  EpochPin pin = db_->PinEpoch();
  const ReadView view = CurrentView();
  SelectPlan plan;
  MAD_RETURN_IF_ERROR(PlanSelect(stmt, view, &plan));
  if (explain == nullptr) return ExecuteSelect(stmt, plan, view);
  QueryResult result;
  std::string profile;
  if (explain->analyze) {
    // EXPLAIN ANALYZE: execute the plan under a fresh trace and append the
    // recorded operator span tree to the plan it ran.
    auto trace = std::make_shared<QueryTrace>();
    {
      TraceScope scope(trace.get());
      MAD_ASSIGN_OR_RETURN(result, ExecuteSelect(stmt, plan, view));
    }
    result.kind = QueryResult::Kind::kCommand;
    profile = "-- execution profile --\n" + text::FormatQueryTrace(*trace);
    result.trace = std::move(trace);
  }
  result.message = plan.Explain(stmt) + profile;
  return result;
}

Result<QueryResult> Session::ExecuteSelect(const SelectStatement& stmt,
                                           const SelectPlan& plan,
                                           ReadView view) {
  ScopedSpan select_span("select", stmt.from.molecule_name);
  if (!stmt.from.molecule_name.empty() && plan.md.has_value()) {
    registry_.insert_or_assign(stmt.from.molecule_name, *plan.md);
  }
  QueryResult result;
  result.epoch = view.epoch;
  if (plan.rd.has_value()) {
    const RecursiveDescription& rd = *plan.rd;
    MAD_ASSIGN_OR_RETURN(std::vector<RecursiveMolecule> molecules,
                         DeriveRecursiveMolecules(*db_, rd, view));
    result.kind = QueryResult::Kind::kRecursive;
    result.recursive_description = rd;
    if (plan.recursive_where.has_value()) {
      ScopedSpan filter_span("sigma", stmt.where->ToString());
      filter_span.set_rows_in(static_cast<int64_t>(molecules.size()));
      // Each closure binds its root as node 0 and, only when the program
      // loops over them, its members in level order as node 1.
      const expr::CompiledPredicate& where = *plan.recursive_where;
      const bool members_looped =
          !where.loop_nodes().empty() && where.loop_nodes().back() == 1;
      MAD_ASSIGN_OR_RETURN(const AtomType* at, db_->GetAtomType(rd.atom_type));
      const AtomStore& store = at->occurrence();
      expr::CompiledPredicate::Scratch scratch;
      std::vector<const Atom*> members;
      for (RecursiveMolecule& m : molecules) {
        const Atom* root_atom = store.FindVersionAt(m.root(), view);
        expr::CompiledPredicate::AtomSpan spans[2] = {{&root_atom, 1}, {}};
        if (members_looped) {
          members.clear();
          for (const auto& level : m.levels()) {
            for (AtomId id : level) {
              members.push_back(store.FindVersionAt(id, view));
            }
          }
          spans[1] = {members.data(), members.size()};
        }
        MAD_ASSIGN_OR_RETURN(bool hit, where.Eval(spans, scratch));
        if (hit) result.recursive.push_back(std::move(m));
      }
      filter_span.set_rows_out(static_cast<int64_t>(result.recursive.size()));
    } else {
      result.recursive = std::move(molecules);
    }
    if (plan.expansion.has_value()) {
      // Expansion tail: one component molecule per closure member, derived
      // only for the closures that survived the WHERE filter, by one engine
      // for every closure.
      DerivationOptions dopts;
      dopts.view = view;
      MAD_ASSIGN_OR_RETURN(
          DerivationEngine engine,
          DerivationEngine::Create(*db_, *plan.expansion, dopts));
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
      result.expansion_description = plan.expansion;
      result.derivation = totals;
    }
    select_span.set_rows_out(static_cast<int64_t>(result.recursive.size()));
    return result;
  }

  const MoleculeDescription& md = *plan.md;
  DerivationOptions dopts;
  dopts.view = view;
  DerivationStats dstats;
  std::optional<MoleculeType> derived;
  if (plan.pushed) {
    // The engine borrows the plan's programs for the derive call below.
    for (size_t i = 0; i < plan.node_programs.size(); ++i) {
      dopts.node_filters.emplace_back(plan.pushdown.node_filters[i].node_index,
                                      &plan.node_programs[i]);
    }
    if (plan.residual.has_value()) dopts.residual = &*plan.residual;
    MAD_ASSIGN_OR_RETURN(const AtomType* root_at,
                         db_->GetAtomType(md.root_node().type_name));

    // Root seeding: take the index bucket instead of scanning the whole
    // occurrence. Bucket order is index insertion order, which diverges
    // from occurrence order after updates, so restore occurrence order —
    // seeded derivation stays bit-identical to the unseeded scan.
    std::optional<std::vector<AtomId>> seeded;
    if (plan.pushdown.seed.has_value()) {
      const IndexSeed& seed = *plan.pushdown.seed;
      ScopedSpan seed_span("index-seed", md.root_node().type_name + "." +
                                             seed.attribute + " = " +
                                             seed.value.ToString());
      seed_span.set_rows_in(
          static_cast<int64_t>(root_at->occurrence().size()));
      const std::vector<AtomId>& bucket = seed.index->Lookup(seed.value);
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
    if (!seeded.has_value() && plan.pushdown.scan_seed.has_value()) {
      const ScanSeed& scan = *plan.pushdown.scan_seed;
      const ColumnSet& columns = root_at->occurrence().columns();
      const Column* column = columns.column(scan.value_slot);
      expr::RowBitmaps bits;
      if (column != nullptr &&
          expr::BuildCompareBitmaps(*column, columns.rows(), scan.op,
                                    scan.value, scan.attr_on_left, &bits) &&
          !bits.any_err) {
        ScopedSpan scan_span("seed-scan",
                             md.root_node().type_name + ": " + scan.display);
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
            DeriveMoleculesForRoots(*db_, md, *seeded, dopts, &dstats));
      } else {
        MAD_ASSIGN_OR_RETURN(molecules,
                             DeriveMolecules(*db_, md, dopts, &dstats));
      }
      sigma_span.set_rows_in(static_cast<int64_t>(dstats.roots));
      sigma_span.set_rows_out(static_cast<int64_t>(molecules.size()));
      derived.emplace(plan.name, md, std::move(molecules));
    }
  } else {
    MAD_ASSIGN_OR_RETURN(MoleculeType full,
                         DefineMoleculeType(*db_, plan.name, md, dopts,
                                            &dstats));
    derived.emplace(std::move(full));
  }
  result.derivation = dstats;
  MoleculeType mt = *std::move(derived);
  if (!plan.pushed && stmt.where != nullptr) {
    MAD_ASSIGN_OR_RETURN(
        mt, RestrictMolecules(*db_, mt, stmt.where, plan.name, view));
  }
  if (plan.projection.has_value()) {
    MAD_ASSIGN_OR_RETURN(
        mt, ProjectMolecules(*db_, mt, *plan.projection, plan.name));
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
