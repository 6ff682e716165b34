#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "exec/expr_eval.h"
#include "exec/join.h"
#include "exec/transitive_closure.h"

namespace prisma::exec {

using algebra::AggFunc;
using algebra::AggregatePlan;
using algebra::JoinPlan;
using algebra::LimitPlan;
using algebra::Plan;
using algebra::PlanKind;
using algebra::ProjectPlan;
using algebra::ScanPlan;
using algebra::SelectPlan;
using algebra::SortPlan;
using algebra::ValuesPlan;

const char* ExecModeName(ExecMode mode) {
  switch (mode) {
    case ExecMode::kRow:
      return "row";
    case ExecMode::kVectorized:
      return "vectorized";
  }
  return "?";
}

StatusOr<const storage::Relation*> MapTableResolver::Resolve(
    const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return NotFoundError("no resident relation named " + table);
  }
  return it->second;
}

const storage::HashIndex* MapTableResolver::FindHashIndex(
    const std::string& table, const std::vector<size_t>& columns) const {
  auto it = hash_indexes_.find(table);
  if (it == hash_indexes_.end()) return nullptr;
  for (const storage::HashIndex* index : it->second) {
    if (index->key_columns() == columns) return index;
  }
  return nullptr;
}

const storage::BTreeIndex* MapTableResolver::FindBTreeIndex(
    const std::string& table, const std::vector<size_t>& columns) const {
  auto it = btree_indexes_.find(table);
  if (it == btree_indexes_.end()) return nullptr;
  for (const storage::BTreeIndex* index : it->second) {
    if (index->key_columns() == columns) return index;
  }
  return nullptr;
}

// ------------------------------------------------------------ PreparedExpr

StatusOr<Executor::PreparedExpr> Executor::PreparedExpr::Make(
    const algebra::Expr& expr, const ExecOptions& options) {
  PreparedExpr p;
  if (options.expr_mode == ExprMode::kCompiled) {
    ASSIGN_OR_RETURN(CompiledExpr compiled, CompileExpr(expr));
    p.compiled_ = std::make_shared<CompiledExpr>(std::move(compiled));
    p.cost_ns_ = static_cast<sim::SimTime>(p.compiled_->num_instructions()) *
                 options.costs.compiled_instr_ns;
    p.vrow_cost_ns_ =
        static_cast<sim::SimTime>(p.compiled_->num_instructions()) *
        options.costs.vector_instr_ns;
    p.vbatch_cost_ns_ =
        static_cast<sim::SimTime>(p.compiled_->num_instructions()) *
        options.costs.vector_batch_ns;
  } else {
    p.interpreted_ = &expr;
    p.cost_ns_ = static_cast<sim::SimTime>(expr.TreeSize()) *
                 options.costs.interpreted_node_ns;
  }
  return p;
}

StatusOr<Value> Executor::PreparedExpr::Eval(const Tuple& tuple) const {
  if (compiled_ != nullptr) return compiled_->Eval(tuple);
  return EvalExpr(*interpreted_, tuple);
}

StatusOr<bool> Executor::PreparedExpr::EvalPredicate(const Tuple& tuple) const {
  if (compiled_ != nullptr) return compiled_->EvalPredicate(tuple);
  return exec::EvalPredicate(*interpreted_, tuple);
}

StatusOr<ColumnBatch::Column> Executor::PreparedExpr::EvalBatch(
    std::span<const ColumnView> columns, size_t rows) const {
  if (compiled_ == nullptr) {
    return InternalError("vectorized evaluation requires compiled mode");
  }
  return compiled_->EvalBatch(columns, rows);
}

Status Executor::PreparedExpr::EvalPredicateBatch(
    std::span<const ColumnView> columns, size_t rows,
    std::vector<uint8_t>* keep) const {
  if (compiled_ == nullptr) {
    return InternalError("vectorized evaluation requires compiled mode");
  }
  return compiled_->EvalPredicateBatch(columns, rows, keep);
}

// ---------------------------------------------------------------- Executor

Executor::Executor(const TableResolver* resolver, ExecOptions options)
    : resolver_(resolver), options_(std::move(options)) {
  vectorized_ = options_.exec_mode == ExecMode::kVectorized &&
                options_.expr_mode == ExprMode::kCompiled;
}

void Executor::Charge(sim::SimTime ns) {
  stats_.charged_ns += ns;
  if (options_.charge) options_.charge(ns);
}

namespace {

std::vector<Tuple> FlattenBatches(const std::vector<ColumnBatch>& batches) {
  size_t total = 0;
  for (const ColumnBatch& b : batches) total += b.num_rows();
  std::vector<Tuple> out;
  out.reserve(total);
  for (const ColumnBatch& b : batches) {
    for (size_t r = 0; r < b.num_rows(); ++r) out.push_back(b.RowAt(r));
  }
  return out;
}

}  // namespace

StatusOr<std::vector<Tuple>> Executor::Execute(const Plan& plan) {
  profile_root_.reset();
  std::vector<Tuple> out;
  if (vectorized_) {
    ASSIGN_OR_RETURN(std::vector<ColumnBatch> batches, RunBatches(plan));
    out = FlattenBatches(batches);
  } else {
    ASSIGN_OR_RETURN(out, Run(plan));
  }
  stats_.tuples_output = out.size();
  return out;
}

namespace {

/// Only expensive nodes are worth memoizing under the subtree cache.
bool CacheableKind(PlanKind kind) {
  switch (kind) {
    case PlanKind::kJoin:
    case PlanKind::kAggregate:
    case PlanKind::kSort:
    case PlanKind::kDistinct:
    case PlanKind::kTransitiveClosure:
      return true;
    default:
      return false;
  }
}

}  // namespace

namespace {

/// Display label of a plan node in profiles ("Scan(emp#3)", "Join", ...).
std::string OperatorLabel(const Plan& plan) {
  std::string label = PlanKindName(plan.kind());
  if (plan.kind() == PlanKind::kScan) {
    label += '(';
    label += static_cast<const ScanPlan&>(plan).table();
    label += ')';
  }
  return label;
}

}  // namespace

StatusOr<std::vector<Tuple>> Executor::Run(const Plan& plan) {
  if (!options_.profile) return RunCached(plan);
  // Build this operator's profile node around the actual execution; the
  // charged-ns delta is inclusive of children (renderers derive self time).
  obs::OperatorProfile node;
  node.op = OperatorLabel(plan);
  obs::OperatorProfile* parent = current_profile_;
  current_profile_ = &node;
  const sim::SimTime before_ns = stats_.charged_ns;
  auto result = RunCached(plan);
  current_profile_ = parent;
  node.total_ns = stats_.charged_ns - before_ns;
  if (result.ok()) {
    node.rows = result->size();
    for (const Tuple& t : *result) {
      node.bytes += static_cast<uint64_t>(t.ByteSize());
    }
  }
  AttachProfile(std::move(node));
  return result;
}

void Executor::AttachProfile(obs::OperatorProfile node) {
  if (current_profile_ != nullptr) {
    current_profile_->children.push_back(std::move(node));
  } else {
    profile_root_ = std::move(node);
  }
}

StatusOr<std::vector<Tuple>> Executor::RunCached(const Plan& plan) {
  if (options_.enable_subtree_cache && CacheableKind(plan.kind())) {
    const std::string key = plan.ToString();
    auto it = subtree_cache_.find(key);
    if (it != subtree_cache_.end()) {
      ++stats_.subtree_cache_hits;
      return it->second;
    }
    ASSIGN_OR_RETURN(std::vector<Tuple> out, RunUncached(plan));
    subtree_cache_[key] = out;
    return out;
  }
  return RunUncached(plan);
}

StatusOr<std::vector<Tuple>> Executor::RunUncached(const Plan& plan) {
  switch (plan.kind()) {
    case PlanKind::kScan:
      return RunScan(static_cast<const ScanPlan&>(plan));
    case PlanKind::kValues:
      return static_cast<const ValuesPlan&>(plan).rows();
    case PlanKind::kSelect:
      return RunSelect(static_cast<const SelectPlan&>(plan));
    case PlanKind::kProject:
      return RunProject(static_cast<const ProjectPlan&>(plan));
    case PlanKind::kJoin:
      return RunJoin(static_cast<const JoinPlan&>(plan));
    case PlanKind::kUnion:
      return RunUnion(plan);
    case PlanKind::kDifference:
      return RunDifference(plan);
    case PlanKind::kDistinct:
      return RunDistinct(plan);
    case PlanKind::kAggregate:
      return RunAggregate(static_cast<const AggregatePlan&>(plan));
    case PlanKind::kSort:
      return RunSort(static_cast<const SortPlan&>(plan));
    case PlanKind::kLimit:
      return RunLimit(static_cast<const LimitPlan&>(plan));
    case PlanKind::kTransitiveClosure:
      return RunTransitiveClosure(plan);
    case PlanKind::kExchange:
      // Repartitioning is a mail-layer affair (DESIGN.md §10); within one
      // local executor an Exchange moves nothing and is a pass-through.
      return RunCached(*plan.child());
    case PlanKind::kFixpoint:
      // Degenerate single-node form of the distributed fixpoint
      // (DESIGN.md §11): with every partition local, the rounds collapse
      // to the in-memory closure operator.
      return RunTransitiveClosure(plan);
  }
  return InternalError("corrupt plan kind");
}

StatusOr<std::vector<Tuple>> Executor::RunScan(const ScanPlan& plan) {
  ASSIGN_OR_RETURN(const storage::Relation* rel,
                   resolver_->Resolve(plan.table()));
  std::vector<Tuple> out = rel->AllTuples();
  stats_.tuples_scanned += out.size();
  Charge(static_cast<sim::SimTime>(out.size()) * options_.costs.tuple_ns);
  return out;
}

template <typename Fn>
Status Executor::ChildRows::ForEach(Fn&& fn) {
  if (stored == nullptr) {
    for (Tuple& t : owned) RETURN_IF_ERROR(fn(std::move(t)));
    return Status::OK();
  }
  Status status;
  stored->Scan([&](storage::RowId, const Tuple& t) {
    status = fn(t);
    return status.ok();
  });
  return status;
}

StatusOr<Executor::ChildRows> Executor::ReadChildRows(const Plan& child) {
  ChildRows rows;
  if (vectorized_ || child.kind() != PlanKind::kScan) {
    ASSIGN_OR_RETURN(rows.owned, RunChildRows(child));
    return rows;
  }
  // In place: account for the scan exactly as Run(scan) would.
  const auto& scan = static_cast<const ScanPlan&>(child);
  StatusOr<const storage::Relation*> rel = resolver_->Resolve(scan.table());
  obs::OperatorProfile node;
  if (rel.ok()) {
    rows.stored = *rel;
    node.rows = rows.stored->num_tuples();
    stats_.tuples_scanned += node.rows;
    node.total_ns =
        static_cast<sim::SimTime>(node.rows) * options_.costs.tuple_ns;
    Charge(node.total_ns);
  }
  if (options_.profile) {
    node.op = OperatorLabel(child);
    // The sum of Tuple::ByteSize over the live rows, as a copying scan's
    // profile counts it.
    if (rows.stored != nullptr) node.bytes = rows.stored->byte_size();
    AttachProfile(std::move(node));
  }
  RETURN_IF_ERROR(rel.status());
  return rows;
}

namespace {

/// A per-column restriction extracted from a conjunct: column OP literal.
struct ColumnBound {
  size_t column;
  algebra::BinaryOp op;
  Value literal;
};

/// Matches `conjunct` as (ColumnRef OP Literal) or (Literal OP ColumnRef),
/// normalizing so the column is on the left.
std::optional<ColumnBound> MatchColumnBound(const algebra::Expr& conjunct) {
  if (conjunct.kind() != algebra::ExprKind::kBinary) return std::nullopt;
  algebra::BinaryOp op = conjunct.binary_op();
  const algebra::Expr* l = conjunct.left();
  const algebra::Expr* r = conjunct.right();
  if (l->kind() == algebra::ExprKind::kLiteral &&
      r->kind() == algebra::ExprKind::kColumnRef) {
    std::swap(l, r);
    switch (op) {  // Mirror the comparison.
      case algebra::BinaryOp::kLt: op = algebra::BinaryOp::kGt; break;
      case algebra::BinaryOp::kLe: op = algebra::BinaryOp::kGe; break;
      case algebra::BinaryOp::kGt: op = algebra::BinaryOp::kLt; break;
      case algebra::BinaryOp::kGe: op = algebra::BinaryOp::kLe; break;
      default: break;
    }
  }
  if (l->kind() != algebra::ExprKind::kColumnRef || !l->bound() ||
      r->kind() != algebra::ExprKind::kLiteral) {
    return std::nullopt;
  }
  switch (op) {
    case algebra::BinaryOp::kEq:
    case algebra::BinaryOp::kLt:
    case algebra::BinaryOp::kLe:
    case algebra::BinaryOp::kGt:
    case algebra::BinaryOp::kGe:
      return ColumnBound{l->column_index(), op, r->literal()};
    default:
      return std::nullopt;
  }
}

}  // namespace

StatusOr<std::optional<std::vector<Tuple>>> Executor::TryIndexSelect(
    const SelectPlan& plan) {
  if (plan.child()->kind() != PlanKind::kScan) return std::optional<std::vector<Tuple>>();
  const auto& scan = static_cast<const ScanPlan&>(*plan.child());
  ASSIGN_OR_RETURN(const storage::Relation* rel,
                   resolver_->Resolve(scan.table()));

  std::vector<ColumnBound> bounds;
  for (const auto& conjunct : algebra::SplitConjuncts(plan.predicate())) {
    auto bound = MatchColumnBound(*conjunct);
    if (bound.has_value()) bounds.push_back(std::move(*bound));
  }

  ASSIGN_OR_RETURN(PreparedExpr pred,
                   PreparedExpr::Make(plan.predicate(), options_));
  // Candidate rows are re-checked against the *full* predicate, so the
  // access path only needs to be a superset of the answer.
  auto filter_rows =
      [&](const std::vector<storage::RowId>& rows)
      -> StatusOr<std::vector<Tuple>> {
    std::vector<Tuple> out;
    for (const storage::RowId row : rows) {
      auto tuple = rel->Get(row);
      if (!tuple.ok()) continue;  // Row vanished (not possible locally).
      ASSIGN_OR_RETURN(bool keep, pred.EvalPredicate(*tuple));
      ++stats_.expr_evaluations;
      if (keep) out.push_back(std::move(*tuple));
    }
    Charge(static_cast<sim::SimTime>(rows.size()) *
           (options_.costs.hash_ns + pred.cost_ns()));
    return out;
  };

  // Equality on a hash-indexed column: probe.
  for (const ColumnBound& bound : bounds) {
    if (bound.op != algebra::BinaryOp::kEq) continue;
    const storage::HashIndex* hash =
        resolver_->FindHashIndex(scan.table(), {bound.column});
    if (hash == nullptr) continue;
    ++stats_.index_selections;
    ASSIGN_OR_RETURN(std::vector<Tuple> out,
                     filter_rows(hash->Probe(Tuple({bound.literal}))));
    return std::optional<std::vector<Tuple>>(std::move(out));
  }

  // Range (or equality) on an ordered-indexed column: bounded scan.
  for (const ColumnBound& first : bounds) {
    const storage::BTreeIndex* btree =
        resolver_->FindBTreeIndex(scan.table(), {first.column});
    if (btree == nullptr) continue;
    // Combine every bound on this column into one [lo, hi] window.
    std::optional<Tuple> lo;
    std::optional<Tuple> hi;
    bool lo_inclusive = true;
    bool hi_inclusive = true;
    auto tighten_lo = [&](const Value& v, bool inclusive) {
      Tuple key({v});
      if (!lo || key.Compare(*lo) > 0 ||
          (key.Compare(*lo) == 0 && !inclusive)) {
        lo = std::move(key);
        lo_inclusive = inclusive;
      }
    };
    auto tighten_hi = [&](const Value& v, bool inclusive) {
      Tuple key({v});
      if (!hi || key.Compare(*hi) < 0 ||
          (key.Compare(*hi) == 0 && !inclusive)) {
        hi = std::move(key);
        hi_inclusive = inclusive;
      }
    };
    for (const ColumnBound& bound : bounds) {
      if (bound.column != first.column) continue;
      switch (bound.op) {
        case algebra::BinaryOp::kEq:
          tighten_lo(bound.literal, true);
          tighten_hi(bound.literal, true);
          break;
        case algebra::BinaryOp::kGt:
          tighten_lo(bound.literal, false);
          break;
        case algebra::BinaryOp::kGe:
          tighten_lo(bound.literal, true);
          break;
        case algebra::BinaryOp::kLt:
          tighten_hi(bound.literal, false);
          break;
        case algebra::BinaryOp::kLe:
          tighten_hi(bound.literal, true);
          break;
        default:
          break;
      }
    }
    if (!lo && !hi) continue;  // No usable window on this column.
    ++stats_.index_selections;
    std::vector<storage::RowId> rows;
    btree->ScanRange(lo, lo_inclusive, hi, hi_inclusive,
                     [&](const Tuple&, storage::RowId row) {
                       rows.push_back(row);
                       return true;
                     });
    Charge(static_cast<sim::SimTime>(rows.size()) * options_.costs.compare_ns);
    ASSIGN_OR_RETURN(std::vector<Tuple> out, filter_rows(rows));
    return std::optional<std::vector<Tuple>>(std::move(out));
  }
  return std::optional<std::vector<Tuple>>();
}

StatusOr<std::vector<Tuple>> Executor::RunSelect(const SelectPlan& plan) {
  // Local access-path selection (§2.5): try an index before scanning.
  ASSIGN_OR_RETURN(std::optional<std::vector<Tuple>> via_index,
                   TryIndexSelect(plan));
  if (via_index.has_value()) return std::move(*via_index);

  ASSIGN_OR_RETURN(ChildRows in, ReadChildRows(*plan.child()));
  ASSIGN_OR_RETURN(PreparedExpr pred,
                   PreparedExpr::Make(plan.predicate(), options_));
  std::vector<Tuple> out;
  if (in.stored != nullptr && options_.expr_mode == ExprMode::kCompiled) {
    RETURN_IF_ERROR(FilterInPlace(*in.stored, pred, &out));
  } else {
    RETURN_IF_ERROR(in.ForEach([&](auto&& t) -> Status {
      ASSIGN_OR_RETURN(bool keep, pred.EvalPredicate(t));
      ++stats_.expr_evaluations;
      // Copies a stored row, moves an owned one.
      if (keep) out.push_back(std::forward<decltype(t)>(t));
      return Status::OK();
    }));
  }
  Charge(static_cast<sim::SimTime>(in.size()) *
         (options_.costs.tuple_ns + pred.cost_ns()));
  return out;
}

Status Executor::FilterInPlace(const storage::Relation& rel,
                               const PreparedExpr& pred,
                               std::vector<Tuple>* out) {
  Status status;
  std::vector<uint8_t> keep;
  rel.ScanSlices(options_.batch_rows, [&](std::span<const storage::RowId> rows,
                                          std::span<const ColumnView> cols) {
    status = pred.EvalPredicateBatch(cols, rows.size(), &keep);
    if (!status.ok()) {
      // Replay the slice row at a time: the row path's error, and its
      // count of the evaluations that succeeded before it.
      for (size_t r = 0; r < rows.size(); ++r) {
        StatusOr<bool> row_keep = pred.EvalPredicate(RowOfViews(cols, r));
        if (!row_keep.ok()) {
          status = row_keep.status();
          break;
        }
        ++stats_.expr_evaluations;
      }
      return false;
    }
    stats_.expr_evaluations += rows.size();
    for (size_t r = 0; r < rows.size(); ++r) {
      if (keep[r] != 0) out->push_back(RowOfViews(cols, r));
    }
    return true;
  });
  return status;
}

StatusOr<std::vector<Tuple>> Executor::RunProject(const ProjectPlan& plan) {
  ASSIGN_OR_RETURN(ChildRows in, ReadChildRows(*plan.child()));
  std::vector<PreparedExpr> exprs;
  sim::SimTime per_tuple = options_.costs.tuple_ns;
  for (const auto& e : plan.exprs()) {
    ASSIGN_OR_RETURN(PreparedExpr p, PreparedExpr::Make(*e, options_));
    per_tuple += p.cost_ns();
    exprs.push_back(std::move(p));
  }
  std::vector<Tuple> out;
  out.reserve(in.size());
  RETURN_IF_ERROR(in.ForEach([&](const Tuple& t) -> Status {
    std::vector<Value> values;
    values.reserve(exprs.size());
    for (const PreparedExpr& e : exprs) {
      ASSIGN_OR_RETURN(Value v, e.Eval(t));
      ++stats_.expr_evaluations;
      values.push_back(std::move(v));
    }
    out.push_back(Tuple(std::move(values)));
    return Status::OK();
  }));
  Charge(static_cast<sim::SimTime>(in.size()) * per_tuple);
  return out;
}

StatusOr<std::vector<Tuple>> Executor::RunJoin(const JoinPlan& plan) {
  ASSIGN_OR_RETURN(std::vector<Tuple> left, RunChildRows(*plan.child(0)));
  ASSIGN_OR_RETURN(std::vector<Tuple> right, RunChildRows(*plan.child(1)));

  JoinFilter filter;
  sim::SimTime filter_cost = 0;
  std::optional<PreparedExpr> pred;
  if (plan.predicate() != nullptr) {
    ASSIGN_OR_RETURN(PreparedExpr p,
                     PreparedExpr::Make(*plan.predicate(), options_));
    filter_cost = p.cost_ns();
    pred = std::move(p);
    filter = [this, &pred](const Tuple& t) {
      ++stats_.expr_evaluations;
      return pred->EvalPredicate(t);
    };
  }

  const auto keys = plan.EquiKeys();
  JoinCounters counters;
  StatusOr<std::vector<Tuple>> out =
      keys.empty()
          ? NestedLoopJoin(left, right, filter, &counters)
          : HashJoin(left, right, keys, filter, &counters);
  RETURN_IF_ERROR(out.status());
  Charge(static_cast<sim::SimTime>(counters.hash_ops) *
             options_.costs.hash_ns +
         static_cast<sim::SimTime>(counters.compare_ops) *
             options_.costs.compare_ns +
         static_cast<sim::SimTime>(counters.pairs_examined) *
             (options_.costs.tuple_ns + filter_cost));
  return out;
}

StatusOr<std::vector<Tuple>> Executor::RunUnion(const Plan& plan) {
  ASSIGN_OR_RETURN(std::vector<Tuple> left, RunChildRows(*plan.child(0)));
  ASSIGN_OR_RETURN(std::vector<Tuple> right, RunChildRows(*plan.child(1)));
  Charge(static_cast<sim::SimTime>(right.size()) * options_.costs.tuple_ns);
  for (Tuple& t : right) left.push_back(std::move(t));
  return left;
}

namespace {

/// Dense ids 0, 1, 2, ... of distinct keys, in the order they were added,
/// indexed by hash: open addressing with linear probing over (hash, id)
/// slots, grown to keep at most half of them full. The caller keeps the
/// key of each id and decides equality; a probe is compared only with ids
/// stored under the same 64-bit hash, so keys that compare equal must hash
/// equal (Value::Hash within +-2^53; DESIGN.md §12.4). This is the group
/// table of GroupBy and the row set of Distinct and Difference.
class KeyTable {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  size_t size() const { return size_; }

  /// The id stored under `hash` whose key `equal(id)` accepts, or kAbsent.
  template <typename Equal>
  uint32_t Find(uint64_t hash, const Equal& equal) const {
    if (slots_.empty()) return kAbsent;
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.id == kAbsent) return kAbsent;
      if (slot.hash == hash && equal(slot.id)) return slot.id;
    }
  }

  /// Find, but an absent key is added as id size(); `*added` says which.
  template <typename Equal>
  uint32_t FindOrAdd(uint64_t hash, const Equal& equal, bool* added) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    size_t i = hash & mask_;
    for (;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.id == kAbsent) break;
      if (slot.hash == hash && equal(slot.id)) {
        *added = false;
        return slot.id;
      }
    }
    const auto id = static_cast<uint32_t>(size_++);
    slots_[i] = Slot{hash, id};
    *added = true;
    return id;
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t id = kAbsent;
  };

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(16, old.size() * 2), Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kAbsent) continue;
      size_t i = slot.hash & mask_;
      while (slots_[i].id != kAbsent) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;  // Power-of-two size.
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace

StatusOr<std::vector<Tuple>> Executor::RunDifference(const Plan& plan) {
  ASSIGN_OR_RETURN(std::vector<Tuple> left, RunChildRows(*plan.child(0)));
  ASSIGN_OR_RETURN(std::vector<Tuple> right, RunChildRows(*plan.child(1)));
  // Anti-semi by whole-tuple equality; left duplicates surviving together.
  KeyTable table;
  std::vector<const Tuple*> reject;  // By id: the distinct right rows.
  for (const Tuple& t : right) {
    bool added = false;
    table.FindOrAdd(
        t.Hash(), [&](uint32_t id) { return *reject[id] == t; }, &added);
    if (added) reject.push_back(&t);
  }
  Charge(static_cast<sim::SimTime>(left.size() + right.size()) *
         options_.costs.hash_ns);
  std::vector<Tuple> out;
  for (Tuple& t : left) {
    if (table.Find(t.Hash(), [&](uint32_t id) { return *reject[id] == t; }) ==
        KeyTable::kAbsent) {
      out.push_back(std::move(t));
    }
  }
  return out;
}

StatusOr<std::vector<Tuple>> Executor::RunDistinct(const Plan& plan) {
  ASSIGN_OR_RETURN(std::vector<Tuple> in, RunChildRows(*plan.child()));
  Charge(static_cast<sim::SimTime>(in.size()) * options_.costs.hash_ns);
  // The first occurrence of each row, in input order; ids index `out`.
  KeyTable seen;
  std::vector<Tuple> out;
  for (Tuple& t : in) {
    bool added = false;
    seen.FindOrAdd(
        t.Hash(), [&](uint32_t id) { return out[id] == t; }, &added);
    if (added) out.push_back(std::move(t));
  }
  return out;
}

namespace {

/// Running state of one aggregate over one group.
struct AggState {
  uint64_t count = 0;        // Non-null inputs (or all rows for COUNT(*)).
  int64_t sum_i = 0;
  double sum_d = 0;
  bool sum_is_double = false;
  std::optional<Value> min;
  std::optional<Value> max;

  void Add(const Value& v, AggFunc func, bool count_star) {
    if (count_star) {
      ++count;
      return;
    }
    if (v.is_null()) return;  // SQL aggregates ignore NULLs.
    ++count;
    switch (func) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v.type() == DataType::kDouble) {
          AddDouble(v.double_value());
        } else {
          AddInt(v.int_value());
        }
        break;
      case AggFunc::kMin:
        if (!min.has_value() || v < *min) min = v;
        break;
      case AggFunc::kMax:
        if (!max.has_value() || *max < v) max = v;
        break;
    }
  }
  /// The SUM/AVG fold of one non-null INT or DOUBLE input (Add minus the
  /// count), for the typed column loops.
  void AddInt(int64_t v) {
    sum_i += v;
    sum_d += static_cast<double>(v);
  }
  void AddDouble(double v) {
    sum_is_double = true;
    sum_d += v;
  }

  Value Result(AggFunc func, DataType out_type) const {
    switch (func) {
      case AggFunc::kCount:
        return Value::Int(static_cast<int64_t>(count));
      case AggFunc::kSum:
        if (count == 0) return Value::Null();
        if (out_type == DataType::kDouble || sum_is_double) {
          return Value::Double(sum_d);
        }
        return Value::Int(sum_i);
      case AggFunc::kAvg:
        if (count == 0) return Value::Null();
        return Value::Double(sum_d / static_cast<double>(count));
      case AggFunc::kMin:
        return min.has_value() ? *min : Value::Null();
      case AggFunc::kMax:
        return max.has_value() ? *max : Value::Null();
    }
    return Value::Null();
  }
};

}  // namespace

/// The groups of one Aggregate plus its prepared key and argument
/// expressions. Rows arrive one at a time (AddRow, the row loop) or as
/// column windows (AddColumns: the vectorized operator, and the row-mode
/// operator over a fragment read in place). Groups live in first-seen
/// order in a KeyTable; Finish sorts them by key, so both feeds produce
/// the rows, in the order, of an ordered map keyed by the first key seen.
class Executor::GroupBy {
 public:
  static StatusOr<GroupBy> Make(const AggregatePlan& plan,
                                const ExecOptions& options) {
    GroupBy g(plan);
    g.row_cost_ns_ = options.costs.hash_ns;
    g.vrow_cost_ns_ = options.costs.hash_ns;
    auto add = [&](const algebra::Expr& e) -> StatusOr<PreparedExpr> {
      ASSIGN_OR_RETURN(PreparedExpr p, PreparedExpr::Make(e, options));
      g.row_cost_ns_ += p.cost_ns();
      g.vrow_cost_ns_ += p.vrow_cost_ns();
      g.vbatch_cost_ns_ += p.vbatch_cost_ns();
      return p;
    };
    for (const auto& k : plan.group_by()) {
      ASSIGN_OR_RETURN(PreparedExpr p, add(*k));
      g.keys_.push_back(std::move(p));
    }
    g.args_.resize(plan.aggs().size());
    for (size_t i = 0; i < plan.aggs().size(); ++i) {
      if (plan.aggs()[i].arg == nullptr) continue;
      ASSIGN_OR_RETURN(PreparedExpr p, add(*plan.aggs()[i].arg));
      g.args_[i] = std::move(p);
      ++g.num_exprs_;
    }
    g.num_exprs_ += g.keys_.size();
    g.key_ = Tuple(std::vector<Value>(g.keys_.size()));
    return g;
  }

  /// Row-path charge per input row, and the vectorized per-row and
  /// per-batch charges.
  sim::SimTime row_cost_ns() const { return row_cost_ns_; }
  sim::SimTime vrow_cost_ns() const { return vrow_cost_ns_; }
  sim::SimTime vbatch_cost_ns() const { return vbatch_cost_ns_; }
  /// Expression evaluations per input row (keys plus arguments).
  size_t num_exprs() const { return num_exprs_; }

  /// Folds one row: each key, then each argument, counting every
  /// evaluation that succeeds in `*evaluations`.
  Status AddRow(const Tuple& row, uint64_t* evaluations) {
    for (size_t k = 0; k < keys_.size(); ++k) {
      ASSIGN_OR_RETURN(key_.at(k), keys_[k].Eval(row));
      ++*evaluations;
    }
    bool added = false;
    const uint32_t group = table_.FindOrAdd(
        key_.Hash(), [&](uint32_t g) { return group_keys_[g] == key_; },
        &added);
    if (added) AddGroup(key_);
    AggState* states = &states_[group * args_.size()];
    for (size_t i = 0; i < args_.size(); ++i) {
      Value v;
      if (args_[i].has_value()) {
        ASSIGN_OR_RETURN(v, args_[i]->Eval(row));
        ++*evaluations;
      }
      states[i].Add(v, plan_.aggs()[i].func, !args_[i].has_value());
    }
    return Status::OK();
  }

  /// Folds `rows` rows of `columns`, evaluating keys and arguments with
  /// the batch kernels (compiled mode). On an error nothing of the slice
  /// is folded, and the slice is replayed row-major to return the error
  /// of its first failing row (its first failing expression), as the row
  /// loop would; `replay_evaluations`, when set, counts the evaluations
  /// that succeeded before it, as AddRow counts them.
  Status AddColumns(std::span<const ColumnView> columns, size_t rows,
                    uint64_t* replay_evaluations) {
    Status status = EvalColumns(columns, rows);
    if (!status.ok()) {
      uint64_t ignored = 0;
      RETURN_IF_ERROR(ReplayRowMajor(
          columns, rows,
          replay_evaluations != nullptr ? replay_evaluations : &ignored));
      return status;
    }
    FindGroups(rows);
    for (size_t i = 0; i < args_.size(); ++i) FoldColumn(i, rows);
    return Status::OK();
  }

  /// One row per group, in key order; a grand total (no GROUP BY) always
  /// emits exactly one row.
  std::vector<Tuple> Finish() {
    if (group_keys_.empty() && plan_.group_by().empty()) AddGroup(Tuple());
    // stable_sort stays in bounds even if NaN keys break the strict weak
    // order; within the DESIGN §12.4 contract no two keys tie.
    std::vector<uint32_t> order(group_keys_.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return group_keys_[a] < group_keys_[b];
    });
    std::vector<Tuple> out;
    out.reserve(order.size());
    const size_t num_keys = plan_.group_by().size();
    for (const uint32_t group : order) {
      const std::vector<Value>& key = group_keys_[group].values();
      std::vector<Value> row;
      row.reserve(key.size() + args_.size());
      row.insert(row.end(), key.begin(), key.end());
      for (size_t i = 0; i < args_.size(); ++i) {
        row.push_back(states_[group * args_.size() + i].Result(
            plan_.aggs()[i].func, plan_.schema().column(num_keys + i).type));
      }
      out.push_back(Tuple(std::move(row)));
    }
    return out;
  }

 private:
  explicit GroupBy(const AggregatePlan& plan) : plan_(plan) {}

  /// Appends a group keyed by `key`, with fresh states.
  void AddGroup(Tuple key) {
    group_keys_.push_back(std::move(key));
    states_.resize(states_.size() + args_.size());
  }

  /// Sets group_ids_[r] to the group of row r of the evaluated key
  /// columns, adding new groups in row order. Keys are hashed and compared
  /// straight from the columns; only a row that starts a group is boxed.
  void FindGroups(size_t rows) {
    hashes_.assign(rows, kTupleHashSeed);
    for (const ColumnView& col : key_cols_) {
      for (size_t r = 0; r < rows; ++r) {
        hashes_[r] = CombineTupleHash(hashes_[r], col.HashAt(r));
      }
    }
    group_ids_.resize(rows);
    for (size_t r = 0; r < rows; ++r) {
      auto equal = [&](uint32_t g) {
        const Tuple& key = group_keys_[g];
        for (size_t k = 0; k < key_cols_.size(); ++k) {
          if (!key_cols_[k].EqualsAt(r, key.at(k))) return false;
        }
        return true;
      };
      bool added = false;
      group_ids_[r] = table_.FindOrAdd(hashes_[r], equal, &added);
      if (added) AddGroup(RowOfViews(key_cols_, r));
    }
  }

  /// Folds aggregate `i` over the slice, row by row into each row's group,
  /// so every group sees its inputs in row order (DOUBLE sums stay
  /// bit-identical to AddRow's). COUNT(*), and COUNT/SUM/AVG over a typed
  /// INT or DOUBLE column, update the states from the typed arrays; the
  /// rest boxes each input into AggState::Add.
  void FoldColumn(size_t i, size_t rows) {
    const AggFunc func = plan_.aggs()[i].func;
    const size_t stride = args_.size();
    AggState* base = states_.data() + i;
    auto state = [&](size_t r) -> AggState& {
      return base[group_ids_[r] * stride];
    };
    if (!args_[i].has_value()) {
      for (size_t r = 0; r < rows; ++r) ++state(r).count;
      return;
    }
    const ColumnView& col = arg_cols_[i];
    const bool numeric =
        col.type == DataType::kInt64 || col.type == DataType::kDouble;
    const bool typed = !col.boxed && numeric &&
                       (func == AggFunc::kCount || func == AggFunc::kSum ||
                        func == AggFunc::kAvg);
    if (!typed) {
      Value v;
      for (size_t r = 0; r < rows; ++r) {
        col.LoadInto(r, &v);
        state(r).Add(v, func, /*count_star=*/false);
      }
      return;
    }
    for (size_t r = 0; r < rows; ++r) {
      if (col.nulls[r] != 0) continue;  // SQL aggregates ignore NULLs.
      AggState& s = state(r);
      ++s.count;
      if (func == AggFunc::kCount) continue;
      if (col.type == DataType::kInt64) {
        s.AddInt(col.ints[r]);
      } else {
        s.AddDouble(col.doubles[r]);
      }
    }
  }

  /// Evaluates every key and argument over the slice into `key_cols_` and
  /// `arg_cols_` (windows onto `results_`, valid until the next slice).
  Status EvalColumns(std::span<const ColumnView> columns, size_t rows) {
    results_.resize(keys_.size() + args_.size());
    key_cols_.resize(keys_.size());
    arg_cols_.resize(args_.size());
    for (size_t k = 0; k < keys_.size(); ++k) {
      ASSIGN_OR_RETURN(results_[k], keys_[k].EvalBatch(columns, rows));
      key_cols_[k] = results_[k].View();
    }
    for (size_t i = 0; i < args_.size(); ++i) {
      if (!args_[i].has_value()) continue;
      ColumnBatch::Column& col = results_[keys_.size() + i];
      ASSIGN_OR_RETURN(col, args_[i]->EvalBatch(columns, rows));
      arg_cols_[i] = col.View();
    }
    return Status::OK();
  }

  Status ReplayRowMajor(std::span<const ColumnView> columns, size_t rows,
                        uint64_t* evaluations) const {
    for (size_t r = 0; r < rows; ++r) {
      const Tuple row = RowOfViews(columns, r);
      for (const PreparedExpr& k : keys_) {
        RETURN_IF_ERROR(k.Eval(row).status());
        ++*evaluations;
      }
      for (const auto& a : args_) {
        if (!a.has_value()) continue;
        RETURN_IF_ERROR(a->Eval(row).status());
        ++*evaluations;
      }
    }
    return Status::OK();
  }

  const AggregatePlan& plan_;
  std::vector<PreparedExpr> keys_;
  std::vector<std::optional<PreparedExpr>> args_;  // nullopt: COUNT(*).
  size_t num_exprs_ = 0;
  sim::SimTime row_cost_ns_ = 0;
  sim::SimTime vrow_cost_ns_ = 0;
  sim::SimTime vbatch_cost_ns_ = 0;
  KeyTable table_;
  std::vector<Tuple> group_keys_;  // By group id: the first key seen.
  std::vector<AggState> states_;   // By group id, then aggregate.
  Tuple key_;                      // AddRow's reused probe key.
  // AddColumns' per-slice scratch.
  std::vector<ColumnView> key_cols_;
  std::vector<ColumnView> arg_cols_;
  std::vector<ColumnBatch::Column> results_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> group_ids_;
};

StatusOr<std::vector<Tuple>> Executor::RunAggregate(const AggregatePlan& plan) {
  ASSIGN_OR_RETURN(ChildRows in, ReadChildRows(*plan.child()));
  ASSIGN_OR_RETURN(GroupBy group_by, GroupBy::Make(plan, options_));
  if (in.stored != nullptr && options_.expr_mode == ExprMode::kCompiled) {
    // In place: column-wise over the fragment's slices, with the row
    // loop's evaluation count and error.
    Status status;
    in.stored->ScanSlices(
        options_.batch_rows, [&](std::span<const storage::RowId> rows,
                                 std::span<const ColumnView> cols) {
          status = group_by.AddColumns(cols, rows.size(),
                                       &stats_.expr_evaluations);
          if (status.ok()) {
            stats_.expr_evaluations += rows.size() * group_by.num_exprs();
          }
          return status.ok();
        });
    RETURN_IF_ERROR(status);
  } else {
    RETURN_IF_ERROR(in.ForEach([&](const Tuple& t) {
      return group_by.AddRow(t, &stats_.expr_evaluations);
    }));
  }
  Charge(static_cast<sim::SimTime>(in.size()) * group_by.row_cost_ns());
  return group_by.Finish();
}

StatusOr<std::vector<Tuple>> Executor::RunSort(const SortPlan& plan) {
  ASSIGN_OR_RETURN(std::vector<Tuple> in, RunChildRows(*plan.child()));

  std::vector<PreparedExpr> keys;
  sim::SimTime key_cost = 0;
  for (const auto& k : plan.keys()) {
    ASSIGN_OR_RETURN(PreparedExpr p, PreparedExpr::Make(*k.expr, options_));
    key_cost += p.cost_ns();
    keys.push_back(std::move(p));
  }
  // Evaluate sort keys once per tuple.
  std::vector<Tuple> key_tuples;
  key_tuples.reserve(in.size());
  for (const Tuple& t : in) {
    std::vector<Value> vals;
    vals.reserve(keys.size());
    for (const PreparedExpr& k : keys) {
      ASSIGN_OR_RETURN(Value v, k.Eval(t));
      ++stats_.expr_evaluations;
      vals.push_back(std::move(v));
    }
    key_tuples.push_back(Tuple(std::move(vals)));
  }

  std::vector<size_t> order(in.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t i = 0; i < keys.size(); ++i) {
      const int c = key_tuples[a].at(i).Compare(key_tuples[b].at(i));
      if (c != 0) return plan.keys()[i].descending ? c > 0 : c < 0;
    }
    return false;
  });

  const double n = static_cast<double>(std::max<size_t>(in.size(), 2));
  Charge(static_cast<sim::SimTime>(n * std::log2(n)) *
             options_.costs.compare_ns +
         static_cast<sim::SimTime>(in.size()) * key_cost);

  std::vector<Tuple> out;
  out.reserve(in.size());
  for (const size_t i : order) out.push_back(std::move(in[i]));
  return out;
}

StatusOr<std::vector<Tuple>> Executor::RunLimit(const LimitPlan& plan) {
  ASSIGN_OR_RETURN(std::vector<Tuple> in, RunChildRows(*plan.child()));
  if (in.size() > plan.limit()) in.resize(plan.limit());
  return in;
}

StatusOr<std::vector<Tuple>> Executor::RunTransitiveClosure(const Plan& plan) {
  ASSIGN_OR_RETURN(std::vector<Tuple> edges, RunChildRows(*plan.child()));
  TcStats tc_stats;
  ASSIGN_OR_RETURN(
      std::vector<Tuple> out,
      TransitiveClosure(edges, TcAlgorithm::kSeminaive, &tc_stats));
  Charge(static_cast<sim::SimTime>(tc_stats.pairs_derived) *
         options_.costs.hash_ns);
  return out;
}

// ---------------------------------------------------- vectorized spine

StatusOr<std::vector<Tuple>> Executor::RunChildRows(const Plan& child) {
  if (!vectorized_) return Run(child);
  ASSIGN_OR_RETURN(std::vector<ColumnBatch> batches, RunBatches(child));
  return FlattenBatches(batches);
}

StatusOr<std::vector<ColumnBatch>> Executor::RunBatches(const Plan& plan) {
  if (!options_.profile) {
    auto result = RunBatchesCached(plan);
    if (result.ok()) stats_.batches += result->size();
    return result;
  }
  obs::OperatorProfile node;
  node.op = OperatorLabel(plan);
  obs::OperatorProfile* parent = current_profile_;
  current_profile_ = &node;
  const sim::SimTime before_ns = stats_.charged_ns;
  auto result = RunBatchesCached(plan);
  current_profile_ = parent;
  node.total_ns = stats_.charged_ns - before_ns;
  if (result.ok()) {
    stats_.batches += result->size();
    node.batches = result->size();
    for (const ColumnBatch& b : *result) {
      node.rows += b.num_rows();
      node.bytes += static_cast<uint64_t>(b.ByteSize());
    }
  }
  AttachProfile(std::move(node));
  return result;
}

StatusOr<std::vector<ColumnBatch>> Executor::RunBatchesCached(
    const Plan& plan) {
  if (options_.enable_subtree_cache && CacheableKind(plan.kind())) {
    const std::string key = plan.ToString();
    auto it = subtree_cache_.find(key);
    if (it != subtree_cache_.end()) {
      ++stats_.subtree_cache_hits;
      return ColumnBatch::Chunk(it->second, options_.batch_rows);
    }
    ASSIGN_OR_RETURN(std::vector<ColumnBatch> out, RunBatchesUncached(plan));
    subtree_cache_[key] = FlattenBatches(out);
    return out;
  }
  return RunBatchesUncached(plan);
}

StatusOr<std::vector<ColumnBatch>> Executor::RunBatchesUncached(
    const Plan& plan) {
  switch (plan.kind()) {
    case PlanKind::kScan:
      return RunScanBatches(static_cast<const ScanPlan&>(plan));
    case PlanKind::kSelect:
      return RunSelectBatches(static_cast<const SelectPlan&>(plan));
    case PlanKind::kProject:
      return RunProjectBatches(static_cast<const ProjectPlan&>(plan));
    case PlanKind::kJoin:
      return RunJoinBatches(static_cast<const JoinPlan&>(plan));
    case PlanKind::kAggregate:
      return RunAggregateBatches(static_cast<const AggregatePlan&>(plan));
    case PlanKind::kExchange:
      // Pass-through locally, exactly like the row path.
      return RunBatchesCached(*plan.child());
    default: {
      // Operators without a batch kernel run their row logic (over batched
      // children, via RunChildRows) and re-chunk the output.
      ASSIGN_OR_RETURN(std::vector<Tuple> rows, RunUncached(plan));
      return ColumnBatch::Chunk(rows, options_.batch_rows);
    }
  }
}

StatusOr<std::vector<ColumnBatch>> Executor::RunScanBatches(
    const ScanPlan& plan) {
  ASSIGN_OR_RETURN(const storage::Relation* rel,
                   resolver_->Resolve(plan.table()));
  std::vector<ColumnBatch> out = rel->ScanBatches(options_.batch_rows);
  size_t rows = 0;
  for (const ColumnBatch& b : out) rows += b.num_rows();
  stats_.tuples_scanned += rows;
  Charge(static_cast<sim::SimTime>(rows) * options_.costs.batch_row_ns +
         static_cast<sim::SimTime>(out.size()) *
             options_.costs.vector_batch_ns);
  return out;
}

StatusOr<std::vector<ColumnBatch>> Executor::RunSelectBatches(
    const SelectPlan& plan) {
  // Index access paths return rows; re-chunk them.
  ASSIGN_OR_RETURN(std::optional<std::vector<Tuple>> via_index,
                   TryIndexSelect(plan));
  if (via_index.has_value()) {
    return ColumnBatch::Chunk(*via_index, options_.batch_rows);
  }

  ASSIGN_OR_RETURN(std::vector<ColumnBatch> in, RunBatches(*plan.child()));
  ASSIGN_OR_RETURN(PreparedExpr pred,
                   PreparedExpr::Make(plan.predicate(), options_));
  std::vector<ColumnBatch> out;
  std::vector<uint8_t> keep;
  std::vector<uint32_t> idx;
  for (const ColumnBatch& b : in) {
    RETURN_IF_ERROR(pred.EvalPredicateBatch(b.Views(), b.num_rows(), &keep));
    stats_.expr_evaluations += b.num_rows();
    Charge(static_cast<sim::SimTime>(b.num_rows()) *
               (options_.costs.batch_row_ns + pred.vrow_cost_ns()) +
           pred.vbatch_cost_ns());
    idx.clear();
    for (size_t r = 0; r < b.num_rows(); ++r) {
      if (keep[r]) idx.push_back(static_cast<uint32_t>(r));
    }
    if (idx.empty()) continue;
    out.push_back(b.TakeRows(idx));
  }
  return out;
}

StatusOr<std::vector<ColumnBatch>> Executor::RunProjectBatches(
    const ProjectPlan& plan) {
  ASSIGN_OR_RETURN(std::vector<ColumnBatch> in, RunBatches(*plan.child()));
  std::vector<PreparedExpr> exprs;
  sim::SimTime per_row = options_.costs.batch_row_ns;
  sim::SimTime per_batch = 0;
  for (const auto& e : plan.exprs()) {
    ASSIGN_OR_RETURN(PreparedExpr p, PreparedExpr::Make(*e, options_));
    per_row += p.vrow_cost_ns();
    per_batch += p.vbatch_cost_ns();
    exprs.push_back(std::move(p));
  }
  std::vector<ColumnBatch> out;
  out.reserve(in.size());
  for (const ColumnBatch& b : in) {
    const std::vector<ColumnView> views = b.Views();
    std::vector<ColumnBatch::Column> cols;
    cols.reserve(exprs.size());
    for (const PreparedExpr& e : exprs) {
      StatusOr<ColumnBatch::Column> col = e.EvalBatch(views, b.num_rows());
      if (!col.ok()) {
        // Surface the same first error as the row path: re-evaluate this
        // batch row-major (row-then-expression order).
        for (size_t r = 0; r < b.num_rows(); ++r) {
          const Tuple row = b.RowAt(r);
          for (const PreparedExpr& re : exprs) {
            RETURN_IF_ERROR(re.Eval(row).status());
          }
        }
        return col.status();
      }
      cols.push_back(std::move(*col));
    }
    stats_.expr_evaluations += b.num_rows() * exprs.size();
    Charge(static_cast<sim::SimTime>(b.num_rows()) * per_row + per_batch);
    out.push_back(ColumnBatch::FromColumns(std::move(cols), b.num_rows()));
  }
  return out;
}

StatusOr<std::vector<ColumnBatch>> Executor::RunJoinBatches(
    const JoinPlan& plan) {
  ASSIGN_OR_RETURN(std::vector<ColumnBatch> left, RunBatches(*plan.child(0)));
  ASSIGN_OR_RETURN(std::vector<ColumnBatch> right, RunBatches(*plan.child(1)));

  JoinFilter filter;
  sim::SimTime filter_cost = 0;
  std::optional<PreparedExpr> pred;
  if (plan.predicate() != nullptr) {
    ASSIGN_OR_RETURN(PreparedExpr p,
                     PreparedExpr::Make(*plan.predicate(), options_));
    filter_cost = p.cost_ns();
    pred = std::move(p);
    filter = [this, &pred](const Tuple& t) {
      ++stats_.expr_evaluations;
      return pred->EvalPredicate(t);
    };
  }

  const auto keys = plan.EquiKeys();
  JoinCounters counters;
  StatusOr<std::vector<ColumnBatch>> out =
      keys.empty() ? VectorizedNestedLoopJoin(left, right, options_.batch_rows,
                                              filter, &counters)
                   : VectorizedHashJoin(left, right, keys, options_.batch_rows,
                                        filter, &counters);
  RETURN_IF_ERROR(out.status());
  Charge(static_cast<sim::SimTime>(counters.hash_ops) *
             options_.costs.hash_ns +
         static_cast<sim::SimTime>(counters.compare_ops) *
             options_.costs.compare_ns +
         static_cast<sim::SimTime>(counters.pairs_examined) *
             (options_.costs.batch_row_ns + filter_cost));
  return out;
}

StatusOr<std::vector<ColumnBatch>> Executor::RunAggregateBatches(
    const AggregatePlan& plan) {
  ASSIGN_OR_RETURN(std::vector<ColumnBatch> in, RunBatches(*plan.child()));
  ASSIGN_OR_RETURN(GroupBy group_by, GroupBy::Make(plan, options_));
  for (const ColumnBatch& b : in) {
    RETURN_IF_ERROR(group_by.AddColumns(b.Views(), b.num_rows(), nullptr));
    stats_.expr_evaluations += b.num_rows() * group_by.num_exprs();
    Charge(static_cast<sim::SimTime>(b.num_rows()) * group_by.vrow_cost_ns() +
           group_by.vbatch_cost_ns());
  }
  return ColumnBatch::Chunk(group_by.Finish(), options_.batch_rows);
}

}  // namespace prisma::exec
