#ifndef PRISMA_EXEC_EXECUTOR_H_
#define PRISMA_EXEC_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "algebra/plan.h"
#include "common/status.h"
#include "common/tuple.h"
#include "exec/expr_compiler.h"
#include "obs/query_profile.h"
#include "pool/runtime.h"
#include "sim/simulator.h"
#include "storage/btree_index.h"
#include "storage/hash_index.h"
#include "storage/relation.h"

namespace prisma::exec {

/// Resolves base-table names in Scan nodes to resident relations. Inside
/// an OFM the resolver maps the fragment's qualified name to its local
/// fragment; in tests it is a simple map.
///
/// A resolver may also expose secondary indexes; the executor's local
/// access-path selection (the OFM's "local query optimizer", §2.5) uses
/// them for selections pinning or bounding an indexed column.
class TableResolver {
 public:
  virtual ~TableResolver() = default;
  virtual StatusOr<const storage::Relation*> Resolve(
      const std::string& table) const = 0;

  /// Hash index of `table` on exactly `columns`, or null.
  virtual const storage::HashIndex* FindHashIndex(
      const std::string& /*table*/,
      const std::vector<size_t>& /*columns*/) const {
    return nullptr;
  }
  /// Ordered index of `table` on exactly `columns`, or null.
  virtual const storage::BTreeIndex* FindBTreeIndex(
      const std::string& /*table*/,
      const std::vector<size_t>& /*columns*/) const {
    return nullptr;
  }
};

/// Map-backed resolver (does not own the relations or indexes).
class MapTableResolver : public TableResolver {
 public:
  void Register(const std::string& name, const storage::Relation* relation) {
    tables_[name] = relation;
  }
  void RegisterHashIndex(const std::string& table,
                         const storage::HashIndex* index) {
    hash_indexes_[table].push_back(index);
  }
  void RegisterBTreeIndex(const std::string& table,
                          const storage::BTreeIndex* index) {
    btree_indexes_[table].push_back(index);
  }

  StatusOr<const storage::Relation*> Resolve(
      const std::string& table) const override;
  const storage::HashIndex* FindHashIndex(
      const std::string& table,
      const std::vector<size_t>& columns) const override;
  const storage::BTreeIndex* FindBTreeIndex(
      const std::string& table,
      const std::vector<size_t>& columns) const override;

 private:
  std::map<std::string, const storage::Relation*> tables_;
  std::map<std::string, std::vector<const storage::HashIndex*>> hash_indexes_;
  std::map<std::string, std::vector<const storage::BTreeIndex*>> btree_indexes_;
};

/// How the executor evaluates scalar expressions — the E4 ablation switch.
enum class ExprMode : uint8_t {
  kInterpreted,  // Tree-walking EvalExpr (the 1988 baseline to beat).
  kCompiled,     // CompiledExpr bytecode (the OFM's generative approach).
};

/// How operators move tuples — the row/vectorized ablation switch
/// (DESIGN.md §12). Both modes produce byte-identical answers; the
/// differential harness in tests/vectorized_diff_test.cc enforces it.
enum class ExecMode : uint8_t {
  kRow,         // Tuple-at-a-time over boxed Values (the baseline).
  kVectorized,  // ColumnBatch-at-a-time kernels.
};

const char* ExecModeName(ExecMode mode);

struct ExecOptions {
  ExprMode expr_mode = ExprMode::kCompiled;
  /// Vectorized execution needs the compiled expression path; with
  /// expr_mode == kInterpreted the executor silently stays on the row
  /// path (there is no batch form of the tree-walking evaluator).
  ExecMode exec_mode = ExecMode::kRow;
  /// Rows per ColumnBatch on the local vectorized path.
  size_t batch_rows = ColumnBatch::kDefaultBatchRows;
  /// Virtual-time unit costs; see pool::CostModel.
  pool::CostModel costs;
  /// Invoked with virtual nanoseconds as work is performed; may be null.
  /// Inside an OFM process this forwards to Process::ChargeCpu.
  std::function<void(sim::SimTime)> charge;
  /// Memoize results of structurally identical expensive subtrees (joins,
  /// aggregates, sorts, closures) within one Execute call — the execution
  /// side of the optimizer's common-subexpression detection (§2.4).
  bool enable_subtree_cache = false;
  /// Build a per-operator profile tree (rows, bytes, charged ns) during
  /// Execute; read it back via Executor::profile(). EXPLAIN ANALYZE mode.
  bool profile = false;
};

struct ExecStats {
  uint64_t tuples_scanned = 0;
  /// Selections answered through an index instead of a scan.
  uint64_t index_selections = 0;
  uint64_t tuples_output = 0;
  uint64_t expr_evaluations = 0;
  /// ColumnBatches produced by operators (vectorized mode only).
  uint64_t batches = 0;
  /// Subtree-cache hits (common subexpressions evaluated once).
  uint64_t subtree_cache_hits = 0;
  /// Total virtual CPU time charged for the last Execute call tree.
  sim::SimTime charged_ns = 0;
};

/// Materializing executor for (fragment-local) plans of the extended
/// relational algebra. One Executor per plan execution; it charges the
/// virtual cost model as it goes, so the same code path produces both
/// results and simulated response times.
class Executor {
 public:
  explicit Executor(const TableResolver* resolver, ExecOptions options = {});

  /// Runs the plan to completion and returns all result tuples.
  StatusOr<std::vector<Tuple>> Execute(const algebra::Plan& plan);

  const ExecStats& stats() const { return stats_; }

  /// Per-operator profile of the last Execute (set when options.profile).
  const std::optional<obs::OperatorProfile>& profile() const {
    return profile_root_;
  }

 private:
  /// Expression prepared for per-tuple evaluation in the selected mode,
  /// with its precomputed per-evaluation virtual cost.
  class PreparedExpr {
   public:
    static StatusOr<PreparedExpr> Make(const algebra::Expr& expr,
                                       const ExecOptions& options);
    StatusOr<Value> Eval(const Tuple& tuple) const;
    StatusOr<bool> EvalPredicate(const Tuple& tuple) const;
    /// Batch kernels over `rows` rows of column windows (compiled mode).
    StatusOr<ColumnBatch::Column> EvalBatch(std::span<const ColumnView> columns,
                                            size_t rows) const;
    Status EvalPredicateBatch(std::span<const ColumnView> columns, size_t rows,
                              std::vector<uint8_t>* keep) const;
    sim::SimTime cost_ns() const { return cost_ns_; }
    /// Vectorized costs: per-row tight-loop work and the per-batch kernel
    /// dispatch (compiled path only).
    sim::SimTime vrow_cost_ns() const { return vrow_cost_ns_; }
    sim::SimTime vbatch_cost_ns() const { return vbatch_cost_ns_; }

   private:
    const algebra::Expr* interpreted_ = nullptr;  // Borrowed from the plan.
    std::shared_ptr<CompiledExpr> compiled_;
    sim::SimTime cost_ns_ = 0;
    sim::SimTime vrow_cost_ns_ = 0;
    sim::SimTime vbatch_cost_ns_ = 0;
  };

  /// Grouping state of one Aggregate, fed row by row or column-wise.
  class GroupBy;

  void Charge(sim::SimTime ns);

  StatusOr<std::vector<Tuple>> Run(const algebra::Plan& plan);
  /// Run minus the profiling wrapper (subtree-cache lookup + dispatch).
  StatusOr<std::vector<Tuple>> RunCached(const algebra::Plan& plan);
  StatusOr<std::vector<Tuple>> RunUncached(const algebra::Plan& plan);
  StatusOr<std::vector<Tuple>> RunScan(const algebra::ScanPlan& plan);
  StatusOr<std::vector<Tuple>> RunSelect(const algebra::SelectPlan& plan);
  /// Index fast path for Select-over-Scan; returns nullopt when no usable
  /// access path exists (caller falls back to scan + filter).
  StatusOr<std::optional<std::vector<Tuple>>> TryIndexSelect(
      const algebra::SelectPlan& plan);
  StatusOr<std::vector<Tuple>> RunProject(const algebra::ProjectPlan& plan);
  StatusOr<std::vector<Tuple>> RunJoin(const algebra::JoinPlan& plan);
  StatusOr<std::vector<Tuple>> RunUnion(const algebra::Plan& plan);
  StatusOr<std::vector<Tuple>> RunDifference(const algebra::Plan& plan);
  StatusOr<std::vector<Tuple>> RunDistinct(const algebra::Plan& plan);
  StatusOr<std::vector<Tuple>> RunAggregate(const algebra::AggregatePlan& plan);
  StatusOr<std::vector<Tuple>> RunSort(const algebra::SortPlan& plan);
  StatusOr<std::vector<Tuple>> RunLimit(const algebra::LimitPlan& plan);
  StatusOr<std::vector<Tuple>> RunTransitiveClosure(const algebra::Plan& plan);

  /// Child input for the row-logic operators: Run(child) on the row path,
  /// flattened RunBatches(child) in vectorized mode (so e.g. a Sort over a
  /// Scan still scans in batches).
  StatusOr<std::vector<Tuple>> RunChildRows(const algebra::Plan& child);

  /// Input of RunSelect, RunProject and RunAggregate. A row-mode Scan
  /// child is read in place (`stored`): compiled Select and Aggregate read
  /// its column slices (Relation::ScanSlices), and ForEach hands out the
  /// fragment's reused row view as `const Tuple&` (valid only during the
  /// call), so only the rows a parent emits get copied. Any other child is
  /// materialized through RunChildRows and ForEach hands out its rows as
  /// `Tuple&&`.
  struct ChildRows {
    const storage::Relation* stored = nullptr;  // In-place fragment.
    std::vector<Tuple> owned;                    // Otherwise.

    size_t size() const {
      return stored != nullptr ? stored->num_tuples() : owned.size();
    }
    /// Calls `fn(row)` per row in order; `fn` returns a Status and the
    /// first error stops the visit and is returned.
    template <typename Fn>
    Status ForEach(Fn&& fn);
  };
  /// Opens `child` for reading. For an in-place scan this settles the
  /// stats, charge and profile node of Run(scan), so the parent sees the
  /// same accounting at the same point as with a copying scan.
  StatusOr<ChildRows> ReadChildRows(const algebra::Plan& child);

  /// RunSelect's filter over a fragment read in place with a compiled
  /// predicate: the batch kernel runs over the stored column slices of
  /// the live rows in RowId order, and only emitted rows become Tuples.
  /// Rows, expr_evaluations and the returned Status equal the row path's.
  Status FilterInPlace(const storage::Relation& rel, const PreparedExpr& pred,
                       std::vector<Tuple>* out);

  /// Hangs a finished profile node under current_profile_ (or makes it
  /// the root when there is none).
  void AttachProfile(obs::OperatorProfile node);

  // Vectorized twin of the Run/RunCached/RunUncached spine; only the
  // batch-kernel operators have dedicated entries, everything else runs
  // the row logic over batched children and re-chunks its output.
  StatusOr<std::vector<ColumnBatch>> RunBatches(const algebra::Plan& plan);
  StatusOr<std::vector<ColumnBatch>> RunBatchesCached(
      const algebra::Plan& plan);
  StatusOr<std::vector<ColumnBatch>> RunBatchesUncached(
      const algebra::Plan& plan);
  StatusOr<std::vector<ColumnBatch>> RunScanBatches(
      const algebra::ScanPlan& plan);
  StatusOr<std::vector<ColumnBatch>> RunSelectBatches(
      const algebra::SelectPlan& plan);
  StatusOr<std::vector<ColumnBatch>> RunProjectBatches(
      const algebra::ProjectPlan& plan);
  StatusOr<std::vector<ColumnBatch>> RunJoinBatches(
      const algebra::JoinPlan& plan);
  StatusOr<std::vector<ColumnBatch>> RunAggregateBatches(
      const algebra::AggregatePlan& plan);

  const TableResolver* resolver_;
  ExecOptions options_;
  /// True when this execution actually runs the batched path (vectorized
  /// mode requested and compiled expressions available).
  bool vectorized_ = false;
  ExecStats stats_;
  std::map<std::string, std::vector<Tuple>> subtree_cache_;
  // Profiling state (options_.profile): node currently being built and the
  // finished root of the last Execute.
  obs::OperatorProfile* current_profile_ = nullptr;
  std::optional<obs::OperatorProfile> profile_root_;
};

}  // namespace prisma::exec

#endif  // PRISMA_EXEC_EXECUTOR_H_
