// Two-phase bounded-variable revised simplex.
//
// The model  min c^T x,  lo_r <= a_r.x <= hi_r,  lb <= x <= ub  is put in
// the computational form  A z = 0  by introducing one slack per row
// (a_r.x - s_r = 0 with s_r in [lo_r, hi_r]). Cold starts use a slack
// crash: every row whose resting activity fits its slack bounds gets
// the slack basic, so phase 1 minimizes artificials only on the
// genuinely violated rows (equality rows with nonzero rhs) instead of
// all of them; phase 2 fixes artificials to zero and optimizes the
// real objective. Basis linear
// algebra goes through a pluggable engine: the default keeps a sparse
// LU factorization with a product-form eta file (lp/factor.hpp) —
// FTRAN/BTRAN in O(fill), refactorization in O(fill^2)-ish — and the
// legacy dense m x m inverse survives behind
// SimplexOptions::engine = kDenseInverse for differential testing.
// Entering-variable selection is Dantzig pricing (largest reduced-cost
// violation) over a sharded partial-pricing candidate list on large
// models (optimality is only declared after a full failed sweep with
// current duals), with an automatic Bland fallback against cycling;
// the ratio test supports bound flips.
//
// Scale target: the NeuroPlan plan-evaluator feasibility LPs (hundreds
// of rows, a few thousand columns) and the pruned planning ILPs solved
// by np::milp. This plays the role Gurobi plays in the paper.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/model.hpp"
#include "util/deadline.hpp"

namespace np::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kTimeLimit,
};

const char* to_string(SolveStatus status);

/// Simplex status of one variable (structural or slack) in a basis.
enum class VarStatus : std::uint8_t {
  kBasic,
  kAtLower,
  kAtUpper,
  kNonbasicFree,  // free variable held at zero
};

/// Warm-start basis: one status per structural variable followed by one
/// per row slack (size = num_variables + num_rows). The solver verifies
/// it (count of basics, nonsingularity) and silently falls back to a
/// cold start when invalid — warm starts are an optimization, never a
/// correctness requirement.
struct Basis {
  std::vector<VarStatus> statuses;
  bool empty() const { return statuses.empty(); }
};

/// Basis linear-algebra backend.
enum class SimplexEngine {
  /// Sparse LU + product-form eta file (lp/factor.hpp). Default: the
  /// scenario LPs are extremely sparse, so FTRAN/BTRAN cost O(fill)
  /// instead of O(m^2) and refactorization is far below O(m^3).
  kSparseLu,
  /// Dense m x m basis inverse, updated in product form. Retained as
  /// the differential-testing reference for the sparse engine.
  kDenseInverse,
};

const char* to_string(SimplexEngine engine);

struct SimplexOptions {
  double feasibility_tolerance = 1e-7;
  double optimality_tolerance = 1e-7;
  long max_iterations = 200000;
  double time_limit_seconds = kInfinity;
  /// Absolute wall-clock deadline shared across a batch of solves (one
  /// scenario sweep, one branch-and-bound dive, ...). Checked alongside
  /// time_limit_seconds; whichever trips first ends the solve with
  /// SolveStatus::kTimeLimit. Defaults to unlimited, which costs one
  /// branch per iteration.
  util::Deadline deadline{};
  const Basis* warm_start = nullptr;
  /// Refactorize the basis every this many pivots. Product-form
  /// updates stay accurate for hundreds of pivots on well-scaled
  /// models. The sparse engine additionally refactorizes early when its
  /// eta file outgrows the factorization (refactoring is cheap there);
  /// for the dense engine refactorization is O(m^3), so a small
  /// interval dominates solve time on LPs with many rows.
  int refactor_interval = 400;
  SimplexEngine engine = SimplexEngine::kSparseLu;
  /// Sharded partial pricing on models with more than this many columns
  /// (structural + slack + artificial): a bounded candidate list of
  /// violating reduced costs is re-priced each iteration and refilled
  /// round-robin from column shards when it runs thin. Optimality is
  /// only declared on an iteration whose (re-)scan covered every shard
  /// with the current duals and found nothing — the full sweep
  /// fall-through. <= 0 disables partial pricing (every
  /// iteration prices all columns). The default covers the scenario
  /// feasibility LPs, where a full sweep would dominate the
  /// per-iteration cost of the sparse engine.
  int partial_pricing_threshold = 128;
};

/// Which start the solver ended up using (telemetry for tuning).
enum class StartPath {
  kCold,         // two-phase from scratch
  kWarmPrimal,   // warm basis was primal feasible
  kDualRepair,   // warm basis repaired by the dual simplex
  kWarmFailed,   // warm basis rejected or repair gave up -> cold
};

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;   // structural variable values (empty unless optimal)
  Basis basis;             // final basis for warm starts
  long iterations = 0;
  double solve_seconds = 0.0;
  /// Seconds spent inside entering-variable selection (subset of
  /// solve_seconds) — the bench reports it as the pricing-time share.
  double pricing_seconds = 0.0;
  StartPath start_path = StartPath::kCold;
};

/// Solve the model. Integer markers on variables are ignored (this is
/// the LP relaxation); np::milp layers integrality on top.
Solution solve(const Model& model, const SimplexOptions& options = {});

}  // namespace np::lp
