// Differential tests for the simplex backends: the sparse-LU and
// dense-inverse basis engines are interchangeable configurations of
// the same simplex, so on any model both must return identical
// verdicts and (for optimal solves) objectives within 1e-7 — on the
// scenario feasibility LPs the evaluators solve, on warm-started
// trajectories, and on randomized general LPs. Plus pricing
// regressions (degenerate LPs must terminate under partial pricing; a
// pathological refactorization cadence must not change the verdict or
// the objective) and property tests of BasisFactor itself: a factorization (before
// and after product-form eta accumulation, including degenerate
// exchanges) must keep solving the basis it claims to represent.
//
// All randomness is seeded; NEUROPLAN_TEST_SEED offsets every seed so
// a different corpus can be swept reproducibly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "lp/factor.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "plan/scenario_lp.hpp"
#include "topo/generator.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace np::lp {
namespace {

std::uint64_t test_seed(unsigned salt) {
  return static_cast<std::uint64_t>(env_long("NEUROPLAN_TEST_SEED", 0)) +
         salt * 7919u + 131u;
}

constexpr SimplexEngine kEngines[] = {SimplexEngine::kSparseLu,
                                      SimplexEngine::kDenseInverse};

SimplexOptions solver_options(SimplexEngine engine) {
  SimplexOptions options;
  options.engine = engine;
  options.max_iterations = 1000000;
  return options;
}

/// Objective agreement tolerance: absolute for small values, relative
/// for large ones (the ISSUE-level contract is 1e-7).
void expect_objectives_match(double sparse, double dense) {
  EXPECT_NEAR(sparse, dense, 1e-7 * std::max(1.0, std::abs(sparse)));
}

// ---- scenario-LP differential ----

TEST(EngineDifferential, ScenarioLpsAgreeAcrossCapacityPlans) {
  const topo::Topology topology = topo::make_preset('B');
  Rng rng(test_seed(1));
  for (const bool aggregate : {true, false}) {
    for (int scenario = 0; scenario <= topology.num_failures(); scenario += 3) {
      plan::ScenarioLp lp = plan::build_scenario_lp(topology, scenario, aggregate);
      std::vector<int> units = topology.initial_units();
      for (int trial = 0; trial < 4; ++trial) {
        // Random monotone capacity plan, from scarce to plentiful.
        for (int l = 0; l < topology.num_links(); ++l) {
          const int headroom = topology.spectrum_headroom_units(l, units);
          units[l] += static_cast<int>(
              rng.uniform_index(static_cast<std::size_t>(headroom) + 1));
        }
        plan::set_plan_capacities(lp, topology, units);
        // Reference: sparse LU; every other engine must agree with it.
        const Solution reference =
            solve(lp.model, solver_options(SimplexEngine::kSparseLu));
        const double tol = 1e-6 * std::max(1.0, lp.total_demand);
        for (const SimplexEngine engine : kEngines) {
          if (engine == kEngines[0]) continue;
          const Solution got = solve(lp.model, solver_options(engine));
          SCOPED_TRACE(::testing::Message()
                       << (aggregate ? "aggregated" : "per-flow")
                       << " scenario " << scenario << " trial " << trial
                       << " engine " << to_string(engine) << " seed "
                       << test_seed(1));
          ASSERT_EQ(reference.status, SolveStatus::kOptimal);
          ASSERT_EQ(got.status, SolveStatus::kOptimal);
          expect_objectives_match(got.objective, reference.objective);
          // Identical feasibility verdicts under the evaluator's tolerance.
          EXPECT_EQ(got.objective <= tol, reference.objective <= tol);
        }
      }
    }
  }
}

TEST(EngineDifferential, WarmTrajectoriesAgree) {
  // Replay one env-like trajectory (one link upgraded per step, every
  // scenario re-checked warm) once per engine in lockstep; every
  // engine's warm path must produce the same verdicts and objectives at
  // every step.
  const topo::Topology topology = topo::make_preset('B');
  const int scenarios = topology.num_failures() + 1;
  struct Combo {
    SimplexEngine engine;
    std::vector<plan::ScenarioLp> lps;
  };
  std::vector<Combo> combos;
  for (const SimplexEngine engine : kEngines) {
    Combo combo{engine, {}};
    for (int s = 0; s < scenarios; ++s) {
      combo.lps.push_back(plan::build_scenario_lp(topology, s, true));
    }
    combos.push_back(std::move(combo));
  }
  Rng rng(test_seed(2));
  std::vector<int> units = topology.initial_units();
  for (int step = 0; step < 25; ++step) {
    const int l = static_cast<int>(rng.uniform_index(topology.num_links()));
    if (topology.spectrum_headroom_units(l, units) > 0) units[l] += 1;
    for (int s = 0; s < scenarios; ++s) {
      plan::ScenarioCheck reference{};
      for (std::size_t c = 0; c < combos.size(); ++c) {
        Combo& combo = combos[c];
        plan::set_plan_capacities(combo.lps[s], topology, units);
        const plan::ScenarioCheck got = plan::solve_scenario(
            combo.lps[s], solver_options(combo.engine), true);
        if (c == 0) {
          reference = got;
          continue;
        }
        SCOPED_TRACE(::testing::Message()
                     << "step " << step << " scenario " << s << " engine "
                     << to_string(combo.engine) << " seed " << test_seed(2));
        EXPECT_EQ(got.feasible, reference.feasible);
        expect_objectives_match(got.unserved_gbps, reference.unserved_gbps);
      }
    }
  }
}

TEST(EngineDifferential, RandomGeneralLpsAgree) {
  // Random small LPs with every bound flavor (finite/infinite/fixed,
  // free variables, equality and range rows). Both engines must agree
  // on the verdict, and on the objective when optimal.
  Rng rng(test_seed(3));
  int optimal = 0;
  for (int trial = 0; trial < 120; ++trial) {
    Model m;
    const int n = 2 + static_cast<int>(rng.uniform_index(6));
    const int rows = 1 + static_cast<int>(rng.uniform_index(6));
    for (int j = 0; j < n; ++j) {
      const double lo = rng.uniform_index(4) == 0
                            ? -kInfinity
                            : -2.0 + 4.0 * rng.uniform();
      double hi = rng.uniform_index(4) == 0 ? kInfinity
                                            : 1.0 + 4.0 * rng.uniform();
      if (std::isfinite(lo) && hi < lo) hi = lo;  // occasional fixed variable
      m.add_variable(lo, hi, -2.0 + 4.0 * rng.uniform());
    }
    for (int r = 0; r < rows; ++r) {
      std::vector<Coefficient> coeffs;
      for (int j = 0; j < n; ++j) {
        if (rng.uniform_index(3) != 0) {
          coeffs.push_back({j, -3.0 + 6.0 * rng.uniform()});
        }
      }
      const double mid = -2.0 + 4.0 * rng.uniform();
      const double half = 3.0 * rng.uniform();
      switch (rng.uniform_index(4)) {
        case 0: m.add_row(mid, mid, std::move(coeffs)); break;        // equality
        case 1: m.add_row(mid, kInfinity, std::move(coeffs)); break;  // >=
        case 2: m.add_row(-kInfinity, mid, std::move(coeffs)); break; // <=
        default: m.add_row(mid - half, mid + half, std::move(coeffs)); break;
      }
    }
    const Solution reference = solve(m, solver_options(SimplexEngine::kSparseLu));
    bool all_optimal = reference.status == SolveStatus::kOptimal;
    for (const SimplexEngine engine : kEngines) {
      if (engine == kEngines[0]) continue;
      const Solution got = solve(m, solver_options(engine));
      SCOPED_TRACE(::testing::Message()
                   << "trial " << trial << " engine " << to_string(engine)
                   << " seed " << test_seed(3));
      EXPECT_EQ(got.status, reference.status);
      all_optimal = all_optimal && got.status == SolveStatus::kOptimal;
      if (got.status == SolveStatus::kOptimal &&
          reference.status == SolveStatus::kOptimal) {
        expect_objectives_match(got.objective, reference.objective);
        EXPECT_LE(m.max_violation(got.x), 1e-6);
      }
    }
    if (all_optimal) ++optimal;
  }
  EXPECT_GE(optimal, 30);  // the sweep must actually exercise optimal solves
}

// ---- pricing regressions ----

/// A degenerate LP: rows x_a + x_b <= 0 with x >= 0 pin every variable
/// to zero while profitable-looking reduced costs (cost -1) keep
/// tempting entering candidates whose ratio test allows no movement.
/// Regression for the partial-pricing fall-through: the solver must
/// still terminate at the (all-zero) optimum, and must do so with the
/// candidate list forced on (threshold below the column count).
TEST(Pricing, DegenerateLpTerminatesUnderPartialPricing) {
  for (const SimplexEngine engine : kEngines) {
    Model m;
    const int n = 40;
    for (int j = 0; j < n; ++j) m.add_variable(0.0, kInfinity, -1.0);
    for (int j = 0; j + 1 < n; j += 2) {
      m.add_row(-kInfinity, 0.0, {{j, 1.0}, {j + 1, 1.0}});
    }
    SimplexOptions options = solver_options(engine);
    options.partial_pricing_threshold = 8;  // force the candidate list
    options.max_iterations = 10000;         // termination, not a time out
    const Solution solution = solve(m, options);
    SCOPED_TRACE(::testing::Message() << "engine " << to_string(engine));
    ASSERT_EQ(solution.status, SolveStatus::kOptimal);
    EXPECT_NEAR(solution.objective, 0.0, 1e-9);
  }
}

/// A pathological refactorization cadence (every 8 pivots) must not
/// change the verdict or the objective on the topology-B per-flow
/// scenario LP, under either engine: refactorization resets the
/// product-form update state mid-solve, and pricing must carry on from
/// the refreshed basis as if nothing happened.
TEST(Pricing, RefactorCadenceKeepsVerdictAndObjective) {
  const topo::Topology topology = topo::make_preset('B');
  plan::ScenarioLp lp = plan::build_scenario_lp(topology, 0, false);
  plan::set_plan_capacities(lp, topology, topology.initial_units());
  const Solution reference = solve(lp.model, solver_options(SimplexEngine::kSparseLu));
  ASSERT_EQ(reference.status, SolveStatus::kOptimal);
  for (const SimplexEngine engine : kEngines) {
    SimplexOptions options = solver_options(engine);
    options.refactor_interval = 8;
    const Solution got = solve(lp.model, options);
    SCOPED_TRACE(::testing::Message() << "engine " << to_string(engine));
    ASSERT_EQ(got.status, reference.status);
    expect_objectives_match(got.objective, reference.objective);
  }
}

// ---- BasisFactor properties ----

/// Dense row-space product B·w over the basis columns (w by position).
std::vector<double> multiply_basis(const std::vector<SparseColumn>& columns,
                                   const std::vector<double>& w) {
  std::vector<double> out(columns.size(), 0.0);
  for (std::size_t p = 0; p < columns.size(); ++p) {
    if (w[p] == 0.0) continue;
    for (const auto& [r, v] : columns[p]) out[r] += v * w[p];
  }
  return out;
}

std::vector<ColumnView> views_of(const std::vector<SparseColumn>& columns) {
  return {columns.begin(), columns.end()};
}

/// Random sparse diagonally-dominant basis: guaranteed nonsingular, a
/// few off-diagonal entries per column like the scenario-LP bases.
std::vector<SparseColumn> random_basis(int m, Rng& rng) {
  std::vector<SparseColumn> columns(m);
  for (int p = 0; p < m; ++p) {
    columns[p].push_back({p, 3.0 + rng.uniform()});
    const int extras = static_cast<int>(rng.uniform_index(3));
    for (int e = 0; e < extras; ++e) {
      const int r = static_cast<int>(rng.uniform_index(m));
      if (r != p) columns[p].push_back({r, -1.0 + 2.0 * rng.uniform()});
    }
  }
  return columns;
}

/// w = B^{-1} a must reproduce a when multiplied back by the basis.
void expect_solves_basis(const BasisFactor& factor,
                         const std::vector<SparseColumn>& columns,
                         const SparseColumn& a, const char* what) {
  std::vector<double> w;
  factor.ftran_column(a, w);
  const std::vector<double> reconstructed = multiply_basis(columns, w);
  std::vector<double> dense_a(columns.size(), 0.0);
  double scale = 1.0;
  for (const auto& [r, v] : a) {
    dense_a[r] += v;
    scale = std::max(scale, std::abs(v));
  }
  for (std::size_t r = 0; r < columns.size(); ++r) {
    ASSERT_NEAR(reconstructed[r], dense_a[r], 1e-6 * scale) << what << " row " << r;
  }
}

SparseColumn random_rhs(int m, Rng& rng) {
  SparseColumn a;
  const int nnz = 1 + static_cast<int>(rng.uniform_index(3));
  for (int e = 0; e < nnz; ++e) {
    a.push_back({static_cast<int>(rng.uniform_index(m)),
                 -2.0 + 4.0 * rng.uniform()});
  }
  return a;
}

TEST(BasisFactorProperty, FactorizationSolvesItsBasis) {
  for (const int m : {1, 4, 17, 60}) {
    Rng rng(test_seed(4) + m);
    const std::vector<SparseColumn> columns = random_basis(m, rng);
    BasisFactor factor;
    ASSERT_TRUE(factor.factorize(m, views_of(columns)));
    EXPECT_EQ(factor.dim(), m);
    EXPECT_EQ(factor.eta_count(), 0);
    for (int trial = 0; trial < 10; ++trial) {
      expect_solves_basis(factor, columns, random_rhs(m, rng), "fresh factor");
    }
    // FTRAN/BTRAN adjoint consistency: <y, B^{-1}x> == <B^{-T}y, x>.
    std::vector<double> x(m), y(m);
    for (int i = 0; i < m; ++i) {
      x[i] = -1.0 + 2.0 * rng.uniform();
      y[i] = -1.0 + 2.0 * rng.uniform();
    }
    std::vector<double> binv_x = x, btrans_y = y;
    factor.ftran(binv_x);
    factor.btran(btrans_y);
    double lhs = 0.0, rhs = 0.0;
    for (int i = 0; i < m; ++i) {
      lhs += y[i] * binv_x[i];
      rhs += btrans_y[i] * x[i];
    }
    EXPECT_NEAR(lhs, rhs, 1e-8 * std::max(1.0, std::abs(lhs)));
  }
}

TEST(BasisFactorProperty, SingularBasisRejected) {
  // Two identical columns: structurally nonsingular by counts, but
  // numerically rank deficient.
  std::vector<SparseColumn> columns(3);
  columns[0] = {{0, 1.0}, {1, 2.0}};
  columns[1] = {{0, 1.0}, {1, 2.0}};
  columns[2] = {{2, 1.0}};
  BasisFactor factor;
  EXPECT_FALSE(factor.factorize(3, views_of(columns)));
}

TEST(BasisFactorProperty, EtaFileTracksBasisExchanges) {
  const int m = 40;
  Rng rng(test_seed(5));
  std::vector<SparseColumn> columns = random_basis(m, rng);
  BasisFactor factor;
  ASSERT_TRUE(factor.factorize(m, views_of(columns)));

  bool saw_refactor_preference = false;
  int exchanges = 0;
  for (int update = 0; update < 400; ++update) {
    SparseColumn entering;
    if (update % 3 == 0) {
      // Degenerate exchange: the entering column is a scaled copy of a
      // basis column, so the eta is (near-)trivial — the historical
      // breeding ground for drift and bookkeeping bugs.
      const int p = static_cast<int>(rng.uniform_index(m));
      entering = columns[p];
      for (auto& [r, v] : entering) v *= 2.0;
    } else {
      entering = random_rhs(m, rng);
      entering.push_back({static_cast<int>(rng.uniform_index(m)),
                          3.0 + rng.uniform()});
    }
    std::vector<double> w;
    factor.ftran_column(entering, w);
    int p = -1;
    for (int i = 0; i < m; ++i) {
      if (std::abs(w[i]) > 1e-4 && (p < 0 || std::abs(w[i]) > std::abs(w[p]))) p = i;
    }
    if (p < 0) continue;  // numerically unusable exchange, as in the simplex
    factor.append_eta(p, w);
    columns[p] = entering;
    ++exchanges;
    if (factor.prefers_refactor()) saw_refactor_preference = true;
    if (exchanges % 8 == 0) {
      expect_solves_basis(factor, columns, random_rhs(m, rng), "eta file");
    }
  }
  ASSERT_GT(exchanges, 150);
  // Long eta files must eventually ask for refactorization...
  EXPECT_TRUE(saw_refactor_preference);
  EXPECT_GT(factor.eta_count(), 0);
  // ...and refactorizing the exchanged basis resets the eta file while
  // still solving the same (updated) basis.
  ASSERT_TRUE(factor.factorize(m, views_of(columns)));
  EXPECT_EQ(factor.eta_count(), 0);
  for (int trial = 0; trial < 10; ++trial) {
    expect_solves_basis(factor, columns, random_rhs(m, rng), "refactorized");
  }
}

TEST(BasisFactorProperty, StatsReflectFactorizationAndEtas) {
  const int m = 10;
  Rng rng(test_seed(6));
  std::vector<SparseColumn> columns = random_basis(m, rng);
  BasisFactor factor;
  ASSERT_TRUE(factor.factorize(m, views_of(columns)));
  const long factorizations = factor.stats().factorizations;
  EXPECT_GE(factor.stats().lu_entries, m);  // at least the diagonal
  EXPECT_EQ(factor.stats().eta_entries, 0);
  std::vector<double> w;
  factor.ftran_column(columns[0], w);  // w = e_0
  factor.append_eta(0, w);
  EXPECT_EQ(factor.eta_count(), 1);
  EXPECT_GE(factor.stats().eta_entries, 1);
  ASSERT_TRUE(factor.factorize(m, views_of(columns)));
  EXPECT_EQ(factor.stats().factorizations, factorizations + 1);
  EXPECT_EQ(factor.stats().eta_entries, 0);
}

}  // namespace
}  // namespace np::lp
