// RL environment semantics, GAE math, and a learning smoke test: the
// A2C agent must find feasible plans on a small topology and improve
// on random behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "core/neuroplan.hpp"
#include "obs/metrics.hpp"
#include "rl/env.hpp"
#include "rl/gae.hpp"
#include "rl/history.hpp"
#include "rl/rollout.hpp"
#include "rl/trainer.hpp"
#include "rl/update.hpp"
#include "topo/generator.hpp"
#include "util/thread_pool.hpp"

namespace np::rl {
namespace {

topo::Topology small_topology() { return topo::make_preset('A'); }

EnvConfig small_env_config() {
  EnvConfig c;
  c.max_units_per_step = 4;
  c.max_trajectory_steps = 200;
  return c;
}

// ---- GAE ----

TEST(Gae, SingleStepTerminal) {
  GaeConfig config{.gamma = 0.9, .gae_lambda = 0.8};
  GaeResult r = compute_gae({2.0}, {0.5}, {true}, /*last_value=*/99.0, config);
  // Terminal: next value is 0; delta = 2.0 - 0.5.
  EXPECT_NEAR(r.advantages[0], 1.5, 1e-12);
  EXPECT_NEAR(r.rewards_to_go[0], 2.0, 1e-12);
}

TEST(Gae, TwoStepHandComputed) {
  GaeConfig config{.gamma = 0.5, .gae_lambda = 0.5};
  // Steps: r0=1 v0=2, r1=3 v1=4 (terminal).
  GaeResult r = compute_gae({1.0, 3.0}, {2.0, 4.0}, {false, true}, 0.0, config);
  const double a1 = 3.0 - 4.0;                       // delta1, terminal
  const double d0 = 1.0 + 0.5 * 4.0 - 2.0;           // r0 + gamma*v1 - v0
  const double a0 = d0 + 0.5 * 0.5 * a1;
  EXPECT_NEAR(r.advantages[1], a1, 1e-12);
  EXPECT_NEAR(r.advantages[0], a0, 1e-12);
  EXPECT_NEAR(r.rewards_to_go[1], 3.0, 1e-12);
  EXPECT_NEAR(r.rewards_to_go[0], 1.0 + 0.5 * 3.0, 1e-12);
}

TEST(Gae, BootstrapOnCutTrajectory) {
  GaeConfig config{.gamma = 1.0, .gae_lambda = 1.0};
  GaeResult r = compute_gae({1.0}, {0.0}, {false}, /*last_value=*/10.0, config);
  EXPECT_NEAR(r.advantages[0], 11.0, 1e-12);       // r + v_next - v
  EXPECT_NEAR(r.rewards_to_go[0], 11.0, 1e-12);    // bootstrapped return
}

TEST(Gae, TerminalResetsAcrossTrajectoryBoundary) {
  GaeConfig config{.gamma = 1.0, .gae_lambda = 1.0};
  // Two one-step trajectories in one buffer.
  GaeResult r = compute_gae({5.0, 7.0}, {1.0, 2.0}, {true, true}, 0.0, config);
  EXPECT_NEAR(r.advantages[0], 4.0, 1e-12);  // no leakage from step 1
  EXPECT_NEAR(r.rewards_to_go[0], 5.0, 1e-12);
  EXPECT_NEAR(r.advantages[1], 5.0, 1e-12);
  EXPECT_NEAR(r.rewards_to_go[1], 7.0, 1e-12);
}

TEST(Gae, SizeMismatchThrows) {
  EXPECT_THROW(compute_gae({1.0}, {1.0, 2.0}, {true}, 0.0, {}),
               std::invalid_argument);
}

TEST(Gae, NormalizeAdvantages) {
  std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  normalize_advantages(a);
  double mean = 0.0, var = 0.0;
  for (double x : a) mean += x;
  mean /= 4.0;
  for (double x : a) var += (x - mean) * (x - mean);
  EXPECT_NEAR(mean, 0.0, 1e-12);
  EXPECT_NEAR(var / 4.0, 1.0, 1e-12);
  // Degenerate cases are no-ops.
  std::vector<double> single = {5.0};
  normalize_advantages(single);
  EXPECT_DOUBLE_EQ(single[0], 5.0);
  std::vector<double> constant = {2.0, 2.0};
  normalize_advantages(constant);
  EXPECT_DOUBLE_EQ(constant[0], 2.0);
}

// ---- environment ----

TEST(Env, ResetRestoresInitialState) {
  topo::Topology t = small_topology();
  PlanningEnv env(t, small_env_config());
  EXPECT_EQ(env.total_units(), t.initial_units());
  EXPECT_EQ(env.steps_taken(), 0);
  EXPECT_FALSE(env.done());
  (void)env.step(0 * 4 + 1);  // add 2 units to link 0
  EXPECT_EQ(env.steps_taken(), 1);
  env.reset();
  EXPECT_EQ(env.total_units(), t.initial_units());
  EXPECT_EQ(env.steps_taken(), 0);
}

TEST(Env, StepAppliesUnitsAndRewardsCost) {
  topo::Topology t = small_topology();
  PlanningEnv env(t, small_env_config());
  const StepResult r = env.step(env.num_actions() >= 3 ? 2 : 0);  // link 0, 3 units
  const int added = env.total_units()[0] - t.initial_units()[0];
  EXPECT_EQ(added, 3);
  EXPECT_NEAR(r.reward, -(3 * t.link_unit_cost(0)) / env.reward_scale(), 1e-12);
  EXPECT_GE(r.reward, -1.0);
  EXPECT_LT(r.reward, 0.0);
}

TEST(Env, MaskMatchesSpectrumHeadroom) {
  topo::Topology t = small_topology();
  EnvConfig config = small_env_config();
  PlanningEnv env(t, config);
  const auto mask = env.action_mask();
  ASSERT_EQ(mask.size(), static_cast<std::size_t>(env.num_actions()));
  for (int l = 0; l < t.num_links(); ++l) {
    const int headroom = t.spectrum_headroom_units(l, env.total_units());
    for (int k = 1; k <= config.max_units_per_step; ++k) {
      EXPECT_EQ(mask[l * config.max_units_per_step + (k - 1)] != 0, k <= headroom)
          << "link " << l << " k " << k;
    }
  }
}

TEST(Env, MaskedActionThrows) {
  // Saturate link 0, then adding to it must be rejected.
  topo::Topology t = small_topology();
  EnvConfig config = small_env_config();
  config.max_trajectory_steps = 100000;
  PlanningEnv env(t, config);
  std::vector<int> units = env.total_units();
  while (t.spectrum_headroom_units(0, env.total_units()) >= config.max_units_per_step &&
         !env.done()) {
    (void)env.step(0 * config.max_units_per_step + config.max_units_per_step - 1);
  }
  if (!env.done() && t.spectrum_headroom_units(0, env.total_units()) == 0) {
    EXPECT_THROW(env.step(0), std::invalid_argument);
  }
}

TEST(Env, InvalidActionsThrow) {
  topo::Topology t = small_topology();
  PlanningEnv env(t, small_env_config());
  EXPECT_THROW(env.step(-1), std::invalid_argument);
  EXPECT_THROW(env.step(env.num_actions()), std::invalid_argument);
}

TEST(Env, TimeoutTruncatesWithPenalty) {
  topo::Topology t = small_topology();
  EnvConfig config = small_env_config();
  config.max_trajectory_steps = 1;
  PlanningEnv env(t, config);
  const StepResult r = env.step(0);
  if (!r.feasible) {
    EXPECT_TRUE(r.done);
    EXPECT_TRUE(r.truncated);
    EXPECT_LE(r.reward, -1.0);  // step cost plus -1 penalty
    EXPECT_THROW(env.step(0), std::logic_error);
  }
}

TEST(Env, SaturatingEverythingReachesFeasibility) {
  topo::Topology t = small_topology();
  EnvConfig config = small_env_config();
  config.max_trajectory_steps = 100000;
  PlanningEnv env(t, config);
  bool feasible = false;
  // Round-robin adding to every link must eventually satisfy the demand
  // (the generator guarantees plannability).
  for (int round = 0; round < 100000 && !feasible && !env.done(); ++round) {
    const auto mask = env.action_mask();
    bool acted = false;
    for (int l = 0; l < t.num_links() && !feasible; ++l) {
      const int a = l * config.max_units_per_step;  // +1 unit
      if (!mask[a]) continue;
      const StepResult r = env.step(a);
      acted = true;
      feasible = r.feasible;
      if (r.done) break;
    }
    if (!acted) break;
  }
  EXPECT_TRUE(feasible);
  EXPECT_GT(env.added_cost(), 0.0);
}

TEST(Env, FeaturesTrackCapacity) {
  topo::Topology t = small_topology();
  PlanningEnv env(t, small_env_config());
  const la::Matrix before = env.features();
  (void)env.step(3);  // link 0, 4 units
  const la::Matrix after = env.features();
  EXPECT_GT(la::max_abs_diff(before, after), 0.0);
}

TEST(Env, AddedCostMatchesTopologyPlanCost) {
  topo::Topology t = small_topology();
  PlanningEnv env(t, small_env_config());
  (void)env.step(1);  // link 0, 2 units
  if (!env.done()) (void)env.step(1 * 4 + 0);  // link 1, 1 unit
  EXPECT_NEAR(env.added_cost(), t.plan_cost(env.added_units()), 1e-9);
}

// ---- trainer smoke tests ----

TrainConfig smoke_config() {
  TrainConfig c;
  c.env = small_env_config();
  c.network.gcn_layers = 2;
  c.network.gcn_hidden = 16;
  c.network.mlp_hidden = {32, 32};
  c.epochs = 6;
  c.steps_per_epoch = 192;
  c.chunk_steps = 48;
  c.seed = 3;
  return c;
}

TEST(Trainer, FindsFeasiblePlansAndImproves) {
  topo::Topology t = small_topology();
  A2cTrainer trainer(t, smoke_config());
  const std::vector<EpochStats> history = trainer.train();
  ASSERT_EQ(history.size(), 6u);
  EXPECT_TRUE(trainer.has_feasible_plan());
  // The best plan must actually be feasible per an independent evaluator.
  plan::PlanEvaluator eval(t, plan::EvaluatorMode::kSourceAggregation);
  std::vector<int> total = t.initial_units();
  const std::vector<int>& added = trainer.best_added_units();
  ASSERT_EQ(added.size(), static_cast<std::size_t>(t.num_links()));
  for (int l = 0; l < t.num_links(); ++l) total[l] += added[l];
  EXPECT_TRUE(eval.check(total).feasible);
  EXPECT_NEAR(trainer.best_cost(), t.plan_cost(added), 1e-9);
  // Training statistics are populated.
  for (const EpochStats& s : history) {
    EXPECT_GT(s.steps, 0);
    EXPECT_GT(s.trajectories, 0);
    EXPECT_GE(s.seconds, 0.0);
  }
}

TEST(Trainer, DeterministicForSeed) {
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.epochs = 2;
  A2cTrainer a(t, c), b(t, c);
  const auto ha = a.train();
  const auto hb = b.train();
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_DOUBLE_EQ(ha[i].mean_return, hb[i].mean_return);
    EXPECT_EQ(ha[i].trajectories, hb[i].trajectories);
  }
  EXPECT_DOUBLE_EQ(a.best_cost(), b.best_cost());
}

TEST(Trainer, PatienceStopsEarly) {
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.epochs = 50;
  c.patience = 2;
  A2cTrainer trainer(t, c);
  const auto history = trainer.train();
  EXPECT_LT(history.size(), 50u);  // must stop well before 50 epochs
}

TEST(Trainer, RejectsBadConfig) {
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.steps_per_epoch = 0;
  EXPECT_THROW(A2cTrainer(t, c), std::invalid_argument);
}

TEST(Trainer, PpoClippedUpdatesRun) {
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.epochs = 3;
  c.ppo_clip = 0.2;
  c.update_iterations = 4;
  A2cTrainer trainer(t, c);
  const auto history = trainer.train();
  EXPECT_EQ(history.size(), 3u);
  EXPECT_TRUE(trainer.has_feasible_plan());
}

TEST(Trainer, GreedyRolloutProducesVerifiedPlan) {
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.epochs = 3;
  A2cTrainer trainer(t, c);
  trainer.train();
  const bool feasible = trainer.greedy_rollout();
  if (feasible) {
    plan::PlanEvaluator eval(t, plan::EvaluatorMode::kSourceAggregation);
    std::vector<int> total = t.initial_units();
    for (int l = 0; l < t.num_links(); ++l) total[l] += trainer.best_added_units()[l];
    EXPECT_TRUE(eval.check(total).feasible);
  }
}

TEST(History, CsvExportRoundTrips) {
  std::vector<EpochStats> history(2);
  history[0].epoch = 1;
  history[0].steps = 100;
  history[0].trajectories = 4;
  history[0].feasible_trajectories = 3;
  history[0].mean_return = -2.5;
  history[0].best_cost_so_far = 1e300;  // none yet
  history[0].seconds = 2.5;
  history[0].rollout_seconds = 1.25;
  history[1].epoch = 2;
  history[1].steps = 100;
  history[1].trajectories = 5;
  history[1].feasible_trajectories = 5;
  history[1].mean_return = -1.25;
  history[1].best_cost_so_far = 123.5;
  history[1].seconds = 4.5;
  history[1].rollout_seconds = 3.5;
  std::ostringstream os;
  write_history_csv(history, os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("epoch,steps,trajectories"), std::string::npos);
  EXPECT_NE(csv.find("best_cost,seconds,rollout_seconds"), std::string::npos);
  EXPECT_NE(csv.find("1,100,4,3,-2.5,,2.5,1.25\n"), std::string::npos);  // empty best
  EXPECT_NE(csv.find("2,100,5,5,-1.25,123.5,4.5,3.5"), std::string::npos);
  EXPECT_THROW(write_history_csv_file(history, "/nonexistent/dir/x.csv"),
               std::runtime_error);
}

TEST(Trainer, EvaluatePolicyReportsStatistics) {
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.epochs = 2;
  A2cTrainer trainer(t, c);
  trainer.train();
  const A2cTrainer::PolicyEvaluation eval = trainer.evaluate_policy(4);
  EXPECT_EQ(eval.rollouts, 4);
  EXPECT_GE(eval.feasible, 0);
  EXPECT_LE(eval.feasible, 4);
  if (eval.feasible > 0) {
    EXPECT_GT(eval.best_cost, 0.0);
    EXPECT_GE(eval.mean_cost, eval.best_cost);
    // Best plan tracker can only have improved.
    EXPECT_LE(trainer.best_cost(), eval.best_cost + 1e-9);
  }
  EXPECT_THROW(trainer.evaluate_policy(0), std::invalid_argument);
}

void expect_epochs_identical(const std::vector<EpochStats>& a,
                             const std::vector<EpochStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].epoch, b[i].epoch);
    EXPECT_EQ(a[i].steps, b[i].steps);
    EXPECT_EQ(a[i].trajectories, b[i].trajectories);
    EXPECT_EQ(a[i].feasible_trajectories, b[i].feasible_trajectories);
    EXPECT_DOUBLE_EQ(a[i].mean_return, b[i].mean_return);
    EXPECT_DOUBLE_EQ(a[i].best_cost_in_epoch, b[i].best_cost_in_epoch);
    EXPECT_DOUBLE_EQ(a[i].best_cost_so_far, b[i].best_cost_so_far);
  }
}

TEST(Trainer, MultiWorkerRolloutIsReproducible) {
  // K = 4 lockstep rollouts must be a pure function of (seed, K):
  // identical stats across two runs regardless of thread scheduling.
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.epochs = 2;
  c.rollout_workers = 4;
  A2cTrainer a(t, c), b(t, c);
  const auto ha = a.train();
  const auto hb = b.train();
  expect_epochs_identical(ha, hb);
  EXPECT_DOUBLE_EQ(a.best_cost(), b.best_cost());
  // Network weights must agree bitwise as well.
  auto pa = a.network().all_parameters();
  auto pb = b.network().all_parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_DOUBLE_EQ(la::max_abs_diff(pa[i]->value, pb[i]->value), 0.0);
  }
}

TEST(Trainer, MultiWorkerFillsStepBudget) {
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.epochs = 1;
  c.rollout_workers = 3;
  A2cTrainer trainer(t, c);
  const EpochStats s = trainer.run_epoch();
  EXPECT_EQ(s.steps, c.steps_per_epoch);
  EXPECT_GT(s.trajectories, 0);
  EXPECT_GE(s.rollout_seconds, 0.0);
  EXPECT_LE(s.rollout_seconds, s.seconds);
}

TEST(Trainer, RejectsBadRolloutWorkers) {
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.rollout_workers = 0;
  EXPECT_THROW(A2cTrainer(t, c), std::invalid_argument);
}

TEST(Rollout, WorkerZeroIsTheCallersStream) {
  // Worker 0 steps the caller's env with the caller's RNG at every K:
  // its share of a K = 2 collect is the K = 1 collect of as many steps,
  // and both leave the caller's RNG in the same state.
  const topo::Topology t = small_topology();
  A2cTrainer trainer(t, smoke_config());
  nn::ActorCritic& network = trainer.network();
  constexpr int kSteps = 40;
  PlanningEnv env_one(t, small_env_config()), env_two(t, small_env_config());
  Rng rng_one(17), rng_two(17);
  RolloutWorkers one(env_one, rng_one, network, /*workers=*/1, /*seed=*/5);
  RolloutWorkers two(env_two, rng_two, network, /*workers=*/2, /*seed=*/5);
  const std::vector<WorkerRollout> a = one.collect(kSteps);
  const std::vector<WorkerRollout> b = two.collect(2 * kSteps);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 2u);
  const WorkerRollout& want = a[0];
  const WorkerRollout& got = b[0];
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < want.records.size(); ++i) {
    const StepRecord& x = got.records[i];
    const StepRecord& y = want.records[i];
    EXPECT_EQ(x.features, y.features) << "step " << i;
    EXPECT_EQ(x.mask, y.mask) << "step " << i;
    EXPECT_EQ(x.action, y.action) << "step " << i;
    EXPECT_EQ(x.log_prob, y.log_prob) << "step " << i;
    EXPECT_EQ(x.reward, y.reward) << "step " << i;
    EXPECT_EQ(x.value, y.value) << "step " << i;
    EXPECT_EQ(x.terminal, y.terminal) << "step " << i;
  }
  EXPECT_EQ(got.last_value, want.last_value);
  EXPECT_EQ(got.trajectories, want.trajectories);
  EXPECT_EQ(got.feasible_trajectories, want.feasible_trajectories);
  EXPECT_EQ(got.return_sum, want.return_sum);
  EXPECT_EQ(got.best_cost, want.best_cost);
  EXPECT_EQ(got.best_added, want.best_added);
  EXPECT_EQ(rng_two.state(), rng_one.state());
}

TEST(Trainer, WorksWithoutGnn) {
  // Figure 10's 0-layer ablation must run end to end.
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.network.gcn_layers = 0;
  c.epochs = 2;
  A2cTrainer trainer(t, c);
  EXPECT_NO_THROW(trainer.train());
}

// ---- update phase: per-sample tapes vs the chunk-tape oracle ----

/// The update phase as one tape per chunk computed it: every sample's
/// forward on the chunk's tape, the summed loss, one backward. Kept
/// here as the oracle the per-sample tapes must reproduce bit for bit.
void oracle_policy_gradients(nn::ActorCritic& network,
                             const std::shared_ptr<const la::CsrMatrix>& adjacency,
                             const std::vector<StepRecord>& buffer,
                             const std::vector<double>& advantages,
                             const TrainConfig& config) {
  const double inv_n = 1.0 / static_cast<double>(buffer.size());
  for (std::size_t begin = 0; begin < buffer.size(); begin += config.chunk_steps) {
    const std::size_t end =
        std::min(buffer.size(), begin + static_cast<std::size_t>(config.chunk_steps));
    ad::Tape tape;
    std::vector<ad::Tensor> step_log_probs;
    for (std::size_t i = begin; i < end; ++i) {
      step_log_probs.push_back(network.policy_log_probs(
          tape, adjacency, buffer[i].features, buffer[i].mask));
    }
    ad::Tensor loss = tape.constant(la::Matrix(1, 1, 0.0));
    for (std::size_t i = begin; i < end; ++i) {
      ad::Tensor log_probs = step_log_probs[i - begin];
      ad::Tensor logp =
          tape.pick(log_probs, 0, static_cast<std::size_t>(buffer[i].action));
      if (config.ppo_clip > 0.0) {
        ad::Tensor ratio = tape.exp(tape.sub(
            logp, tape.constant(la::Matrix(1, 1, buffer[i].log_prob))));
        const double r = tape.value(ratio)(0, 0);
        const double clipped =
            std::clamp(r, 1.0 - config.ppo_clip, 1.0 + config.ppo_clip);
        const double adv = advantages[i];
        if (r * adv <= clipped * adv + 1e-15) {
          loss = tape.add(loss, tape.scale(ratio, -adv * inv_n));
        }
      } else {
        loss = tape.add(loss, tape.scale(logp, -advantages[i] * inv_n));
      }
      if (config.entropy_coefficient > 0.0) {
        ad::Tensor entropy = tape.entropy_from_log_probs(log_probs);
        loss = tape.add(loss,
                        tape.scale(entropy, -config.entropy_coefficient * inv_n));
      }
    }
    tape.backward(loss);
  }
}

void oracle_value_gradients(nn::ActorCritic& network,
                            const std::shared_ptr<const la::CsrMatrix>& adjacency,
                            const std::vector<StepRecord>& buffer,
                            const std::vector<double>& rewards_to_go,
                            const TrainConfig& config) {
  const double inv_n = 1.0 / static_cast<double>(buffer.size());
  for (std::size_t begin = 0; begin < buffer.size(); begin += config.chunk_steps) {
    const std::size_t end =
        std::min(buffer.size(), begin + static_cast<std::size_t>(config.chunk_steps));
    ad::Tape tape;
    std::vector<ad::Tensor> step_values;
    for (std::size_t i = begin; i < end; ++i) {
      step_values.push_back(network.value(tape, adjacency, buffer[i].features));
    }
    ad::Tensor loss = tape.constant(la::Matrix(1, 1, 0.0));
    for (std::size_t i = begin; i < end; ++i) {
      ad::Tensor diff = tape.sub(step_values[i - begin],
                                 tape.constant(la::Matrix(1, 1, rewards_to_go[i])));
      loss = tape.add(loss, tape.scale(tape.square(diff), inv_n));
    }
    tape.backward(loss);
  }
}

/// Every parameter's gradient, in all_parameters() order; zeroes them.
std::vector<la::Matrix> take_grads(nn::ActorCritic& network) {
  std::vector<la::Matrix> grads;
  for (ad::Parameter* p : network.all_parameters()) {
    grads.push_back(p->grad);
    p->zero_grad();
  }
  return grads;
}

void expect_bitwise_equal(const std::vector<la::Matrix>& got,
                          const std::vector<la::Matrix>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].size(), want[k].size()) << what << " parameter " << k;
    EXPECT_EQ(std::memcmp(got[k].data(), want[k].data(), got[k].size() * sizeof(double)), 0)
        << what << " parameter " << k;
  }
}

TEST(Trainer, ParallelUpdateMatchesChunkTapeOracle) {
  const topo::Topology t = small_topology();
  for (nn::GnnType gnn : {nn::GnnType::kGcn, nn::GnnType::kGat}) {
    for (bool ppo : {false, true}) {
      for (bool entropy : {false, true}) {
        TrainConfig c = smoke_config();
        c.network.gnn_type = gnn;
        c.chunk_steps = 7;  // ragged last chunk
        c.ppo_clip = ppo ? 0.2 : 0.0;
        c.entropy_coefficient = entropy ? 0.05 : 0.0;
        A2cTrainer trainer(t, c);
        nn::ActorCritic& network = trainer.network();
        const auto adjacency = trainer.env().adjacency();
        // One fixed epoch buffer, collected with the trainer's network.
        Rng rng(11);
        RolloutWorkers rollout(trainer.env(), rng, network, /*workers=*/1, c.seed);
        std::vector<StepRecord> buffer = std::move(rollout.collect(40)[0].records);
        std::vector<double> rewards, values;
        std::vector<bool> terminal;
        for (std::size_t i = 0; i < buffer.size(); ++i) {
          rewards.push_back(buffer[i].reward);
          values.push_back(buffer[i].value);
          terminal.push_back(buffer[i].terminal);
          // Move the behavior log-probs off the current policy so the
          // PPO ratio takes both branches (every third sample stays on it,
          // so no chunk is clipped throughout).
          buffer[i].log_prob += i % 3 == 0 ? 0.4 : (i % 3 == 1 ? -0.4 : 0.0);
        }
        GaeResult gae = compute_gae(rewards, values, terminal, 0.0, c.gae);
        normalize_advantages(gae.advantages);

        const std::string what = std::string(gnn == nn::GnnType::kGat ? "gat" : "gcn") +
                                 (ppo ? " ppo" : " pg") + (entropy ? " entropy" : "");
        take_grads(network);
        oracle_policy_gradients(network, adjacency, buffer, gae.advantages, c);
        const std::vector<la::Matrix> want_policy = take_grads(network);
        oracle_value_gradients(network, adjacency, buffer, gae.rewards_to_go, c);
        const std::vector<la::Matrix> want_value = take_grads(network);

        util::ThreadPool pool0(0), pool1(1), pool3(3);
        for (util::ThreadPool* pool : {&pool0, &pool1, &pool3}) {
          const std::string label = what + " pool " + std::to_string(pool->workers());
          accumulate_policy_gradients(network, adjacency, buffer, gae.advantages, c, *pool);
          expect_bitwise_equal(take_grads(network), want_policy, label + " policy");
          accumulate_value_gradients(network, adjacency, buffer, gae.rewards_to_go, c,
                                     *pool);
          expect_bitwise_equal(take_grads(network), want_value, label + " value");
        }
      }
    }
  }
}

TEST(Trainer, AllClippedPpoSamplesContributeNoGradient) {
  // A PPO update without the entropy bonus where every sample of a chunk
  // takes the clipped branch has no gradient-carrying term; the chunk
  // must add nothing instead of failing the backward pass.
  const topo::Topology t = topo::make_preset('A');
  TrainConfig c = core::default_train_config(t, 1);
  c.chunk_steps = 1;
  c.update_iterations = 2;
  c.ppo_clip = 1e-9;
  c.entropy_coefficient = 0.0;
  A2cTrainer trainer(t, c);
  EpochStats stats;
  ASSERT_NO_THROW(stats = trainer.run_epoch());
  EXPECT_EQ(stats.steps, c.steps_per_epoch);

  // Directly: a buffer clipped throughout leaves every gradient zero
  // and runs no backward pass.
  nn::ActorCritic& network = trainer.network();
  Rng rng(3);
  RolloutWorkers rollout(trainer.env(), rng, network, /*workers=*/1, c.seed);
  std::vector<StepRecord> buffer = std::move(rollout.collect(16)[0].records);
  for (StepRecord& record : buffer) record.log_prob -= 1.0;  // ratio e > 1 + clip
  const std::vector<double> advantages(buffer.size(), 1.0);
  take_grads(network);
  const long backwards_before = obs::counter("ad.backwards").value();
  util::ThreadPool pool(1);
  accumulate_policy_gradients(network, trainer.env().adjacency(), buffer, advantages, c,
                              pool);
  EXPECT_EQ(obs::counter("ad.backwards").value(), backwards_before);
  for (const la::Matrix& grad : take_grads(network)) {
    for (std::size_t k = 0; k < grad.size(); ++k) EXPECT_EQ(grad.data()[k], 0.0);
  }
}

}  // namespace
}  // namespace np::rl
