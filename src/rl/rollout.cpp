#include "rl/rollout.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "util/fault.hpp"

namespace np::rl {

namespace {

/// Episode-level reward/length stats, observed once per finished
/// trajectory. Returns are sums of (negative) cost-shaped rewards, so
/// the return buckets are symmetric around zero; lengths are positive.
void record_episode(int length, double episode_return) {
  static obs::Histogram& lengths = obs::histogram(
      "rl.episode_length", obs::exponential_buckets(1.0, 2.0, 12));
  static obs::Histogram& returns = obs::histogram(
      "rl.episode_return",
      {-1e4, -1e3, -100.0, -10.0, -1.0, 0.0, 1.0, 10.0, 100.0, 1e3, 1e4});
  lengths.observe(static_cast<double>(length));
  returns.observe(episode_return);
}

/// Pool size for K workers: the calling thread is the K-th participant.
int pool_workers(int workers) {
  if (workers < 1) {
    throw std::invalid_argument("RolloutWorkers: workers must be >= 1");
  }
  return std::min(workers, util::ThreadPool::hardware_threads()) - 1;
}

/// Rollout volume counters, bumped once per collect() call.
void record_rollout_totals(const std::vector<WorkerRollout>& rollouts) {
  long steps = 0, trajectories = 0, feasible = 0;
  for (const WorkerRollout& r : rollouts) {
    steps += static_cast<long>(r.records.size());
    trajectories += r.trajectories;
    feasible += r.feasible_trajectories;
  }
  static obs::Counter& env_steps = obs::counter("rl.env_steps");
  static obs::Counter& trajectories_counter = obs::counter("rl.trajectories");
  static obs::Counter& feasible_counter =
      obs::counter("rl.feasible_trajectories");
  env_steps.add(steps);
  trajectories_counter.add(trajectories);
  feasible_counter.add(feasible);
}

}  // namespace

int sample_from_log_probs(const la::Matrix& log_probs,
                          const std::vector<std::uint8_t>& mask, Rng& rng) {
  return sample_from_log_probs(log_probs.data(), mask, rng);
}

int sample_from_log_probs(const double* log_probs,
                          const std::vector<std::uint8_t>& mask, Rng& rng) {
  // Categorical sample over valid entries; probabilities sum to 1.
  double r = rng.uniform();
  int last_valid = -1;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (!mask[i]) continue;
    last_valid = static_cast<int>(i);
    r -= std::exp(log_probs[i]);
    if (r < 0.0) return static_cast<int>(i);
  }
  if (last_valid < 0) throw std::logic_error("sample_from_log_probs: dead mask");
  return last_valid;  // numeric slack
}

RolloutWorkers::RolloutWorkers(PlanningEnv& env, Rng& rng, nn::ActorCritic& network,
                               int workers, unsigned seed)
    : engine_(network), pool_(pool_workers(workers)) {
  envs_.push_back(&env);
  rngs_.push_back(&rng);
  // Reserved up front: envs_/rngs_ point into these vectors.
  owned_envs_.reserve(workers - 1);
  owned_rngs_.reserve(workers - 1);
  Rng base(seed);
  for (int w = 1; w < workers; ++w) {
    owned_envs_.push_back(std::make_unique<PlanningEnv>(env.topology(), env.env_config()));
    owned_rngs_.push_back(base.split());
    envs_.push_back(owned_envs_.back().get());
    rngs_.push_back(&owned_rngs_.back());
  }
  feature_buffers_.resize(workers);
  mask_buffers_.resize(workers);
}

std::vector<std::array<std::uint64_t, 4>> RolloutWorkers::rng_states() const {
  std::vector<std::array<std::uint64_t, 4>> states;
  states.reserve(owned_rngs_.size());
  for (const Rng& rng : owned_rngs_) states.push_back(rng.state());
  return states;
}

void RolloutWorkers::set_rng_states(
    const std::vector<std::array<std::uint64_t, 4>>& states) {
  if (states.size() != owned_rngs_.size()) {
    // The config fingerprint already pins K, so a count that differs
    // comes from a checkpoint that saved a stream for worker 0 too
    // (written before worker 0 drew from the trainer's own RNG).
    throw std::runtime_error(
        "RolloutWorkers::set_rng_states: checkpoint holds " +
        std::to_string(states.size()) + " worker RNG streams, but a run with " +
        std::to_string(workers()) + " rollout workers keeps " +
        std::to_string(owned_rngs_.size()) +
        " (worker 0 draws from the trainer's RNG) — the checkpoint was written "
        "with a different stream layout and cannot resume bit-for-bit");
  }
  for (std::size_t w = 0; w < states.size(); ++w) owned_rngs_[w].set_state(states[w]);
}

long RolloutWorkers::total_lp_iterations() const {
  long total = 0;
  for (const PlanningEnv* env : envs_) total += env->evaluator_lp_iterations();
  return total;
}

double RolloutWorkers::total_lp_seconds() const {
  double total = 0.0;
  for (const PlanningEnv* env : envs_) total += env->evaluator_lp_seconds();
  return total;
}

nn::InferenceEngine& RolloutWorkers::refreshed_engine() {
  engine_.refresh();
  return engine_;
}

std::vector<WorkerRollout> RolloutWorkers::collect(int total_steps) {
  if (total_steps < 1) {
    throw std::invalid_argument("RolloutWorkers::collect: total_steps < 1");
  }
  NP_SPAN("rollout.collect");
  // The optimizer stepped since the last collect; re-snapshot.
  engine_.refresh();
  const int k = workers();
  std::vector<int> quota(k, total_steps / k);
  for (int w = 0; w < total_steps % k; ++w) ++quota[w];

  std::vector<WorkerRollout> rollouts(k);
  std::vector<double> trajectory_return(k, 0.0);
  std::vector<int> episode_length(k, 0);
  for (int w = 0; w < k; ++w) {
    rollouts[w].records.reserve(quota[w]);
    envs_[w]->reset();
  }

  // Worker utilization: active_worker_steps / (rounds * workers) is the
  // fraction of lockstep slots doing useful work (tail rounds run with
  // fewer active workers once quotas fill up).
  static obs::Counter& rounds_counter = obs::counter("rollout.rounds");
  static obs::Counter& active_steps_counter =
      obs::counter("rollout.active_worker_steps");
  static obs::Gauge& workers_gauge = obs::gauge("rollout.workers");
  workers_gauge.set(static_cast<double>(k));

  std::vector<int> active;
  std::vector<la::Matrix>& features = feature_buffers_;
  std::vector<std::vector<std::uint8_t>>& masks = mask_buffers_;
  std::vector<StepResult> results(k);

  // Round-loop liveness on the coordinating thread; the pool workers
  // publish their own per-step heartbeats inside the step tasks.
  obs::HeartbeatScope heartbeat("hb.rollout_step");
  long round = 0;
  for (;;) {
    heartbeat.beat(round++);
    active.clear();
    for (int w = 0; w < k; ++w) {
      if (static_cast<int>(rollouts[w].records.size()) < quota[w]) active.push_back(w);
    }
    if (active.empty()) break;
    rounds_counter.add(1);
    active_steps_counter.add(static_cast<long>(active.size()));

    // One batched policy+value forward over all active workers' states.
    // Observations land in the reused per-worker buffers; the records
    // copy them so the buffers keep their capacity across rounds.
    for (int w : active) {
      envs_[w]->features_into(features[w]);
      envs_[w]->action_mask_into(masks[w]);
    }

    {
      NP_SPAN("rollout.forward");
      // Tape-free ragged batch: per-block forwards against each env's
      // own adjacency, bit-identical to per-state tape forwards.
      graph_inputs_.clear();
      for (int w : active) {
        graph_inputs_.push_back(nn::InferenceEngine::GraphInput{
            envs_[w]->adjacency().get(), &features[w], &masks[w]});
      }
      const nn::InferenceEngine::BatchOutput& forward = engine_.forward_ragged(
          graph_inputs_.data(), graph_inputs_.size(), /*want_values=*/true);

      // Sample in ascending worker order, each from its own RNG stream:
      // the draw sequence depends only on (seed, worker), not scheduling.
      for (std::size_t s = 0; s < active.size(); ++s) {
        const int w = active[s];
        StepRecord record;
        record.features = features[w];
        record.mask = masks[w];
        record.action =
            sample_from_log_probs(forward.log_probs[s], record.mask, *rngs_[w]);
        record.log_prob = forward.log_probs[s][record.action];
        record.value = forward.values[s];
        rollouts[w].records.push_back(std::move(record));
      }
    }

    {
      // Env stepping (the LP feasibility checks dominate here) runs on the
      // pool; each task touches only its own env, results land per slot.
      NP_SPAN("rollout.env_step");
      std::vector<std::function<void()>> tasks;
      tasks.reserve(active.size());
      for (int w : active) {
        const int action = rollouts[w].records.back().action;
        tasks.push_back([this, w, action, &results] {
          obs::HeartbeatScope step_heartbeat("hb.rollout_step");
          NP_FAULT_POINT("rollout.step");
          results[w] = envs_[w]->step(action);
        });
      }
      pool_.run_all(std::move(tasks));
    }

    // Post-process in ascending worker order (stats merging is ordered).
    for (int w : active) {
      StepRecord& record = rollouts[w].records.back();
      const StepResult& step = results[w];
      record.reward = step.reward;
      record.terminal = step.done;
      trajectory_return[w] += step.reward;
      ++episode_length[w];
      if (step.done) {
        ++rollouts[w].trajectories;
        rollouts[w].return_sum += trajectory_return[w];
        record_episode(episode_length[w], trajectory_return[w]);
        trajectory_return[w] = 0.0;
        episode_length[w] = 0;
        if (step.feasible) {
          ++rollouts[w].feasible_trajectories;
          const double cost = envs_[w]->added_cost();
          if (cost < rollouts[w].best_cost) {
            rollouts[w].best_cost = cost;
            rollouts[w].best_added = envs_[w]->added_units();
          }
        }
        envs_[w]->reset();
      }
    }
  }

  // Bootstrap values for workers whose last trajectory was cut off.
  for (int w = 0; w < k; ++w) {
    if (rollouts[w].records.empty() || rollouts[w].records.back().terminal) continue;
    envs_[w]->features_into(features[w]);
    rollouts[w].last_value = engine_.value(*envs_[w]->adjacency(), features[w]);
  }
  record_rollout_totals(rollouts);
  return rollouts;
}

}  // namespace np::rl
