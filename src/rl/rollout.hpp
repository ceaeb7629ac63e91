// Multi-worker rollout collection (the paper's §5 scale-out story,
// single-process rendition).
//
// RolloutWorkers fills an epoch's step budget with K workers, each a
// PlanningEnv with its own RNG stream. Worker 0 steps the caller's env
// with the caller's RNG; workers 1..K-1 own envs over the same
// topology, worker w drawing from the w-th stream split off
// Rng(seed). Workers advance in lockstep rounds: the active workers'
// states go through one ragged batched forward of the tape-free
// inference engine, then actions are sampled and applied per worker in
// ascending worker order. Environment stepping (the LP feasibility
// checks) runs on a thread pool of min(K, hardware threads) - 1
// workers plus the calling thread. Results depend only on (K, seed,
// the caller's RNG state, network weights) — never on thread count or
// scheduling. At K = 1 the pool has no workers and every round runs
// inline: the same forwards and the same single rng.uniform() per step
// as a plain serial loop over the caller's env.
//
// The per-worker buffers are returned separately (concatenation order =
// worker index) so the trainer can bootstrap GAE per worker without
// leaking advantages across workers.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "la/matrix.hpp"
#include "nn/actor_critic.hpp"
#include "nn/inference.hpp"
#include "rl/env.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace np::rl {

/// Sentinel for "no feasible plan seen" costs (compares greater than
/// any real plan cost).
inline constexpr double kUnsetCost = 1e300;

/// One environment step as stored in the epoch buffer. The update phase
/// recomputes forward passes from `features`/`mask`, so no tape state
/// needs to survive the rollout.
struct StepRecord {
  la::Matrix features;
  std::vector<std::uint8_t> mask;
  int action = 0;
  double log_prob = 0.0;  ///< behavior policy's logp of the action
  double reward = 0.0;
  double value = 0.0;
  bool terminal = false;
};

/// Categorical sample over the masked entries of a 1 x k log-prob row.
/// Consumes exactly one rng.uniform() call.
int sample_from_log_probs(const la::Matrix& log_probs,
                          const std::vector<std::uint8_t>& mask, Rng& rng);
/// Raw-pointer variant (the tape-free path); the Matrix overload
/// delegates here, so both consume RNG identically.
int sample_from_log_probs(const double* log_probs,
                          const std::vector<std::uint8_t>& mask, Rng& rng);

/// One worker's share of an epoch.
struct WorkerRollout {
  std::vector<StepRecord> records;
  /// Critic bootstrap for a trajectory cut off by the step quota
  /// (0 when the final record is terminal).
  double last_value = 0.0;
  int trajectories = 0;
  int feasible_trajectories = 0;
  double return_sum = 0.0;  ///< sum of completed-trajectory returns
  double best_cost = kUnsetCost;  ///< cheapest feasible plan this epoch
  std::vector<int> best_added;    ///< added units of that plan
};

class RolloutWorkers {
 public:
  /// `workers` workers: worker 0 steps `env` with `rng` (both must
  /// outlive this object), workers 1..K-1 own envs built from
  /// env.topology() / env.env_config(). Requires workers >= 1.
  RolloutWorkers(PlanningEnv& env, Rng& rng, nn::ActorCritic& network, int workers,
                 unsigned seed);

  /// Collect `total_steps` env steps split across workers (worker w
  /// takes total/K steps, +1 for the first total%K workers). Every env
  /// is reset at the start, finished trajectories reset and continue
  /// until the worker's quota is filled. Returns one rollout per
  /// worker, in worker order.
  std::vector<WorkerRollout> collect(int total_steps);

  int workers() const { return static_cast<int>(envs_.size()); }

  /// The env-stepping pool (min(K, hardware threads) - 1 workers, so
  /// none at K = 1), lent to the trainer's update phase between
  /// collects.
  util::ThreadPool& pool() { return pool_; }

  /// The tape-free engine that selects every action (bit-identical to
  /// tape forwards), re-snapshotted to the network's current weights.
  nn::InferenceEngine& refreshed_engine();

  /// RNG states of the K - 1 owned streams (workers 1..K-1, in order)
  /// for checkpointing; worker 0's stream is the caller's to save.
  std::vector<std::array<std::uint64_t, 4>> rng_states() const;
  /// Restore streams saved by rng_states(). Throws when the count is
  /// not K - 1.
  void set_rng_states(const std::vector<std::array<std::uint64_t, 4>>& states);

  /// Cumulative simplex iterations across every worker's env — the LP
  /// share of rollout work for throughput accounting.
  long total_lp_iterations() const;
  /// Matching seconds spent inside lp::solve (summed across workers, so
  /// CPU-seconds rather than wall-clock).
  double total_lp_seconds() const;

 private:
  nn::InferenceEngine engine_;
  // Worker-ordered; entry 0 is the caller's env and RNG, the rest point
  // into owned_envs_ / owned_rngs_.
  std::vector<PlanningEnv*> envs_;
  std::vector<Rng*> rngs_;
  std::vector<std::unique_ptr<PlanningEnv>> owned_envs_;
  std::vector<Rng> owned_rngs_;
  // Observation buffers reused across rounds: the envs write into
  // these (features_into/action_mask_into) and records COPY them, so
  // per-step observation building allocates nothing once warm.
  std::vector<la::Matrix> feature_buffers_;
  std::vector<std::vector<std::uint8_t>> mask_buffers_;
  std::vector<nn::InferenceEngine::GraphInput> graph_inputs_;
  util::ThreadPool pool_;
};

}  // namespace np::rl
