// Multi-worker rollout collection (the paper's §5 scale-out story,
// single-process rendition).
//
// RolloutWorkers fills an epoch's step budget with K independent
// PlanningEnv instances. Two modes:
//
//  * Borrowed (K = 1): reuses the caller's env and RNG and replays the
//    exact serial rollout loop of the original trainer — same forward
//    passes, same RNG consumption — so `rollout_workers = 1` is
//    bit-for-bit identical to the pre-threading trainer.
//  * Owned (K > 1): owns K envs, each with its own RNG stream derived
//    deterministically from (seed, worker index). Workers advance in
//    lockstep rounds: the active workers' states go through one ragged
//    batched forward of the tape-free inference engine, then
//    actions are sampled and applied per worker in ascending worker
//    order. Environment stepping (the LP feasibility checks) runs on a
//    thread pool. Results depend only on (K, seed, network weights) —
//    never on thread count or scheduling — so a K-worker run is
//    reproducible anywhere.
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
  /// Borrowed mode: single worker sharing the caller's env and RNG.
  /// Both must outlive this object.
  RolloutWorkers(PlanningEnv& env, Rng& rng, nn::ActorCritic& network);

  /// Owned mode: `workers` independent envs over `topology` (which must
  /// outlive this object), RNG streams derived from `seed`. Requires
  /// workers >= 1; workers == 1 still uses the lockstep path (useful
  /// for testing) — pass the borrowed constructor for seed parity.
  RolloutWorkers(const topo::Topology& topology, const EnvConfig& env_config,
                 nn::ActorCritic& network, int workers, unsigned seed);

  /// Collect `total_steps` env steps split across workers (worker w
  /// takes total/K steps, +1 for the first total%K workers). Every env
  /// is reset at the start, finished trajectories reset and continue
  /// until the worker's quota is filled. Returns one rollout per
  /// worker, in worker order.
  std::vector<WorkerRollout> collect(int total_steps);

  int workers() const { return workers_; }
  bool borrowed() const { return borrowed_env_ != nullptr; }

  /// The env-stepping pool (min(K, hardware threads) - 1 workers), lent
  /// to the trainer's update phase between collects; nullptr in
  /// borrowed mode, where the update runs on the calling thread.
  util::ThreadPool* pool() { return pool_.get(); }

  /// The tape-free engine that selects every action (bit-identical to
  /// tape forwards); nullptr before the first collect. Exposed for
  /// arena introspection in tests and benches.
  const nn::InferenceEngine* inference_engine() const { return engine_.get(); }

  /// RNG states of the owned per-worker streams, worker-ordered
  /// (checkpointing). Empty in borrowed mode — the caller owns the RNG
  /// there and snapshots it directly.
  std::vector<std::array<std::uint64_t, 4>> rng_states() const;
  /// Restore per-worker streams saved by rng_states(). Throws when the
  /// count does not match the worker count (a checkpoint from a run
  /// with a different `--rollout-workers` cannot resume bit-for-bit).
  void set_rng_states(const std::vector<std::array<std::uint64_t, 4>>& states);

  /// Cumulative simplex iterations across every env this object steps
  /// (the borrowed env, or all owned envs) — the LP share of rollout
  /// work for throughput accounting.
  long total_lp_iterations() const;
  /// Matching seconds spent inside lp::solve (summed across workers, so
  /// CPU-seconds rather than wall-clock in owned mode).
  double total_lp_seconds() const;

 private:
  WorkerRollout collect_serial(PlanningEnv& env, Rng& rng, int steps);
  std::vector<WorkerRollout> collect_lockstep(int total_steps);
  /// Lazily build + re-snapshot the engine (weights change every epoch).
  void prepare_engine();

  nn::ActorCritic& network_;
  int workers_ = 1;
  std::unique_ptr<nn::InferenceEngine> engine_;
  // Observation buffers reused across steps/rounds: the envs write into
  // these (features_into/action_mask_into) and records COPY them, so
  // per-step observation building allocates nothing once warm.
  std::vector<la::Matrix> feature_buffers_;
  std::vector<std::vector<std::uint8_t>> mask_buffers_;
  std::vector<nn::InferenceEngine::GraphInput> graph_inputs_;

  // Borrowed mode.
  PlanningEnv* borrowed_env_ = nullptr;
  Rng* borrowed_rng_ = nullptr;

  // Owned mode.
  std::vector<std::unique_ptr<PlanningEnv>> envs_;
  std::vector<Rng> rngs_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace np::rl
