// Gradient accumulation for the A2C update phase (Algorithm 1, lines
// 16-22): the policy-gradient loss into the actor and GNN parameters,
// the value MSE loss into the critic and GNN parameters.
//
// Samples of the epoch buffer are claimed in any order by the calling
// thread and the pool's workers (the rollout pool, which has none at
// K = 1, so the calling thread then does every sample). Each of those participants owns one
// tape and reuses it, cleared, for every sample it claims: forward,
// reverse pass, and its parameter-leaf gradients copied into that
// sample's slot. Once a chunk of `chunk_steps` samples is done, the
// calling thread adds the slots into Parameter::grad in sample order,
// leaf by leaf. A sample's leaf gradients depend only on that sample,
// and one tape shared by the whole chunk would add them in exactly that
// order, so the result is bit-identical to a serial chunk-tape backward
// for any pool size, and at most `chunk_steps` slots are alive at once.
#pragma once

#include <memory>
#include <vector>

#include "la/sparse.hpp"
#include "nn/actor_critic.hpp"
#include "rl/rollout.hpp"
#include "rl/trainer.hpp"
#include "util/thread_pool.hpp"

namespace np::rl {

/// Add the gradient of the epoch's policy loss (plain policy gradient,
/// or the PPO-clipped surrogate when config.ppo_clip > 0, plus the
/// entropy bonus) into the actor and GNN Parameter::grad. Samples whose
/// loss has no gradient-carrying term (clipped, no entropy bonus) add
/// nothing.
UpdateTimes accumulate_policy_gradients(
    nn::ActorCritic& network, const std::shared_ptr<const la::CsrMatrix>& adjacency,
    const std::vector<StepRecord>& buffer, const std::vector<double>& advantages,
    const TrainConfig& config, util::ThreadPool& pool);

/// Add the gradient of the epoch's value MSE loss against the
/// rewards-to-go into the critic and GNN Parameter::grad.
UpdateTimes accumulate_value_gradients(
    nn::ActorCritic& network, const std::shared_ptr<const la::CsrMatrix>& adjacency,
    const std::vector<StepRecord>& buffer, const std::vector<double>& rewards_to_go,
    const TrainConfig& config, util::ThreadPool& pool);

}  // namespace np::rl
