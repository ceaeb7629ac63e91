#include "rl/update.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <optional>
#include <stdexcept>

#include "ad/tape.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/stopwatch.hpp"

namespace np::rl {

namespace {

/// Records sample i's loss on the given (cleared) tape; nullopt when no
/// term of it carries a gradient.
using SampleLoss = std::function<std::optional<ad::Tensor>(ad::Tape&, std::size_t)>;

UpdateTimes accumulate(std::size_t samples, int chunk_steps, util::ThreadPool& pool,
                       const SampleLoss& sample_loss) {
  const std::size_t chunk = static_cast<std::size_t>(chunk_steps);
  const std::size_t participants = static_cast<std::size_t>(pool.workers()) + 1;
  // One tape per participant, cleared between its samples: after the
  // first sample its arena holds the largest pass and stops allocating.
  std::vector<ad::Tape> tapes(participants);
  std::vector<UpdateTimes> times(participants);
  // Slots keep their matrices from chunk to chunk; a skipped sample
  // empties its slot.
  std::vector<std::vector<ad::Tape::LeafGrad>> slots;
  for (std::size_t begin = 0; begin < samples; begin += chunk) {
    const std::size_t end = std::min(samples, begin + chunk);
    slots.resize(std::max(slots.size(), end - begin));
    // Participants claim samples from a shared cursor, so a slow sample
    // never leaves the others idle; which participant runs which sample
    // does not matter, since every result lands in that sample's own
    // slot.
    std::atomic<std::size_t> next{begin};
    std::atomic<bool> failed{false};
    const auto drain = [&](std::size_t p) {
      ad::Tape& tape = tapes[p];
      try {
        for (std::size_t i = next.fetch_add(1); i < end && !failed.load();
             i = next.fetch_add(1)) {
          NP_SPAN("train.update_task");
          NP_FAULT_POINT("train.update");
          tape.clear();
          Stopwatch watch;
          const std::optional<ad::Tensor> loss = sample_loss(tape, i);
          times[p].forward_seconds += watch.seconds();
          if (!loss) {
            slots[i - begin].clear();
            continue;
          }
          watch.restart();
          tape.propagate(*loss);
          tape.take_leaf_grads(slots[i - begin]);
          times[p].backward_seconds += watch.seconds();
        }
      } catch (...) {
        failed = true;  // the other participants stop claiming samples
        throw;
      }
    };
    // run_all returns only once every task has finished, rethrowing
    // the first failure, so no task outlives the slots it writes. With
    // no pool workers the one task runs on the calling thread.
    std::vector<std::function<void()>> tasks;
    for (std::size_t p = 0; p < std::min(participants, end - begin); ++p) {
      tasks.emplace_back([&drain, p] { drain(p); });
    }
    pool.run_all(std::move(tasks));
    NP_SPAN("train.update_reduce");
    for (std::size_t s = 0; s < end - begin; ++s) {
      for (ad::Tape::LeafGrad& leaf : slots[s]) leaf.param->grad += leaf.grad;
    }
  }
  UpdateTimes total;
  for (const UpdateTimes& t : times) {
    total.forward_seconds += t.forward_seconds;
    total.backward_seconds += t.backward_seconds;
  }
  return total;
}

void check_sizes(const std::vector<StepRecord>& buffer, std::size_t targets,
                 const TrainConfig& config) {
  if (targets != buffer.size()) {
    throw std::invalid_argument("accumulate gradients: buffer/target size mismatch");
  }
  if (config.chunk_steps < 1) {
    throw std::invalid_argument("accumulate gradients: chunk_steps must be positive");
  }
}

}  // namespace

UpdateTimes accumulate_policy_gradients(
    nn::ActorCritic& network, const std::shared_ptr<const la::CsrMatrix>& adjacency,
    const std::vector<StepRecord>& buffer, const std::vector<double>& advantages,
    const TrainConfig& config, util::ThreadPool& pool) {
  check_sizes(buffer, advantages.size(), config);
  const double inv_n = 1.0 / static_cast<double>(buffer.size());
  return accumulate(buffer.size(), config.chunk_steps, pool,
             [&](ad::Tape& tape, std::size_t i) -> std::optional<ad::Tensor> {
    const StepRecord& record = buffer[i];
    ad::Tensor log_probs =
        network.policy_log_probs(tape, adjacency, record.features, record.mask);
    std::optional<ad::Tensor> loss;
    const auto add_term = [&](ad::Tensor term) {
      loss = loss ? tape.add(*loss, term) : term;
    };
    ad::Tensor logp = tape.pick(log_probs, 0, static_cast<std::size_t>(record.action));
    if (config.ppo_clip > 0.0) {
      // Clipped surrogate: -min(ratio*A, clip(ratio)*A). When the
      // clipped branch is active the objective is locally constant in
      // the parameters, so the step contributes no gradient.
      ad::Tensor ratio =
          tape.exp(tape.sub(logp, tape.constant(la::Matrix(1, 1, record.log_prob))));
      const double r = tape.value(ratio)(0, 0);
      const double clipped = std::clamp(r, 1.0 - config.ppo_clip, 1.0 + config.ppo_clip);
      const double adv = advantages[i];
      if (r * adv <= clipped * adv + 1e-15) add_term(tape.scale(ratio, -adv * inv_n));
    } else {
      // Algorithm 1's plain policy-gradient loss: -(advantage * logp).
      add_term(tape.scale(logp, -advantages[i] * inv_n));
    }
    if (config.entropy_coefficient > 0.0) {
      ad::Tensor entropy = tape.entropy_from_log_probs(log_probs);
      add_term(tape.scale(entropy, -config.entropy_coefficient * inv_n));
    }
    return loss;
  });
}

UpdateTimes accumulate_value_gradients(
    nn::ActorCritic& network, const std::shared_ptr<const la::CsrMatrix>& adjacency,
    const std::vector<StepRecord>& buffer, const std::vector<double>& rewards_to_go,
    const TrainConfig& config, util::ThreadPool& pool) {
  check_sizes(buffer, rewards_to_go.size(), config);
  const double inv_n = 1.0 / static_cast<double>(buffer.size());
  return accumulate(buffer.size(), config.chunk_steps, pool,
             [&](ad::Tape& tape, std::size_t i) -> std::optional<ad::Tensor> {
    ad::Tensor value = network.value(tape, adjacency, buffer[i].features);
    ad::Tensor diff =
        tape.sub(value, tape.constant(la::Matrix(1, 1, rewards_to_go[i])));
    return tape.scale(tape.square(diff), inv_n);
  });
}

}  // namespace np::rl
