// Tape-free inference engine: the acting-time forward path.
//
// Training needs the autodiff tape; acting does not. A rollout worker
// selecting an action only needs the masked log-probabilities (and
// sometimes the value), so recording tape nodes, copying every weight
// matrix into tape leaves, and heap-allocating every intermediate is
// pure overhead. InferenceEngine snapshots the network's parameters
// into packed, cache-aligned buffers and runs the same forward math
// through the raw-pointer kernels in la/kernels.hpp, with every
// intermediate carved out of a preallocated la::Arena — steady-state
// forwards perform ZERO heap allocations.
//
// The fast path is BIT-IDENTICAL to the tape path (not merely close):
// every kernel reduces in the same ascending order as la::Matrix /
// ad::Tape, so a trainer acting through the engine samples the exact
// action sequence the tape would have sampled. That is what lets the
// engine be the only acting path without perturbing the
// reproducibility guarantees (see docs/INTERNALS.md §8). Training-time
// (update) forwards always go through the tape — gradients need it.
//
// Batching is ragged block-diagonal: heterogeneous node-count graphs
// are stacked pad-free (la::RaggedLayout); sparse ops run per block
// against each graph's own adjacency (bit-identical to a materialized
// block-diagonal matrix), dense ops run once over the whole stack.
//
// Threading: an engine is single-threaded by design — rollout forwards
// happen on the lockstep caller thread (env stepping is what is
// pooled). Keep one engine per owning thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/arena.hpp"
#include "la/ragged.hpp"
#include "nn/actor_critic.hpp"

namespace np::nn {

class InferenceEngine {
 public:
  /// Snapshots `network`'s parameters immediately. The engine keeps a
  /// reference to the network only for refresh(); forwards never touch
  /// live parameters.
  explicit InferenceEngine(ActorCritic& network);

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Re-snapshot the parameters (call after every optimizer step).
  /// Allocation-free after the first call: the packed buffers are
  /// arena-backed and layer shapes never change.
  void refresh();

  struct GraphInput {
    const la::CsrMatrix* adjacency = nullptr;
    const la::Matrix* features = nullptr;
    /// Required for policy forwards (size n * max_units_per_step);
    /// ignored by value-only forwards.
    const std::vector<std::uint8_t>* action_mask = nullptr;
  };

  struct Output {
    /// Masked log-probabilities, `action_dim` entries. Arena-backed:
    /// valid until the next forward/refresh on this engine.
    const double* log_probs = nullptr;
    std::size_t action_dim = 0;
    double value = 0.0;  ///< meaningful only when requested
  };

  /// Single-graph policy (and optionally value) forward, sharing one
  /// encoder pass. Bit-identical to ActorCritic::policy_log_probs /
  /// ::value on the same inputs.
  Output forward(const la::CsrMatrix& adjacency, const la::Matrix& features,
                 const std::vector<std::uint8_t>& action_mask, bool want_value);

  /// Critic-only single forward, bit-identical to ActorCritic::value.
  double value(const la::CsrMatrix& adjacency, const la::Matrix& features);

  struct BatchOutput {
    std::vector<const double*> log_probs;  ///< per graph, arena-backed
    std::vector<std::size_t> action_dims;  ///< per graph
    std::vector<double> values;            ///< empty unless requested
  };

  /// Ragged block-diagonal batch over `count` graphs of (possibly)
  /// different node counts. Per-graph outputs are bit-identical to
  /// `count` single-graph forwards. The returned reference (and the
  /// log_probs pointers inside) stay valid until the next
  /// forward/refresh on this engine.
  const BatchOutput& forward_ragged(const GraphInput* graphs, std::size_t count,
                                    bool want_values);

  // Arena introspection, used by the zero-allocation tests and the
  // nn.infer.arena_bytes gauge.
  std::size_t arena_high_water_bytes() const { return arena_.high_water_bytes(); }
  std::size_t arena_capacity_bytes() const { return arena_.capacity_bytes(); }
  long arena_reallocations() const { return arena_.reallocations(); }

  const NetworkConfig& config() const { return config_; }

 private:
  /// A packed linear layer: row-major weight (in x out) and bias (out).
  struct Lin {
    const double* w = nullptr;
    const double* b = nullptr;
    std::size_t in = 0;
    std::size_t out = 0;
  };
  struct GatLayer {
    Lin proj;
    const double* a_src = nullptr;  ///< hidden x 1
    const double* a_dst = nullptr;  ///< hidden x 1
  };

  const double* pack(const la::Matrix& m);
  Lin pack_linear(const ad::Parameter& weight, const ad::Parameter& bias);
  void validate(const GraphInput* graphs, std::size_t count,
                bool want_policy) const;
  /// Stacked encoder pass; returns the (total_rows x encoder_dim)
  /// embedding in the arena.
  const double* encode(const GraphInput* graphs, const la::RaggedLayout& layout);
  /// Runs an MLP over a stacked (rows x head[0].in) input; returns the
  /// (rows x head.back().out) output in the arena.
  const double* run_mlp(const std::vector<Lin>& head, const double* x,
                        std::size_t rows);
  void run(const GraphInput* graphs, std::size_t count, bool want_policy,
           bool want_values);

  ActorCritic* network_;
  NetworkConfig config_;
  std::size_t encoder_dim_ = 0;

  std::vector<Lin> gcn_;
  std::vector<GatLayer> gat_;
  std::vector<Lin> actor_;
  std::vector<Lin> critic_;

  la::Arena params_;  ///< packed parameter snapshot (reset by refresh)
  la::Arena arena_;   ///< per-forward intermediates (reset every run)
  la::RaggedLayout layout_;
  std::vector<std::size_t> block_rows_;  ///< scratch for layout_.assign
  BatchOutput out_;
};

}  // namespace np::nn
