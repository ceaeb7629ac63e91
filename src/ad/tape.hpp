// Tape-based reverse-mode automatic differentiation over la::Matrix.
//
// A Tape records every operation of a forward pass; Tensor is a cheap
// handle (an index into the tape). propagate(root) runs the recorded
// adjoint operations in reverse creation order — parents always precede
// children on the tape, so reverse order is a valid topological order.
// take_leaf_grads() then hands out the registered parameters' leaf
// gradients in registration order, and backward(root) is the two
// combined with each leaf gradient added into its Parameter::grad.
//
// The op set is exactly what the NeuroPlan networks need (GCN per
// Eq. 7 of the paper + MLP actor/critic + masked categorical policy);
// each op's gradient is verified against finite differences in tests.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ad/parameter.hpp"
#include "la/matrix.hpp"
#include "la/sparse.hpp"

namespace np::ad {

class Tape;

/// Handle to a tape node. Valid only for the Tape that produced it and
/// only until Tape::clear().
struct Tensor {
  std::uint32_t index = 0;
};

class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Number of recorded nodes.
  std::size_t size() const { return nodes_.size(); }

  /// Drop all recorded nodes (start a fresh forward pass).
  void clear();

  // ---- graph inputs ----

  /// Record a constant (no gradient flows into it).
  Tensor constant(la::Matrix value);

  /// Record a trainable parameter as a leaf. The same Parameter may be
  /// registered many times per tape (e.g. once per RL step); backward()
  /// sums all contributions into param.grad.
  Tensor parameter(Parameter& param);

  // ---- elementwise / structural ops ----
  Tensor add(Tensor a, Tensor b);
  Tensor sub(Tensor a, Tensor b);
  Tensor scale(Tensor a, double factor);
  Tensor hadamard(Tensor a, Tensor b);
  Tensor relu(Tensor a);
  Tensor square(Tensor a);
  Tensor exp(Tensor a);

  /// Dense matrix product.
  Tensor matmul(Tensor a, Tensor b);

  /// Sparse-constant times dense-variable: adjacency @ features. The
  /// adjacency is shared, not copied, per call.
  Tensor spmm(std::shared_ptr<const la::CsrMatrix> lhs, Tensor rhs);

  /// Broadcast-add a 1 x c bias row to every row of an n x c matrix.
  Tensor add_row_broadcast(Tensor matrix, Tensor bias_row);

  /// n x c -> 1 x c column means (graph pooling for the critic).
  Tensor mean_rows(Tensor a);

  /// n x m -> 1 x (n*m) row-major flatten (per-link logits -> action logits).
  Tensor flatten_to_row(Tensor a);

  /// Sum of all entries -> 1 x 1.
  Tensor sum(Tensor a);

  /// Entry (r, c) -> 1 x 1 (gather a sampled action's log-probability).
  Tensor pick(Tensor a, std::size_t r, std::size_t c);

  /// Masked log-softmax over a 1 x k row. Entries where mask[i] is false
  /// get value -infinity-ish (-1e30) and receive no gradient; valid
  /// entries form a proper log-distribution. Requires >= 1 valid entry.
  Tensor masked_log_softmax(Tensor row, const std::vector<std::uint8_t>& mask);

  /// Entropy -sum(p * logp) of a log-distribution row -> 1 x 1.
  /// Input must be log-probabilities (e.g. from masked_log_softmax);
  /// -1e30 entries contribute zero.
  Tensor entropy_from_log_probs(Tensor log_probs);

  /// Graph-attention aggregation (GAT, Velickovic et al.), using the
  /// standard decomposition e_ij = LeakyReLU(src_i + dst_j):
  ///   out_i = sum_{j in N(i)} softmax_j(e_ij) * features_j,
  /// where N(i) is given by `neighbors` (must include the self loop).
  /// scores_src and scores_dst are n x 1; features is n x h.
  Tensor gat_aggregate(Tensor scores_src, Tensor scores_dst, Tensor features,
                       std::shared_ptr<const std::vector<std::vector<int>>> neighbors,
                       double leaky_slope = 0.2);

  // ---- access ----
  const la::Matrix& value(Tensor t) const { return nodes_[t.index].value; }
  const la::Matrix& grad(Tensor t) const { return nodes_[t.index].grad; }

  /// One parameter leaf's gradient, moved out of the tape.
  struct LeafGrad {
    Parameter* param = nullptr;
    la::Matrix grad;
  };

  /// Reverse pass from a 1 x 1 root: seeds d(root)=1 and propagates
  /// through the tape, leaving every node's gradient on the tape.
  /// Callable once per forward pass.
  void propagate(Tensor root);

  /// After propagate(root): move out the gradients of the parameter
  /// leaves recorded before the root, in leaf (registration) order.
  /// Adding them into Parameter::grad in this order is exactly the
  /// accumulation backward() performs.
  std::vector<LeafGrad> take_leaf_grads();

  /// propagate(root), then add each parameter leaf's gradient into its
  /// Parameter::grad in leaf order. Callable once per forward pass.
  void backward(Tensor root);

 private:
  struct Node {
    la::Matrix value;
    la::Matrix grad;
    // Adjoint: given this node's grad, scatter into parents' grads.
    std::function<void(Tape&, const Node&)> backward_fn;
    bool needs_grad = false;
  };

  Tensor emit(la::Matrix value, bool needs_grad,
              std::function<void(Tape&, const Node&)> backward_fn);
  Node& node(Tensor t) { return nodes_[t.index]; }
  la::Matrix& grad_ref(std::uint32_t index) { return nodes_[index].grad; }

  std::vector<Node> nodes_;
  std::vector<std::pair<std::uint32_t, Parameter*>> param_leaves_;
  std::uint32_t root_ = 0;  ///< root of the last propagate()
  bool propagated_ = false;
};

}  // namespace np::ad
