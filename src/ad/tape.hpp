// Tape-based reverse-mode automatic differentiation over dense matrices.
//
// A Tape records every operation of a forward pass; Tensor is a cheap
// handle (an index into the tape). propagate(root) runs the recorded
// adjoint operations in reverse creation order — parents always precede
// children on the tape, so reverse order is a valid topological order.
// take_leaf_grads() then hands out the registered parameters' leaf
// gradients in registration order, and backward(root) is the two
// combined with each leaf gradient added into its Parameter::grad.
//
// Storage: node values and gradients live in the tape's la::Arena, and
// clear() rewinds it, so a tape reused across same-shaped passes stops
// allocating after the first. Parameter leaves reference
// Parameter::value in place instead of copying it. Every Tensor, value()
// and grad() view is valid until the next clear() (or the tape's
// destruction), and a Parameter registered on a tape must not change
// while that tape is alive or until its next clear().
//
// Matmul forward and backward run on la::kernels (GEMM, and the
// accumulating aᵀ·g and g·bᵀ kernels that read their operands in
// place), keeping the kernels' ascending-order rule: results are
// bit-identical to a naive triple loop.
//
// The op set is exactly what the NeuroPlan networks need (GCN per
// Eq. 7 of the paper + MLP actor/critic + masked categorical policy);
// each op's gradient is verified against finite differences in tests.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ad/parameter.hpp"
#include "la/arena.hpp"
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

  /// Drop all recorded nodes and rewind the arena, keeping its capacity
  /// (start a fresh forward pass). Invalidates every Tensor and view.
  void clear();

  // ---- graph inputs ----

  /// Record a constant, copied onto the tape (no gradient flows into it).
  Tensor constant(const la::Matrix& value);

  /// Record a trainable parameter as a leaf that references param.value
  /// (not a copy): it must not change until clear(). The same Parameter
  /// may be registered many times per tape (e.g. once per RL step);
  /// backward() sums all contributions into param.grad.
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

  // ---- access (views valid until clear()) ----
  la::MatrixView value(Tensor t) const {
    const Node& n = nodes_[t.index];
    return la::MatrixView(n.value, n.rows, n.cols);
  }
  /// The node's gradient after propagate(); empty for nodes that carry
  /// none (constants, nodes past the root, before any propagate()).
  la::MatrixView grad(Tensor t) const {
    const Node& n = nodes_[t.index];
    return n.grad == nullptr ? la::MatrixView() : la::MatrixView(n.grad, n.rows, n.cols);
  }

  /// One parameter leaf's gradient, copied out of the tape.
  struct LeafGrad {
    Parameter* param = nullptr;
    la::Matrix grad;
  };

  /// Reverse pass from a 1 x 1 root: seeds d(root)=1 and propagates
  /// through the tape, leaving the gradient of every node up to the
  /// root on the tape. Callable once per forward pass. Throws
  /// std::out_of_range for a root that is not on this tape (e.g. a
  /// Tensor kept from before clear()).
  void propagate(Tensor root);

  /// After propagate(root): copy the gradients of the parameter leaves
  /// recorded before the root into `out`, in leaf (registration) order.
  /// `out` is resized to the leaf count and its matrices are reused
  /// when their shapes already match, so a slot refilled every pass
  /// stops allocating. Adding them into Parameter::grad in this order
  /// is exactly the accumulation backward() performs. Callable once per
  /// propagate().
  void take_leaf_grads(std::vector<LeafGrad>& out);

  /// propagate(root), then add each parameter leaf's gradient into its
  /// Parameter::grad in leaf order. Callable once per forward pass.
  void backward(Tensor root);

  /// Heap allocations the tape's arena has made; stable across passes
  /// once the arena has grown to the largest pass (tests assert this).
  long arena_reallocations() const { return arena_.reallocations(); }

 private:
  enum class Op : std::uint8_t {
    kLeaf,
    kAdd,
    kSub,
    kScale,
    kHadamard,
    kRelu,
    kSquare,
    kExp,
    kMatmul,
    kSpmm,
    kAddRowBroadcast,
    kMeanRows,
    kFlatten,
    kSum,
    kPick,
    kMaskedLogSoftmax,
    kEntropy,
    kGatAggregate,
  };

  struct Node {
    const double* value = nullptr;  ///< arena, or Parameter::value for a leaf
    double* grad = nullptr;         ///< arena; set by propagate() when needed
    std::size_t rows = 0;
    std::size_t cols = 0;
    Op op = Op::kLeaf;
    bool needs_grad = false;
    std::uint32_t a = 0, b = 0, c = 0;  ///< parent node indices
    double scalar = 0.0;     ///< scale factor, 1/rows (mean), leaky slope (GAT)
    std::size_t entry = 0;   ///< flat index (pick)
    const void* aux = nullptr;       ///< CSR lhs (spmm), neighbor lists (GAT), mask
    const double* cache = nullptr;   ///< probabilities (softmax), attention (GAT)
  };

  /// Append a node whose value the caller has written into `value`.
  Tensor emit(Node node);
  static Node make(Op op, const double* value, std::size_t rows, std::size_t cols,
                   bool needs_grad);
  const Node& node(Tensor t) const { return nodes_[t.index]; }
  /// Arena storage for `count` doubles (contents indeterminate).
  double* alloc(std::size_t count) { return arena_.alloc_doubles(count); }
  /// Run node `n`'s adjoint: scatter its gradient into its parents'.
  void backward_node(const Node& n);

  la::Arena arena_;
  std::vector<Node> nodes_;
  std::vector<std::pair<std::uint32_t, Parameter*>> param_leaves_;
  /// Shared operands that nodes point at (adjacency, GAT neighbor lists).
  std::vector<std::shared_ptr<const void>> keep_alive_;
  std::uint32_t root_ = 0;  ///< root of the last propagate()
  bool propagated_ = false;
};

}  // namespace np::ad
