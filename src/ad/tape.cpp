#include "ad/tape.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "la/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace np::ad {

namespace {

constexpr double kMaskedLogProb = -1e30;

using NeighborLists = std::vector<std::vector<int>>;

void require_same_shape(std::size_t ar, std::size_t ac, std::size_t br, std::size_t bc,
                        const char* op) {
  if (ar != br || ac != bc) {
    throw std::invalid_argument(std::string("Tape::") + op + ": shape mismatch " +
                                std::to_string(ar) + "x" + std::to_string(ac) + " vs " +
                                std::to_string(br) + "x" + std::to_string(bc));
  }
}

/// dst[i] += src[i] — the `Matrix::operator+=` every adjoint used.
void add_into(double* dst, const double* src, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) dst[i] += src[i];
}

}  // namespace

void Tape::clear() {
  nodes_.clear();
  param_leaves_.clear();
  keep_alive_.clear();
  arena_.reset();
  propagated_ = false;
}

Tape::Node Tape::make(Op op, const double* value, std::size_t rows, std::size_t cols,
                      bool needs_grad) {
  Node n;
  n.op = op;
  n.value = value;
  n.rows = rows;
  n.cols = cols;
  n.needs_grad = needs_grad;
  return n;
}

Tensor Tape::emit(Node node) {
  nodes_.push_back(node);
  return Tensor{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

Tensor Tape::constant(const la::Matrix& value) {
  double* out = alloc(value.size());
  std::copy(value.data(), value.data() + value.size(), out);
  return emit(make(Op::kLeaf, out, value.rows(), value.cols(), /*needs_grad=*/false));
}

Tensor Tape::parameter(Parameter& param) {
  const la::Matrix& v = param.value;
  Tensor t = emit(make(Op::kLeaf, v.data(), v.rows(), v.cols(), /*needs_grad=*/true));
  param_leaves_.emplace_back(t.index, &param);
  return t;
}

Tensor Tape::add(Tensor a, Tensor b) {
  const Node& x = node(a);
  const Node& y = node(b);
  require_same_shape(x.rows, x.cols, y.rows, y.cols, "add");
  double* out = alloc(x.rows * x.cols);
  for (std::size_t i = 0; i < x.rows * x.cols; ++i) out[i] = x.value[i] + y.value[i];
  Node n = make(Op::kAdd, out, x.rows, x.cols, x.needs_grad || y.needs_grad);
  n.a = a.index;
  n.b = b.index;
  return emit(n);
}

Tensor Tape::sub(Tensor a, Tensor b) {
  const Node& x = node(a);
  const Node& y = node(b);
  require_same_shape(x.rows, x.cols, y.rows, y.cols, "sub");
  double* out = alloc(x.rows * x.cols);
  for (std::size_t i = 0; i < x.rows * x.cols; ++i) out[i] = x.value[i] - y.value[i];
  Node n = make(Op::kSub, out, x.rows, x.cols, x.needs_grad || y.needs_grad);
  n.a = a.index;
  n.b = b.index;
  return emit(n);
}

Tensor Tape::scale(Tensor a, double factor) {
  const Node& x = node(a);
  double* out = alloc(x.rows * x.cols);
  for (std::size_t i = 0; i < x.rows * x.cols; ++i) out[i] = x.value[i] * factor;
  Node n = make(Op::kScale, out, x.rows, x.cols, x.needs_grad);
  n.a = a.index;
  n.scalar = factor;
  return emit(n);
}

Tensor Tape::hadamard(Tensor a, Tensor b) {
  const Node& x = node(a);
  const Node& y = node(b);
  require_same_shape(x.rows, x.cols, y.rows, y.cols, "hadamard");
  double* out = alloc(x.rows * x.cols);
  for (std::size_t i = 0; i < x.rows * x.cols; ++i) out[i] = x.value[i] * y.value[i];
  Node n = make(Op::kHadamard, out, x.rows, x.cols, x.needs_grad || y.needs_grad);
  n.a = a.index;
  n.b = b.index;
  return emit(n);
}

Tensor Tape::relu(Tensor a) {
  const Node& x = node(a);
  double* out = alloc(x.rows * x.cols);
  for (std::size_t i = 0; i < x.rows * x.cols; ++i) {
    out[i] = x.value[i] > 0.0 ? x.value[i] : 0.0;
  }
  Node n = make(Op::kRelu, out, x.rows, x.cols, x.needs_grad);
  n.a = a.index;
  return emit(n);
}

Tensor Tape::square(Tensor a) {
  const Node& x = node(a);
  double* out = alloc(x.rows * x.cols);
  for (std::size_t i = 0; i < x.rows * x.cols; ++i) out[i] = x.value[i] * x.value[i];
  Node n = make(Op::kSquare, out, x.rows, x.cols, x.needs_grad);
  n.a = a.index;
  return emit(n);
}

Tensor Tape::exp(Tensor a) {
  const Node& x = node(a);
  double* out = alloc(x.rows * x.cols);
  for (std::size_t i = 0; i < x.rows * x.cols; ++i) out[i] = std::exp(x.value[i]);
  Node n = make(Op::kExp, out, x.rows, x.cols, x.needs_grad);
  n.a = a.index;
  return emit(n);
}

Tensor Tape::matmul(Tensor a, Tensor b) {
  const Node& x = node(a);
  const Node& y = node(b);
  if (x.cols != y.rows) {
    throw std::invalid_argument("Tape::matmul: inner dimension mismatch " +
                                std::to_string(x.rows) + "x" + std::to_string(x.cols) +
                                " vs " + std::to_string(y.rows) + "x" +
                                std::to_string(y.cols));
  }
  double* out = alloc(x.rows * y.cols);
  la::kernels::matmul(x.value, x.rows, x.cols, y.value, y.cols, out);
  NP_CHECK_FINITE(out, x.rows * y.cols, "Tape::matmul");
  Node n = make(Op::kMatmul, out, x.rows, y.cols, x.needs_grad || y.needs_grad);
  n.a = a.index;
  n.b = b.index;
  return emit(n);
}

Tensor Tape::spmm(std::shared_ptr<const la::CsrMatrix> lhs, Tensor rhs) {
  if (lhs == nullptr) throw std::invalid_argument("Tape::spmm: null adjacency");
  const Node& x = node(rhs);
  if (lhs->cols() != x.rows) {
    throw std::invalid_argument("Tape::spmm: dimension mismatch");
  }
  double* out = alloc(lhs->rows() * x.cols);
  la::kernels::spmm(*lhs, x.value, x.cols, out);
  Node n = make(Op::kSpmm, out, lhs->rows(), x.cols, x.needs_grad);
  n.a = rhs.index;
  n.aux = lhs.get();
  keep_alive_.push_back(std::move(lhs));
  return emit(n);
}

Tensor Tape::add_row_broadcast(Tensor matrix, Tensor bias_row) {
  const Node& x = node(matrix);
  const Node& bias = node(bias_row);
  if (bias.rows != 1 || bias.cols != x.cols) {
    throw std::invalid_argument("Tape::add_row_broadcast: need 1x" +
                                std::to_string(x.cols) + ", got " +
                                std::to_string(bias.rows) + "x" +
                                std::to_string(bias.cols));
  }
  double* out = alloc(x.rows * x.cols);
  for (std::size_t r = 0; r < x.rows; ++r) {
    for (std::size_t c = 0; c < x.cols; ++c) {
      out[r * x.cols + c] = x.value[r * x.cols + c] + bias.value[c];
    }
  }
  Node n = make(Op::kAddRowBroadcast, out, x.rows, x.cols,
                x.needs_grad || bias.needs_grad);
  n.a = matrix.index;
  n.b = bias_row.index;
  return emit(n);
}

Tensor Tape::mean_rows(Tensor a) {
  const Node& x = node(a);
  if (x.rows == 0) throw std::invalid_argument("Tape::mean_rows: empty input");
  double* out = alloc(x.cols);
  la::kernels::mean_rows(x.value, x.rows, x.cols, out);
  Node n = make(Op::kMeanRows, out, 1, x.cols, x.needs_grad);
  n.a = a.index;
  n.scalar = 1.0 / static_cast<double>(x.rows);
  return emit(n);
}

Tensor Tape::flatten_to_row(Tensor a) {
  const Node& x = node(a);
  // Values are immutable once recorded, so the row aliases its input.
  Node n = make(Op::kFlatten, x.value, 1, x.rows * x.cols, x.needs_grad);
  n.a = a.index;
  return emit(n);
}

Tensor Tape::sum(Tensor a) {
  const Node& x = node(a);
  double total = 0.0;
  for (std::size_t i = 0; i < x.rows * x.cols; ++i) total += x.value[i];
  double* out = alloc(1);
  out[0] = total;
  Node n = make(Op::kSum, out, 1, 1, x.needs_grad);
  n.a = a.index;
  return emit(n);
}

Tensor Tape::pick(Tensor a, std::size_t r, std::size_t c) {
  const Node& x = node(a);
  if (r >= x.rows || c >= x.cols) throw std::out_of_range("Tape::pick");
  double* out = alloc(1);
  out[0] = x.value[r * x.cols + c];
  Node n = make(Op::kPick, out, 1, 1, x.needs_grad);
  n.a = a.index;
  n.entry = r * x.cols + c;
  return emit(n);
}

Tensor Tape::masked_log_softmax(Tensor row, const std::vector<std::uint8_t>& mask) {
  const Node& x = node(row);
  if (x.rows != 1) throw std::invalid_argument("masked_log_softmax: need a row vector");
  if (mask.size() != x.cols) {
    throw std::invalid_argument("masked_log_softmax: mask size mismatch");
  }
  const std::size_t k = x.cols;
  double* out = alloc(k);
  la::kernels::masked_log_softmax(x.value, mask.data(), k, out);
  // Keep the mask and the probabilities for the adjoint:
  // dx_j = dy_j - p_j * sum(dy) over valid entries.
  std::uint8_t* mask_copy = arena_.alloc_bytes(k);
  std::copy(mask.begin(), mask.end(), mask_copy);
  double* probs = alloc(k);
  for (std::size_t i = 0; i < k; ++i) probs[i] = mask[i] ? std::exp(out[i]) : 0.0;
  Node n = make(Op::kMaskedLogSoftmax, out, 1, k, x.needs_grad);
  n.a = row.index;
  n.aux = mask_copy;
  n.cache = probs;
  return emit(n);
}

Tensor Tape::entropy_from_log_probs(Tensor log_probs) {
  const Node& lp = node(log_probs);
  if (lp.rows != 1) {
    throw std::invalid_argument("entropy_from_log_probs: need a row vector");
  }
  double h = 0.0;
  for (std::size_t i = 0; i < lp.cols; ++i) {
    const double l = lp.value[i];
    if (l > kMaskedLogProb * 0.5) h -= std::exp(l) * l;
  }
  double* out = alloc(1);
  out[0] = h;
  Node n = make(Op::kEntropy, out, 1, 1, lp.needs_grad);
  n.a = log_probs.index;
  return emit(n);
}

Tensor Tape::gat_aggregate(Tensor scores_src, Tensor scores_dst, Tensor features,
                           std::shared_ptr<const NeighborLists> neighbors,
                           double leaky_slope) {
  if (neighbors == nullptr) {
    throw std::invalid_argument("gat_aggregate: null neighbor lists");
  }
  const Node& src = node(scores_src);
  const Node& dst = node(scores_dst);
  const Node& z = node(features);
  const std::size_t n = z.rows;
  if (src.rows != n || src.cols != 1 || dst.rows != n || dst.cols != 1) {
    throw std::invalid_argument("gat_aggregate: scores must be n x 1");
  }
  if (neighbors->size() != n) {
    throw std::invalid_argument("gat_aggregate: neighbor list size mismatch");
  }
  std::size_t edges = 0;
  for (const auto& list : *neighbors) {
    for (int j : list) {
      if (j < 0 || static_cast<std::size_t>(j) >= n) {
        throw std::invalid_argument("gat_aggregate: neighbor index out of range");
      }
    }
    if (list.empty()) {
      throw std::invalid_argument("gat_aggregate: node without neighbors "
                                  "(self loops are required)");
    }
    edges += list.size();
  }

  // Forward: per-node masked softmax over LeakyReLU(src_i + dst_j).
  // Attention weights are kept for the adjoint, node by node in one
  // flat array.
  double* alphas = alloc(edges);
  double* out = alloc(n * z.cols);
  std::fill(out, out + n * z.cols, 0.0);
  double* alpha = alphas;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& list = (*neighbors)[i];
    double max_e = -1e300;
    for (std::size_t k = 0; k < list.size(); ++k) {
      const double pre = src.value[i] + dst.value[list[k]];
      alpha[k] = pre > 0.0 ? pre : leaky_slope * pre;
      max_e = std::max(max_e, alpha[k]);
    }
    double total = 0.0;
    for (std::size_t k = 0; k < list.size(); ++k) {
      alpha[k] = std::exp(alpha[k] - max_e);
      total += alpha[k];
    }
    double* orow = out + i * z.cols;
    for (std::size_t k = 0; k < list.size(); ++k) {
      alpha[k] /= total;
      const double* zrow = z.value + static_cast<std::size_t>(list[k]) * z.cols;
      for (std::size_t c = 0; c < z.cols; ++c) orow[c] += alpha[k] * zrow[c];
    }
    alpha += list.size();
  }

  Node node_out = make(Op::kGatAggregate, out, n, z.cols,
                       src.needs_grad || dst.needs_grad || z.needs_grad);
  node_out.a = scores_src.index;
  node_out.b = scores_dst.index;
  node_out.c = features.index;
  node_out.scalar = leaky_slope;
  node_out.aux = neighbors.get();
  node_out.cache = alphas;
  keep_alive_.push_back(std::move(neighbors));
  return emit(node_out);
}

void Tape::backward_node(const Node& n) {
  const std::size_t size = n.rows * n.cols;
  const double* g = n.grad;
  double* ga = n.op == Op::kLeaf ? nullptr : nodes_[n.a].grad;
  switch (n.op) {
    case Op::kLeaf:
      break;
    case Op::kAdd:
    case Op::kSub: {
      if (ga != nullptr) add_into(ga, g, size);
      double* gb = nodes_[n.b].grad;
      if (gb == nullptr) break;
      if (n.op == Op::kAdd) {
        add_into(gb, g, size);
      } else {
        for (std::size_t i = 0; i < size; ++i) gb[i] -= g[i];
      }
      break;
    }
    case Op::kScale:
      if (ga != nullptr) {
        for (std::size_t i = 0; i < size; ++i) ga[i] += g[i] * n.scalar;
      }
      break;
    case Op::kHadamard: {
      const double* a = nodes_[n.a].value;
      const double* b = nodes_[n.b].value;
      if (ga != nullptr) {
        for (std::size_t i = 0; i < size; ++i) ga[i] += g[i] * b[i];
      }
      double* gb = nodes_[n.b].grad;
      if (gb != nullptr) {
        for (std::size_t i = 0; i < size; ++i) gb[i] += g[i] * a[i];
      }
      break;
    }
    case Op::kRelu:
      if (ga != nullptr) {
        const double* x = nodes_[n.a].value;
        for (std::size_t i = 0; i < size; ++i) {
          if (x[i] > 0.0) ga[i] += g[i];
        }
      }
      break;
    case Op::kSquare:
      if (ga != nullptr) {
        const double* x = nodes_[n.a].value;
        for (std::size_t i = 0; i < size; ++i) ga[i] += 2.0 * x[i] * g[i];
      }
      break;
    case Op::kExp:
      // d exp(x) = exp(x) dx uses the forward value.
      if (ga != nullptr) {
        for (std::size_t i = 0; i < size; ++i) ga[i] += n.value[i] * g[i];
      }
      break;
    case Op::kMatmul: {
      const Node& a = nodes_[n.a];
      const Node& b = nodes_[n.b];
      if (ga != nullptr) {
        la::kernels::accumulate_a_bt(g, n.rows, n.cols, b.value, b.rows, ga,
                                     alloc(4 * n.cols));
      }
      if (b.grad != nullptr) {
        la::kernels::accumulate_at_b(a.value, a.rows, a.cols, g, n.cols, b.grad);
      }
      break;
    }
    case Op::kSpmm:
      if (ga != nullptr) {
        const auto& lhs = *static_cast<const la::CsrMatrix*>(n.aux);
        double* tmp = alloc(lhs.cols() * n.cols);
        la::kernels::spmm_transposed(lhs, g, n.cols, tmp);
        add_into(ga, tmp, lhs.cols() * n.cols);
      }
      break;
    case Op::kAddRowBroadcast: {
      if (ga != nullptr) add_into(ga, g, size);
      double* gb = nodes_[n.b].grad;
      if (gb != nullptr) {
        double* column_sums = alloc(n.cols);
        std::fill(column_sums, column_sums + n.cols, 0.0);
        for (std::size_t r = 0; r < n.rows; ++r) add_into(column_sums, g + r * n.cols, n.cols);
        add_into(gb, column_sums, n.cols);
      }
      break;
    }
    case Op::kMeanRows:
      if (ga != nullptr) {
        for (std::size_t r = 0; r < nodes_[n.a].rows; ++r) {
          for (std::size_t c = 0; c < n.cols; ++c) ga[r * n.cols + c] += n.scalar * g[c];
        }
      }
      break;
    case Op::kFlatten:
      if (ga != nullptr) add_into(ga, g, size);
      break;
    case Op::kSum:
      if (ga != nullptr) {
        const Node& a = nodes_[n.a];
        for (std::size_t i = 0; i < a.rows * a.cols; ++i) ga[i] += g[0];
      }
      break;
    case Op::kPick:
      if (ga != nullptr) ga[n.entry] += g[0];
      break;
    case Op::kMaskedLogSoftmax:
      if (ga != nullptr) {
        const auto* mask = static_cast<const std::uint8_t*>(n.aux);
        double grad_sum = 0.0;
        for (std::size_t i = 0; i < n.cols; ++i) {
          if (mask[i]) grad_sum += g[i];
        }
        for (std::size_t i = 0; i < n.cols; ++i) {
          if (mask[i]) ga[i] += g[i] - n.cache[i] * grad_sum;
        }
      }
      break;
    case Op::kEntropy:
      if (ga != nullptr) {
        const Node& lp = nodes_[n.a];
        for (std::size_t i = 0; i < lp.cols; ++i) {
          const double l = lp.value[i];
          if (l > kMaskedLogProb * 0.5) ga[i] += g[0] * (-std::exp(l) * (1.0 + l));
        }
      }
      break;
    case Op::kGatAggregate: {
      const Node& src = nodes_[n.a];
      const Node& dst = nodes_[n.b];
      const Node& z = nodes_[n.c];
      const auto& neighbors = *static_cast<const NeighborLists*>(n.aux);
      const std::size_t h = z.cols;
      std::size_t max_degree = 0;
      for (const auto& list : neighbors) max_degree = std::max(max_degree, list.size());
      double* dalpha = alloc(max_degree);
      const double* alpha = n.cache;
      for (std::size_t i = 0; i < z.rows; ++i) {
        const auto& list = neighbors[i];
        const double* grow = g + i * h;
        // d alpha_k = dOut_i . z_k ; softmax backward ; LeakyReLU.
        double weighted = 0.0;
        for (std::size_t k = 0; k < list.size(); ++k) {
          const double* zrow = z.value + static_cast<std::size_t>(list[k]) * h;
          double dot = 0.0;
          for (std::size_t c = 0; c < h; ++c) dot += grow[c] * zrow[c];
          dalpha[k] = dot;
          weighted += alpha[k] * dot;
          if (z.grad != nullptr) {
            double* gzrow = z.grad + static_cast<std::size_t>(list[k]) * h;
            for (std::size_t c = 0; c < h; ++c) gzrow[c] += alpha[k] * grow[c];
          }
        }
        if (src.grad != nullptr || dst.grad != nullptr) {
          for (std::size_t k = 0; k < list.size(); ++k) {
            const double de = alpha[k] * (dalpha[k] - weighted);
            const double pre = src.value[i] + dst.value[list[k]];
            const double dpre = de * (pre > 0.0 ? 1.0 : n.scalar);
            if (src.grad != nullptr) src.grad[i] += dpre;
            if (dst.grad != nullptr) dst.grad[list[k]] += dpre;
          }
        }
        alpha += list.size();
      }
      break;
    }
  }
}

void Tape::propagate(Tensor root) {
  NP_SPAN("ad.backward");
  static obs::Counter& backwards = obs::counter("ad.backwards");
  backwards.add(1);
  if (root.index >= nodes_.size()) {
    throw std::out_of_range("Tape::propagate: root " + std::to_string(root.index) +
                            " is not on this tape of " + std::to_string(nodes_.size()) +
                            " nodes");
  }
  const Node& r = nodes_[root.index];
  if (r.rows != 1 || r.cols != 1) {
    throw std::invalid_argument("Tape::propagate: root must be 1x1");
  }
  if (!r.needs_grad) {
    throw std::invalid_argument("Tape::propagate: root does not require grad");
  }
  // Gradients only for the nodes that need one, up to the root. Zero
  // is +0.0, exactly what a fresh la::Matrix held.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    n.grad = nullptr;
    if (!n.needs_grad || i > root.index) continue;
    n.grad = alloc(n.rows * n.cols);
    std::fill(n.grad, n.grad + n.rows * n.cols, 0.0);
  }
  nodes_[root.index].grad[0] = 1.0;
  for (std::size_t i = root.index + 1; i-- > 0;) {
    if (nodes_[i].needs_grad) backward_node(nodes_[i]);
  }
  root_ = root.index;
  propagated_ = true;
}

void Tape::take_leaf_grads(std::vector<LeafGrad>& out) {
  if (!propagated_) {
    throw std::logic_error("Tape::take_leaf_grads: no propagate() on this tape");
  }
  // Leaves are recorded in index order, so those before the root are a
  // prefix of param_leaves_.
  std::size_t count = 0;
  while (count < param_leaves_.size() && param_leaves_[count].first <= root_) ++count;
  out.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    const auto& [index, param] = param_leaves_[k];
    const Node& n = nodes_[index];
    NP_CHECK_FINITE(n.grad, n.rows * n.cols, "Tape::take_leaf_grads parameter gradient");
    LeafGrad& leaf = out[k];
    leaf.param = param;
    if (leaf.grad.rows() != n.rows || leaf.grad.cols() != n.cols) {
      leaf.grad = la::Matrix(n.rows, n.cols);
    }
    std::copy(n.grad, n.grad + n.rows * n.cols, leaf.grad.data());
  }
  propagated_ = false;
}

void Tape::backward(Tensor root) {
  propagate(root);
  std::vector<LeafGrad> leaves;
  take_leaf_grads(leaves);
  for (const LeafGrad& leaf : leaves) leaf.param->grad += leaf.grad;
}

}  // namespace np::ad
