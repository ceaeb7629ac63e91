#include "ad/tape.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace np::ad {

namespace {
constexpr double kMaskedLogProb = -1e30;
}

void Tape::clear() {
  nodes_.clear();
  param_leaves_.clear();
  propagated_ = false;
}

Tensor Tape::emit(la::Matrix value, bool needs_grad,
                  std::function<void(Tape&, const Node&)> backward_fn) {
  Node n;
  n.value = std::move(value);
  n.needs_grad = needs_grad;
  n.backward_fn = std::move(backward_fn);
  nodes_.push_back(std::move(n));
  return Tensor{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

Tensor Tape::constant(la::Matrix value) {
  return emit(std::move(value), /*needs_grad=*/false, nullptr);
}

Tensor Tape::parameter(Parameter& param) {
  Tensor t = emit(param.value, /*needs_grad=*/true, nullptr);
  param_leaves_.emplace_back(t.index, &param);
  return t;
}

Tensor Tape::add(Tensor a, Tensor b) {
  la::Matrix out = value(a) + value(b);
  const bool needs = node(a).needs_grad || node(b).needs_grad;
  const auto ai = a.index, bi = b.index;
  return emit(std::move(out), needs, [ai, bi](Tape& tape, const Node& self) {
    if (tape.nodes_[ai].needs_grad) tape.grad_ref(ai) += self.grad;
    if (tape.nodes_[bi].needs_grad) tape.grad_ref(bi) += self.grad;
  });
}

Tensor Tape::sub(Tensor a, Tensor b) {
  la::Matrix out = value(a) - value(b);
  const bool needs = node(a).needs_grad || node(b).needs_grad;
  const auto ai = a.index, bi = b.index;
  return emit(std::move(out), needs, [ai, bi](Tape& tape, const Node& self) {
    if (tape.nodes_[ai].needs_grad) tape.grad_ref(ai) += self.grad;
    if (tape.nodes_[bi].needs_grad) tape.grad_ref(bi) -= self.grad;
  });
}

Tensor Tape::scale(Tensor a, double factor) {
  la::Matrix out = value(a) * factor;
  const bool needs = node(a).needs_grad;
  const auto ai = a.index;
  return emit(std::move(out), needs, [ai, factor](Tape& tape, const Node& self) {
    if (tape.nodes_[ai].needs_grad) tape.grad_ref(ai) += self.grad * factor;
  });
}

Tensor Tape::hadamard(Tensor a, Tensor b) {
  la::Matrix out = value(a).hadamard(value(b));
  const bool needs = node(a).needs_grad || node(b).needs_grad;
  const auto ai = a.index, bi = b.index;
  return emit(std::move(out), needs, [ai, bi](Tape& tape, const Node& self) {
    if (tape.nodes_[ai].needs_grad) {
      tape.grad_ref(ai) += self.grad.hadamard(tape.nodes_[bi].value);
    }
    if (tape.nodes_[bi].needs_grad) {
      tape.grad_ref(bi) += self.grad.hadamard(tape.nodes_[ai].value);
    }
  });
}

Tensor Tape::relu(Tensor a) {
  la::Matrix out = value(a).map([](double x) { return x > 0.0 ? x : 0.0; });
  const bool needs = node(a).needs_grad;
  const auto ai = a.index;
  return emit(std::move(out), needs, [ai](Tape& tape, const Node& self) {
    if (!tape.nodes_[ai].needs_grad) return;
    la::Matrix& g = tape.grad_ref(ai);
    const la::Matrix& x = tape.nodes_[ai].value;
    for (std::size_t i = 0; i < g.flat().size(); ++i) {
      if (x.flat()[i] > 0.0) g.flat()[i] += self.grad.flat()[i];
    }
  });
}

Tensor Tape::square(Tensor a) {
  la::Matrix out = value(a).hadamard(value(a));
  const bool needs = node(a).needs_grad;
  const auto ai = a.index;
  return emit(std::move(out), needs, [ai](Tape& tape, const Node& self) {
    if (!tape.nodes_[ai].needs_grad) return;
    la::Matrix& g = tape.grad_ref(ai);
    const la::Matrix& x = tape.nodes_[ai].value;
    for (std::size_t i = 0; i < g.flat().size(); ++i) {
      g.flat()[i] += 2.0 * x.flat()[i] * self.grad.flat()[i];
    }
  });
}

Tensor Tape::exp(Tensor a) {
  la::Matrix out = value(a).map([](double x) { return std::exp(x); });
  const bool needs = node(a).needs_grad;
  const auto ai = a.index;
  // Capture the output index: d exp(x) = exp(x) dx uses the forward value.
  return emit(std::move(out), needs, [ai](Tape& tape, const Node& self) {
    if (!tape.nodes_[ai].needs_grad) return;
    la::Matrix& g = tape.grad_ref(ai);
    for (std::size_t i = 0; i < g.flat().size(); ++i) {
      g.flat()[i] += self.value.flat()[i] * self.grad.flat()[i];
    }
  });
}

Tensor Tape::matmul(Tensor a, Tensor b) {
  la::Matrix out = value(a).matmul(value(b));
  NP_CHECK_FINITE(out.data(), out.size(), "Tape::matmul");
  const bool needs = node(a).needs_grad || node(b).needs_grad;
  const auto ai = a.index, bi = b.index;
  return emit(std::move(out), needs, [ai, bi](Tape& tape, const Node& self) {
    if (tape.nodes_[ai].needs_grad) {
      tape.grad_ref(ai) += self.grad.matmul(tape.nodes_[bi].value.transposed());
    }
    if (tape.nodes_[bi].needs_grad) {
      tape.grad_ref(bi) += tape.nodes_[ai].value.transposed().matmul(self.grad);
    }
  });
}

Tensor Tape::spmm(std::shared_ptr<const la::CsrMatrix> lhs, Tensor rhs) {
  if (lhs == nullptr) throw std::invalid_argument("Tape::spmm: null adjacency");
  la::Matrix out = lhs->multiply(value(rhs));
  NP_CHECK_FINITE(out.data(), out.size(), "Tape::spmm");
  const bool needs = node(rhs).needs_grad;
  const auto ri = rhs.index;
  return emit(std::move(out), needs, [lhs, ri](Tape& tape, const Node& self) {
    if (tape.nodes_[ri].needs_grad) {
      tape.grad_ref(ri) += lhs->multiply_transposed(self.grad);
    }
  });
}

Tensor Tape::add_row_broadcast(Tensor matrix, Tensor bias_row) {
  la::Matrix out = value(matrix).add_row_broadcast(value(bias_row));
  const bool needs = node(matrix).needs_grad || node(bias_row).needs_grad;
  const auto mi = matrix.index, bi = bias_row.index;
  return emit(std::move(out), needs, [mi, bi](Tape& tape, const Node& self) {
    if (tape.nodes_[mi].needs_grad) tape.grad_ref(mi) += self.grad;
    if (tape.nodes_[bi].needs_grad) tape.grad_ref(bi) += self.grad.sum_rows();
  });
}

Tensor Tape::mean_rows(Tensor a) {
  const la::Matrix& x = value(a);
  if (x.rows() == 0) throw std::invalid_argument("Tape::mean_rows: empty input");
  la::Matrix out = x.sum_rows() * (1.0 / static_cast<double>(x.rows()));
  const bool needs = node(a).needs_grad;
  const auto ai = a.index;
  const double inv_n = 1.0 / static_cast<double>(x.rows());
  return emit(std::move(out), needs, [ai, inv_n](Tape& tape, const Node& self) {
    if (!tape.nodes_[ai].needs_grad) return;
    la::Matrix& g = tape.grad_ref(ai);
    for (std::size_t r = 0; r < g.rows(); ++r) {
      for (std::size_t c = 0; c < g.cols(); ++c) g(r, c) += inv_n * self.grad(0, c);
    }
  });
}

Tensor Tape::flatten_to_row(Tensor a) {
  const la::Matrix& x = value(a);
  la::Matrix out(1, x.size());
  out.flat() = x.flat();
  const bool needs = node(a).needs_grad;
  const auto ai = a.index;
  return emit(std::move(out), needs, [ai](Tape& tape, const Node& self) {
    if (!tape.nodes_[ai].needs_grad) return;
    la::Matrix& g = tape.grad_ref(ai);
    for (std::size_t i = 0; i < g.flat().size(); ++i) g.flat()[i] += self.grad.flat()[i];
  });
}

Tensor Tape::sum(Tensor a) {
  la::Matrix out(1, 1, value(a).sum());
  const bool needs = node(a).needs_grad;
  const auto ai = a.index;
  return emit(std::move(out), needs, [ai](Tape& tape, const Node& self) {
    if (!tape.nodes_[ai].needs_grad) return;
    la::Matrix& g = tape.grad_ref(ai);
    const double d = self.grad(0, 0);
    for (double& v : g.flat()) v += d;
  });
}

Tensor Tape::pick(Tensor a, std::size_t r, std::size_t c) {
  const la::Matrix& x = value(a);
  if (r >= x.rows() || c >= x.cols()) throw std::out_of_range("Tape::pick");
  la::Matrix out(1, 1, x(r, c));
  const bool needs = node(a).needs_grad;
  const auto ai = a.index;
  return emit(std::move(out), needs, [ai, r, c](Tape& tape, const Node& self) {
    if (tape.nodes_[ai].needs_grad) tape.grad_ref(ai)(r, c) += self.grad(0, 0);
  });
}

Tensor Tape::masked_log_softmax(Tensor row, const std::vector<std::uint8_t>& mask) {
  const la::Matrix& x = value(row);
  if (x.rows() != 1) throw std::invalid_argument("masked_log_softmax: need a row vector");
  if (mask.size() != x.cols()) {
    throw std::invalid_argument("masked_log_softmax: mask size mismatch");
  }
  double max_valid = -1e300;
  std::size_t valid_count = 0;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) {
      max_valid = std::max(max_valid, x(0, i));
      ++valid_count;
    }
  }
  if (valid_count == 0) {
    throw std::invalid_argument("masked_log_softmax: no valid entries");
  }
  double sum_exp = 0.0;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) sum_exp += std::exp(x(0, i) - max_valid);
  }
  const double log_z = max_valid + std::log(sum_exp);
  la::Matrix out(1, x.cols(), kMaskedLogProb);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) out(0, i) = x(0, i) - log_z;
  }
  const bool needs = node(row).needs_grad;
  const auto ri = row.index;
  // Capture probabilities for the adjoint: dx_j = dy_j - p_j * sum(dy).
  std::vector<double> probs(mask.size(), 0.0);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) probs[i] = std::exp(out(0, i));
  }
  auto mask_copy = mask;
  return emit(std::move(out), needs,
              [ri, probs = std::move(probs), mask_copy = std::move(mask_copy)](
                  Tape& tape, const Node& self) {
                if (!tape.nodes_[ri].needs_grad) return;
                double grad_sum = 0.0;
                for (std::size_t i = 0; i < mask_copy.size(); ++i) {
                  if (mask_copy[i]) grad_sum += self.grad(0, i);
                }
                la::Matrix& g = tape.grad_ref(ri);
                for (std::size_t i = 0; i < mask_copy.size(); ++i) {
                  if (mask_copy[i]) g(0, i) += self.grad(0, i) - probs[i] * grad_sum;
                }
              });
}

Tensor Tape::entropy_from_log_probs(Tensor log_probs) {
  const la::Matrix& lp = value(log_probs);
  if (lp.rows() != 1) {
    throw std::invalid_argument("entropy_from_log_probs: need a row vector");
  }
  double h = 0.0;
  for (std::size_t i = 0; i < lp.cols(); ++i) {
    const double l = lp(0, i);
    if (l > kMaskedLogProb * 0.5) h -= std::exp(l) * l;
  }
  la::Matrix out(1, 1, h);
  const bool needs = node(log_probs).needs_grad;
  const auto li = log_probs.index;
  return emit(std::move(out), needs, [li](Tape& tape, const Node& self) {
    if (!tape.nodes_[li].needs_grad) return;
    const la::Matrix& lp = tape.nodes_[li].value;
    la::Matrix& g = tape.grad_ref(li);
    const double d = self.grad(0, 0);
    for (std::size_t i = 0; i < lp.cols(); ++i) {
      const double l = lp(0, i);
      if (l > kMaskedLogProb * 0.5) g(0, i) += d * (-std::exp(l) * (1.0 + l));
    }
  });
}

Tensor Tape::gat_aggregate(
    Tensor scores_src, Tensor scores_dst, Tensor features,
    std::shared_ptr<const std::vector<std::vector<int>>> neighbors,
    double leaky_slope) {
  if (neighbors == nullptr) {
    throw std::invalid_argument("gat_aggregate: null neighbor lists");
  }
  const la::Matrix& src = value(scores_src);
  const la::Matrix& dst = value(scores_dst);
  const la::Matrix& z = value(features);
  const std::size_t n = z.rows();
  if (src.rows() != n || src.cols() != 1 || dst.rows() != n || dst.cols() != 1) {
    throw std::invalid_argument("gat_aggregate: scores must be n x 1");
  }
  if (neighbors->size() != n) {
    throw std::invalid_argument("gat_aggregate: neighbor list size mismatch");
  }
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
  }

  // Forward: per-node masked softmax over LeakyReLU(src_i + dst_j).
  // Attention weights are cached for the adjoint.
  auto alphas = std::make_shared<std::vector<std::vector<double>>>(n);
  la::Matrix out(n, z.cols(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& list = (*neighbors)[i];
    std::vector<double>& alpha = (*alphas)[i];
    alpha.resize(list.size());
    double max_e = -1e300;
    for (std::size_t k = 0; k < list.size(); ++k) {
      const double pre = src(i, 0) + dst(list[k], 0);
      alpha[k] = pre > 0.0 ? pre : leaky_slope * pre;
      max_e = std::max(max_e, alpha[k]);
    }
    double total = 0.0;
    for (double& a : alpha) {
      a = std::exp(a - max_e);
      total += a;
    }
    for (std::size_t k = 0; k < list.size(); ++k) {
      alpha[k] /= total;
      const double* zrow = z.data() + static_cast<std::size_t>(list[k]) * z.cols();
      double* orow = out.data() + i * z.cols();
      for (std::size_t c = 0; c < z.cols(); ++c) orow[c] += alpha[k] * zrow[c];
    }
  }

  const bool needs = node(scores_src).needs_grad || node(scores_dst).needs_grad ||
                     node(features).needs_grad;
  const auto si = scores_src.index, di = scores_dst.index, fi = features.index;
  return emit(
      std::move(out), needs,
      [si, di, fi, neighbors, alphas, leaky_slope](Tape& tape, const Node& self) {
        const la::Matrix& src = tape.nodes_[si].value;
        const la::Matrix& dst = tape.nodes_[di].value;
        const la::Matrix& z = tape.nodes_[fi].value;
        const std::size_t n = z.rows();
        const bool need_src = tape.nodes_[si].needs_grad;
        const bool need_dst = tape.nodes_[di].needs_grad;
        const bool need_z = tape.nodes_[fi].needs_grad;
        for (std::size_t i = 0; i < n; ++i) {
          const auto& list = (*neighbors)[i];
          const auto& alpha = (*alphas)[i];
          const double* grow = self.grad.data() + i * z.cols();
          // d alpha_k = dOut_i . z_k ; softmax backward ; LeakyReLU.
          std::vector<double> dalpha(list.size());
          double weighted = 0.0;
          for (std::size_t k = 0; k < list.size(); ++k) {
            const double* zrow =
                z.data() + static_cast<std::size_t>(list[k]) * z.cols();
            double dot = 0.0;
            for (std::size_t c = 0; c < z.cols(); ++c) dot += grow[c] * zrow[c];
            dalpha[k] = dot;
            weighted += alpha[k] * dot;
            if (need_z) {
              la::Matrix& gz = tape.grad_ref(fi);
              double* gzrow =
                  gz.data() + static_cast<std::size_t>(list[k]) * z.cols();
              for (std::size_t c = 0; c < z.cols(); ++c) {
                gzrow[c] += alpha[k] * grow[c];
              }
            }
          }
          if (!need_src && !need_dst) continue;
          for (std::size_t k = 0; k < list.size(); ++k) {
            const double de = alpha[k] * (dalpha[k] - weighted);
            const double pre = src(i, 0) + dst(list[k], 0);
            const double dpre = de * (pre > 0.0 ? 1.0 : leaky_slope);
            if (need_src) tape.grad_ref(si)(i, 0) += dpre;
            if (need_dst) tape.grad_ref(di)(list[k], 0) += dpre;
          }
        }
      });
}

void Tape::propagate(Tensor root) {
  NP_SPAN("ad.backward");
  static obs::Counter& backwards = obs::counter("ad.backwards");
  backwards.add(1);
  Node& r = nodes_[root.index];
  if (r.value.rows() != 1 || r.value.cols() != 1) {
    throw std::invalid_argument("Tape::propagate: root must be 1x1");
  }
  if (!r.needs_grad) {
    throw std::invalid_argument("Tape::propagate: root does not require grad");
  }
  // Allocate gradients lazily: only nodes that need them, only now.
  for (Node& n : nodes_) {
    if (n.needs_grad) n.grad = la::Matrix(n.value.rows(), n.value.cols(), 0.0);
  }
  r.grad(0, 0) = 1.0;
  for (std::size_t i = root.index + 1; i-- > 0;) {
    Node& n = nodes_[i];
    if (n.needs_grad && n.backward_fn) n.backward_fn(*this, n);
  }
  root_ = root.index;
  propagated_ = true;
}

std::vector<Tape::LeafGrad> Tape::take_leaf_grads() {
  if (!propagated_) {
    throw std::logic_error("Tape::take_leaf_grads: no propagate() on this tape");
  }
  std::vector<LeafGrad> leaves;
  leaves.reserve(param_leaves_.size());
  for (auto& [index, param] : param_leaves_) {
    if (index <= root_) {
      NP_CHECK_FINITE(nodes_[index].grad.data(), nodes_[index].grad.size(),
                      "Tape::take_leaf_grads parameter gradient");
      leaves.push_back(LeafGrad{param, std::move(nodes_[index].grad)});
    }
  }
  propagated_ = false;
  return leaves;
}

void Tape::backward(Tensor root) {
  propagate(root);
  for (LeafGrad& leaf : take_leaf_grads()) leaf.param->grad += leaf.grad;
}

}  // namespace np::ad
