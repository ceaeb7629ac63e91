#include "nn/inference.hpp"

#include <algorithm>
#include <stdexcept>

#include "la/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace np::nn {

namespace {
// Matches the default of Tape::gat_aggregate (GatEncoder passes it
// implicitly); a mismatch here would silently break bit-identity.
constexpr double kLeakySlope = 0.2;

std::size_t max_row_nnz(const la::CsrMatrix& a) {
  const auto& offsets = a.row_offsets();
  std::size_t best = 0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    best = std::max(best, offsets[r + 1] - offsets[r]);
  }
  return best;
}
}  // namespace

InferenceEngine::InferenceEngine(ActorCritic& network)
    : network_(&network), config_(network.config()) {
  refresh();
}

const double* InferenceEngine::pack(const la::Matrix& m) {
  double* dst = params_.alloc_doubles(m.size());
  std::copy(m.data(), m.data() + m.size(), dst);
  return dst;
}

InferenceEngine::Lin InferenceEngine::pack_linear(const ad::Parameter& weight,
                                                  const ad::Parameter& bias) {
  NP_ASSERT(bias.value.rows() == 1 && bias.value.cols() == weight.value.cols(),
            "InferenceEngine: bias shape mismatch for ", weight.name);
  Lin lin;
  lin.in = weight.value.rows();
  lin.out = weight.value.cols();
  lin.w = pack(weight.value);
  lin.b = pack(bias.value);
  return lin;
}

void InferenceEngine::refresh() {
  static obs::Counter& refreshes = obs::counter("nn.infer.refreshes");
  refreshes.add(1);
  params_.reset();
  gcn_.clear();
  gat_.clear();
  actor_.clear();
  critic_.clear();

  const std::vector<ad::Parameter*> gnn = network_->gnn_parameters();
  if (config_.gnn_type == GnnType::kGcn) {
    NP_ASSERT(gnn.size() % 2 == 0, "InferenceEngine: odd GCN parameter count");
    for (std::size_t i = 0; i < gnn.size(); i += 2) {
      gcn_.push_back(pack_linear(*gnn[i], *gnn[i + 1]));
    }
  } else {
    NP_ASSERT(gnn.size() % 4 == 0, "InferenceEngine: bad GAT parameter count");
    for (std::size_t i = 0; i < gnn.size(); i += 4) {
      GatLayer layer;
      layer.proj = pack_linear(*gnn[i], *gnn[i + 1]);
      layer.a_src = pack(gnn[i + 2]->value);
      layer.a_dst = pack(gnn[i + 3]->value);
      gat_.push_back(layer);
    }
  }
  const std::vector<ad::Parameter*> actor = network_->actor_parameters();
  NP_ASSERT(actor.size() % 2 == 0, "InferenceEngine: odd actor parameter count");
  for (std::size_t i = 0; i < actor.size(); i += 2) {
    actor_.push_back(pack_linear(*actor[i], *actor[i + 1]));
  }
  const std::vector<ad::Parameter*> critic = network_->critic_parameters();
  NP_ASSERT(critic.size() % 2 == 0,
            "InferenceEngine: odd critic parameter count");
  for (std::size_t i = 0; i < critic.size(); i += 2) {
    critic_.push_back(pack_linear(*critic[i], *critic[i + 1]));
  }
  // The heads' input width is the encoder's output dimension (identity
  // encoders pass features through untouched).
  encoder_dim_ = actor_.front().in;
}

void InferenceEngine::validate(const GraphInput* graphs, std::size_t count,
                               bool want_policy) const {
  if (count == 0) {
    throw std::invalid_argument("InferenceEngine: empty batch");
  }
  const std::size_t m = static_cast<std::size_t>(config_.max_units_per_step);
  for (std::size_t g = 0; g < count; ++g) {
    const GraphInput& in = graphs[g];
    if (in.adjacency == nullptr || in.features == nullptr) {
      throw std::invalid_argument("InferenceEngine: null graph input");
    }
    NP_CHECK_DIMS(in.features->rows(), in.features->cols(), -1,
                  config_.feature_dim, "InferenceEngine::validate");
    if (in.adjacency->rows() != in.features->rows()) {
      throw std::invalid_argument(
          "InferenceEngine: adjacency/feature row mismatch");
    }
    if (want_policy) {
      if (in.action_mask == nullptr ||
          in.action_mask->size() != in.features->rows() * m) {
        throw std::invalid_argument("InferenceEngine: bad action mask");
      }
    }
  }
}

const double* InferenceEngine::encode(const GraphInput* graphs,
                                      const la::RaggedLayout& layout) {
  namespace k = la::kernels;
  const std::size_t total = layout.total_rows();
  const std::size_t blocks = layout.blocks();
  std::size_t width = static_cast<std::size_t>(config_.feature_dim);

  if (config_.gnn_type == GnnType::kGcn && !gcn_.empty()) {
    // Pad-free stacked GCN: per-block SpMM against each graph's own
    // adjacency (bit-identical to block-diagonal SpMM), then one dense
    // fused projection over the whole stack. Layer 0 reads features
    // straight from the per-graph matrices — no stacking copy.
    const double* h = nullptr;
    for (std::size_t l = 0; l < gcn_.size(); ++l) {
      const Lin& lin = gcn_[l];
      double* propagated = arena_.alloc_doubles(total * width);
      for (std::size_t b = 0; b < blocks; ++b) {
        const double* src = (l == 0) ? graphs[b].features->data()
                                     : h + layout.offset(b) * width;
        k::spmm(*graphs[b].adjacency, src, width,
                propagated + layout.offset(b) * width);
      }
      double* next = arena_.alloc_doubles(total * lin.out);
      k::matmul_bias_act(propagated, total, width, lin.w, lin.out, lin.b,
                         k::Activation::kRelu, next);
      h = next;
      width = lin.out;
    }
    return h;
  }

  // GAT (and the zero-layer identity encoder) operate on a stacked
  // feature matrix.
  double* h = arena_.alloc_doubles(total * width);
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* src = graphs[b].features->data();
    std::copy(src, src + layout.rows(b) * width,
              h + layout.offset(b) * width);
  }
  if (gat_.empty()) return h;

  std::size_t scratch_len = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    scratch_len = std::max(scratch_len, max_row_nnz(*graphs[b].adjacency));
  }
  double* scratch = arena_.alloc_doubles(scratch_len);
  for (const GatLayer& layer : gat_) {
    const std::size_t hidden = layer.proj.out;
    double* z = arena_.alloc_doubles(total * hidden);
    k::matmul_bias_act(h, total, width, layer.proj.w, hidden, layer.proj.b,
                       k::Activation::kNone, z);
    double* src = arena_.alloc_doubles(total);
    double* dst = arena_.alloc_doubles(total);
    k::matmul(z, total, hidden, layer.a_src, 1, src);
    k::matmul(z, total, hidden, layer.a_dst, 1, dst);
    double* aggregated = arena_.alloc_doubles(total * hidden);
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t off = layout.offset(b);
      k::gat_aggregate(*graphs[b].adjacency, src + off, dst + off,
                       z + off * hidden, hidden, kLeakySlope, scratch,
                       aggregated + off * hidden);
    }
    k::bias_relu(aggregated, total, hidden, nullptr, k::Activation::kRelu);
    h = aggregated;
    width = hidden;
  }
  return h;
}

const double* InferenceEngine::run_mlp(const std::vector<Lin>& head,
                                       const double* x, std::size_t rows) {
  namespace k = la::kernels;
  for (std::size_t i = 0; i < head.size(); ++i) {
    const Lin& lin = head[i];
    const k::Activation act =
        (i + 1 < head.size()) ? k::Activation::kRelu : k::Activation::kNone;
    double* y = arena_.alloc_doubles(rows * lin.out);
    k::matmul_bias_act(x, rows, lin.in, lin.w, lin.out, lin.b, act, y);
    x = y;
  }
  return x;
}

void InferenceEngine::run(const GraphInput* graphs, std::size_t count,
                          bool want_policy, bool want_values) {
  namespace k = la::kernels;
  static obs::Gauge& arena_bytes = obs::gauge("nn.infer.arena_bytes");
  validate(graphs, count, want_policy);
  arena_.reset();
  out_.log_probs.clear();
  out_.action_dims.clear();
  out_.values.clear();

  block_rows_.clear();
  for (std::size_t g = 0; g < count; ++g) {
    block_rows_.push_back(graphs[g].features->rows());
  }
  layout_.assign(block_rows_.data(), count);
  const std::size_t total = layout_.total_rows();

  const double* embedding = encode(graphs, layout_);

  if (want_policy) {
    const std::size_t m = static_cast<std::size_t>(config_.max_units_per_step);
    // Stacked actor head: one fused pass over all nodes of all graphs.
    // Graph b's logits are its rows of the stack, which flatten to the
    // contiguous range [offset(b)*m, (offset(b)+rows(b))*m).
    const double* logits = run_mlp(actor_, embedding, total);
    for (std::size_t b = 0; b < count; ++b) {
      const std::size_t dim = layout_.rows(b) * m;
      double* lp = arena_.alloc_doubles(dim);
      k::masked_log_softmax(logits + layout_.offset(b) * m,
                            graphs[b].action_mask->data(), dim, lp);
      out_.log_probs.push_back(lp);
      out_.action_dims.push_back(dim);
    }
  }
  if (want_values) {
    double* pooled = arena_.alloc_doubles(count * encoder_dim_);
    for (std::size_t b = 0; b < count; ++b) {
      k::mean_rows(embedding + layout_.offset(b) * encoder_dim_,
                   layout_.rows(b), encoder_dim_, pooled + b * encoder_dim_);
    }
    const double* values = run_mlp(critic_, pooled, count);
    for (std::size_t b = 0; b < count; ++b) {
      out_.values.push_back(values[b]);
    }
  }
  arena_bytes.set(static_cast<double>(arena_.high_water_bytes()));
}

InferenceEngine::Output InferenceEngine::forward(
    const la::CsrMatrix& adjacency, const la::Matrix& features,
    const std::vector<std::uint8_t>& action_mask, bool want_value) {
  NP_SPAN("nn.infer.forward");
  static obs::Counter& forwards = obs::counter("nn.infer.forwards");
  forwards.add(1);
  GraphInput input{&adjacency, &features, &action_mask};
  run(&input, 1, /*want_policy=*/true, want_value);
  Output output;
  output.log_probs = out_.log_probs[0];
  output.action_dim = out_.action_dims[0];
  output.value = want_value ? out_.values[0] : 0.0;
  return output;
}

double InferenceEngine::value(const la::CsrMatrix& adjacency,
                              const la::Matrix& features) {
  NP_SPAN("nn.infer.forward");
  static obs::Counter& forwards = obs::counter("nn.infer.forwards");
  forwards.add(1);
  GraphInput input{&adjacency, &features, nullptr};
  run(&input, 1, /*want_policy=*/false, /*want_values=*/true);
  return out_.values[0];
}

const InferenceEngine::BatchOutput& InferenceEngine::forward_ragged(
    const GraphInput* graphs, std::size_t count, bool want_values) {
  NP_SPAN("nn.infer.batch");
  static obs::Counter& forwards = obs::counter("nn.infer.batch_forwards");
  forwards.add(1);
  run(graphs, count, /*want_policy=*/true, want_values);
  return out_;
}

}  // namespace np::nn
