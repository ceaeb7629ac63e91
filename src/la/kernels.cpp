#include "la/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/check.hpp"

namespace np::la::kernels {

namespace {

// Register tiling: each micro-kernel call owns a block of up to 4 output
// rows x one 4-column strip and keeps its running sums in registers (two
// 2-lane vectors per row, SSE2 on x86-64) for the whole reduction, so
// `out` is touched once per block instead of once per k. The vectors run
// across output COLUMNS only: every lane is its own output element with
// its own ascending-k chain, never a partial sum of one element, so the
// vectors change no rounding. (The library builds with -ffp-contract=off,
// so the multiply and the add stay two roundings even where FMA is
// available.) The last m % 4 columns run in a scalar loop with the same
// per-element order; the kernel tests reach both.
constexpr std::size_t kRowBlock = 4;

using V2 = double __attribute__((vector_size(16)));
constexpr std::size_t kLanes = sizeof(V2) / sizeof(double);
constexpr std::size_t kStrip = 2 * kLanes;

/// The strided operand walk shared by all three products: the reduction
/// term l of output (r, c) is a[r * a_rs + l * a_ls] * b[l * b_ls + c].
struct Operands {
  const double* a;
  std::size_t a_rs;  ///< stride between output rows in `a`
  std::size_t a_ls;  ///< stride between reduction steps in `a`
  const double* b;
  std::size_t b_ls;  ///< stride between reduction steps in `b` (columns contiguous)
};

/// Rows x kStrip block: out[r][c] = 0.0 + sum over l ascending, then
/// stored, or added into out once complete (Accumulate). Only the first
/// `cols` columns are written; b must hold kStrip readable columns per
/// step.
template <int Rows, bool Accumulate>
[[gnu::always_inline]] inline void micro_kernel(const Operands& o, std::size_t inner,
                                                double* out, std::size_t ldo,
                                                std::size_t cols) {
  V2 acc[Rows][2];
#pragma GCC unroll 4
  for (int r = 0; r < Rows; ++r) acc[r][0] = acc[r][1] = V2{};  // +0.0 lanes
  const double* a = o.a;
  const double* b = o.b;
  for (std::size_t l = 0; l < inner; ++l, a += o.a_ls, b += o.b_ls) {
    V2 b0, b1;
    std::memcpy(&b0, b, sizeof b0);
    std::memcpy(&b1, b + kLanes, sizeof b1);
#pragma GCC unroll 4
    for (int r = 0; r < Rows; ++r) {
      const double s = a[static_cast<std::size_t>(r) * o.a_rs];
      const V2 av = {s, s};
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
  }
  for (int r = 0; r < Rows; ++r) {
    double* orow = out + static_cast<std::size_t>(r) * ldo;
    if (cols == kStrip) {
      for (int h = 0; h < 2; ++h) {
        V2 v = acc[r][h];
        if constexpr (Accumulate) {
          V2 prior;
          std::memcpy(&prior, orow + h * kLanes, sizeof prior);
          v = prior + v;
        }
        std::memcpy(orow + h * kLanes, &v, sizeof v);
      }
      continue;
    }
    double sums[kStrip];
    std::memcpy(sums, &acc[r][0], sizeof acc[r][0]);
    std::memcpy(sums + kLanes, &acc[r][1], sizeof acc[r][1]);
    for (std::size_t c = 0; c < cols; ++c) {
      if constexpr (Accumulate) {
        orow[c] += sums[c];
      } else {
        orow[c] = sums[c];
      }
    }
  }
}

/// All row blocks of one column strip; `o.a`/`o.b` point at the strip's
/// first row/column.
template <bool Accumulate>
void strip(Operands o, std::size_t n, std::size_t inner, double* out, std::size_t ldo,
           std::size_t cols) {
  std::size_t i = 0;
  for (; i + kRowBlock <= n; i += kRowBlock) {
    micro_kernel<4, Accumulate>(o, inner, out + i * ldo, ldo, cols);
    o.a += kRowBlock * o.a_rs;
  }
  switch (n - i) {
    case 3: micro_kernel<3, Accumulate>(o, inner, out + i * ldo, ldo, cols); break;
    case 2: micro_kernel<2, Accumulate>(o, inner, out + i * ldo, ldo, cols); break;
    case 1: micro_kernel<1, Accumulate>(o, inner, out + i * ldo, ldo, cols); break;
    default: break;
  }
}

/// out (n x m, row stride m) over operands whose b columns are contiguous
/// with m of them per reduction step: 4-wide strips, then the last m % 4
/// columns in a scalar loop with the same per-element order (a vector
/// strip would read past b's rows).
template <bool Accumulate>
void product(const Operands& o, std::size_t n, std::size_t inner, std::size_t m,
             double* out) {
  std::size_t j = 0;
  for (; j + kStrip <= m; j += kStrip) {
    strip<Accumulate>(Operands{o.a, o.a_rs, o.a_ls, o.b + j, o.b_ls}, n, inner, out + j,
                      m, kStrip);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = j; c < m; ++c) {
      double sum = 0.0;
      for (std::size_t l = 0; l < inner; ++l) {
        sum += o.a[i * o.a_rs + l * o.a_ls] * o.b[l * o.b_ls + c];
      }
      if constexpr (Accumulate) {
        out[i * m + c] += sum;
      } else {
        out[i * m + c] = sum;
      }
    }
  }
}

}  // namespace

void matmul(const double* a, std::size_t n, std::size_t k, const double* b,
            std::size_t m, double* out) {
  product<false>(Operands{a, k, 1, b, m}, n, k, m, out);
}

void accumulate_at_b(const double* a, std::size_t n, std::size_t k, const double* g,
                     std::size_t m, double* grad) {
  // Output row i is column i of `a`: successive rows are adjacent in
  // memory, successive reduction steps are a's rows.
  product<true>(Operands{a, 1, k, g, m}, k, n, m, grad);
}

void accumulate_a_bt(const double* g, std::size_t n, std::size_t m, const double* b,
                     std::size_t k, double* grad, double* panel) {
  // Output column j is row j of b, m apart in memory: each strip's b
  // rows are packed step-major into `panel`, zero-padded past k, so the
  // micro-kernel reads them contiguously; the last strip may be narrower.
  for (std::size_t j = 0; j < k; j += kStrip) {
    const std::size_t cols = std::min(kStrip, k - j);
    for (std::size_t l = 0; l < m; ++l) {
      for (std::size_t c = 0; c < kStrip; ++c) {
        panel[l * kStrip + c] = c < cols ? b[(j + c) * m + l] : 0.0;
      }
    }
    strip<true>(Operands{g, m, 1, panel, kStrip}, n, m, grad + j, k, cols);
  }
}

void bias_relu(double* x, std::size_t n, std::size_t m, const double* bias,
               Activation act) {
  for (std::size_t i = 0; i < n; ++i) {
    double* row = x + i * m;
    if (bias != nullptr) {
      for (std::size_t j = 0; j < m; ++j) row[j] += bias[j];
    }
    if (act == Activation::kRelu) {
      for (std::size_t j = 0; j < m; ++j) row[j] = row[j] > 0.0 ? row[j] : 0.0;
    }
  }
}

void matmul_bias_act(const double* a, std::size_t n, std::size_t k,
                     const double* b, std::size_t m, const double* bias,
                     Activation act, double* out) {
  matmul(a, n, k, b, m, out);
  bias_relu(out, n, m, bias, act);
  NP_CHECK_FINITE(out, n * m, "kernels::matmul_bias_act");
}

void spmm(const CsrMatrix& a, const double* x, std::size_t cols, double* out) {
  const std::size_t rows = a.rows();
  const std::size_t* offsets = a.row_offsets().data();
  const std::size_t* indices = a.col_indices().data();
  const double* values = a.values().data();
  // Row-chunked: bounded batches of output rows keep the touched panel
  // of x warm across nearby rows (adjacency rows index overlapping
  // neighborhoods). Per-row nnz order is ascending, matching
  // CsrMatrix::multiply bitwise.
  constexpr std::size_t kRowChunk = 64;
  for (std::size_t r0 = 0; r0 < rows; r0 += kRowChunk) {
    const std::size_t r1 = std::min(rows, r0 + kRowChunk);
    for (std::size_t r = r0; r < r1; ++r) {
      double* orow = out + r * cols;
      std::fill(orow, orow + cols, 0.0);
      for (std::size_t e = offsets[r]; e < offsets[r + 1]; ++e) {
        const double v = values[e];
        const double* xrow = x + indices[e] * cols;
        for (std::size_t j = 0; j < cols; ++j) orow[j] += v * xrow[j];
      }
    }
  }
  NP_CHECK_FINITE(out, rows * cols, "kernels::spmm");
}

void spmm_transposed(const CsrMatrix& a, const double* x, std::size_t cols,
                     double* out) {
  const std::size_t rows = a.rows();
  const std::size_t* offsets = a.row_offsets().data();
  const std::size_t* indices = a.col_indices().data();
  const double* values = a.values().data();
  std::fill(out, out + a.cols() * cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* xrow = x + r * cols;
    for (std::size_t e = offsets[r]; e < offsets[r + 1]; ++e) {
      const double v = values[e];
      double* orow = out + indices[e] * cols;
      for (std::size_t j = 0; j < cols; ++j) orow[j] += v * xrow[j];
    }
  }
  NP_CHECK_FINITE(out, a.cols() * cols, "kernels::spmm_transposed");
}

void mean_rows(const double* x, std::size_t n, std::size_t c, double* out) {
  std::fill(out, out + c, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const double* xrow = x + r * c;
    for (std::size_t j = 0; j < c; ++j) out[j] += xrow[j];
  }
  const double inv = 1.0 / static_cast<double>(n);
  for (std::size_t j = 0; j < c; ++j) out[j] *= inv;
}

void masked_log_softmax(const double* logits, const std::uint8_t* mask,
                        std::size_t k, double* out) {
  constexpr double kMaskedLogProb = -1e30;  // matches ad::Tape
  double max_valid = -1e300;
  std::size_t valid_count = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (mask[i]) {
      max_valid = std::max(max_valid, logits[i]);
      ++valid_count;
    }
  }
  if (valid_count == 0) {
    throw std::invalid_argument("kernels::masked_log_softmax: no valid entries");
  }
  double sum_exp = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    if (mask[i]) sum_exp += std::exp(logits[i] - max_valid);
  }
  const double log_z = max_valid + std::log(sum_exp);
  for (std::size_t i = 0; i < k; ++i) {
    out[i] = mask[i] ? logits[i] - log_z : kMaskedLogProb;
  }
}

void gat_aggregate(const CsrMatrix& adjacency, const double* src,
                   const double* dst, const double* z, std::size_t cols,
                   double leaky_slope, double* scratch, double* out) {
  const std::size_t n = adjacency.rows();
  const std::size_t* offsets = adjacency.row_offsets().data();
  const std::size_t* indices = adjacency.col_indices().data();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t begin = offsets[i], end = offsets[i + 1];
    const std::size_t deg = end - begin;
    if (deg == 0) {
      throw std::invalid_argument(
          "kernels::gat_aggregate: node without neighbors (self loops required)");
    }
    double max_e = -1e300;
    for (std::size_t e = 0; e < deg; ++e) {
      const double pre = src[i] + dst[indices[begin + e]];
      scratch[e] = pre > 0.0 ? pre : leaky_slope * pre;
      max_e = std::max(max_e, scratch[e]);
    }
    double total = 0.0;
    for (std::size_t e = 0; e < deg; ++e) {
      scratch[e] = std::exp(scratch[e] - max_e);
      total += scratch[e];
    }
    double* orow = out + i * cols;
    std::fill(orow, orow + cols, 0.0);
    for (std::size_t e = 0; e < deg; ++e) {
      const double alpha = scratch[e] / total;
      const double* zrow = z + indices[begin + e] * cols;
      for (std::size_t j = 0; j < cols; ++j) orow[j] += alpha * zrow[j];
    }
  }
  NP_CHECK_FINITE(out, n * cols, "kernels::gat_aggregate");
}

}  // namespace np::la::kernels
