// Dense and sparse kernels: raw-pointer, allocation-free building
// blocks for the tape (ad::Tape forward and backward) and the tape-free
// forward path (nn::InferenceEngine). la::Matrix::matmul is matmul().
//
// Ordering rule: every output element is 0.0 plus its reduction terms
// added one at a time in strictly ascending reduction index, and an
// accumulating kernel adds that finished sum into its target exactly
// once. That is the order of a naive i-k-j triple loop into a zeroed
// temporary followed by `target += temporary`, so the tape, the
// inference engine and any naive reference agree BITWISE (the
// determinism suite relies on this; see docs/INTERNALS.md §4 and §8).
// Speed comes from register tiling (a 4-row block of a 4-column strip
// stays in registers for its whole reduction; vector lanes span output
// columns, never one element's partial sums), row-chunked CSR SpMM and
// fused bias+activation epilogues — not from reassociating sums.
//
// All outputs are caller-allocated (typically from an la::Arena);
// kernels never touch the heap.
#pragma once

#include <cstddef>
#include <cstdint>

#include "la/sparse.hpp"

namespace np::la::kernels {

enum class Activation { kNone, kRelu };

/// out (n x m) = a (n x k) @ b (k x m), all row-major. `out` need not
/// be initialized and must not overlap the operands.
void matmul(const double* a, std::size_t n, std::size_t k, const double* b,
            std::size_t m, double* out);

/// grad (k x m) += aᵀ @ g, with a (n x k) and g (n x m) read in place
/// (the weight gradient of out = a @ w). Each aᵀ @ g element is summed
/// over ascending n, then added into grad once.
void accumulate_at_b(const double* a, std::size_t n, std::size_t k, const double* g,
                     std::size_t m, double* grad);

/// grad (n x k) += g @ bᵀ, with g (n x m) and b (k x m) read in place
/// (the input gradient of out = x @ b). Each g @ bᵀ element is summed
/// over ascending m, then added into grad once. `panel` is scratch for
/// at least 4 * m doubles.
void accumulate_a_bt(const double* g, std::size_t n, std::size_t m, const double* b,
                     std::size_t k, double* grad, double* panel);

/// Fused linear layer: out = act(a @ b + bias), with `bias` a length-m
/// row (nullptr = no bias). The epilogue applies bias then activation
/// elementwise, matching tape add_row_broadcast + relu bitwise.
void matmul_bias_act(const double* a, std::size_t n, std::size_t k,
                     const double* b, std::size_t m, const double* bias,
                     Activation act, double* out);

/// out (a.rows() x cols) = a @ x, row-chunked CSR SpMM (per-row nnz
/// order ascending). CsrMatrix::multiply is this kernel.
void spmm(const CsrMatrix& a, const double* x, std::size_t cols, double* out);

/// out (a.cols() x cols) = aᵀ @ x without materializing aᵀ: rows of a
/// in ascending order scatter into out. CsrMatrix::multiply_transposed
/// is this kernel.
void spmm_transposed(const CsrMatrix& a, const double* x, std::size_t cols,
                     double* out);

/// Elementwise max(x + bias, 0) over `n` rows of width `m` (the GCN
/// layer epilogue when the product came from spmm-then-matmul).
void bias_relu(double* x, std::size_t n, std::size_t m, const double* bias,
               Activation act);

/// out (1 x c) = column means of x (n x c), sum-ascending-then-scale —
/// bit-identical to Tape::mean_rows.
void mean_rows(const double* x, std::size_t n, std::size_t c, double* out);

/// Masked log-softmax over a length-k row: invalid entries get -1e30,
/// valid entries x[i] - log(sum exp). Bit-identical to
/// Tape::masked_log_softmax. Throws std::invalid_argument when no
/// entry is valid.
void masked_log_softmax(const double* logits, const std::uint8_t* mask,
                        std::size_t k, double* out);

/// Single-head GAT aggregation over the CSR adjacency pattern
/// (neighbor order = ascending column index, exactly the order
/// GatEncoder::neighbor_lists produces): for each node i,
///   out_i = sum_j softmax_j(LeakyReLU(src_i + dst_j)) * z_j.
/// `scratch` must hold at least max-row-nnz doubles (attention weights
/// for one node). Bit-identical to Tape::gat_aggregate's forward.
void gat_aggregate(const CsrMatrix& adjacency, const double* src,
                   const double* dst, const double* z, std::size_t cols,
                   double leaky_slope, double* scratch, double* out);

}  // namespace np::la::kernels
