// Inference kernels: raw-pointer, allocation-free building blocks for
// the tape-free forward path (nn::InferenceEngine).
//
// Every kernel accumulates each output element over its reduction
// dimension in strictly ascending order — the same order la::Matrix
// and ad::Tape use — so a fast-path forward is BIT-IDENTICAL to the
// tape forward it replaces (the determinism suite relies on this; see
// docs/INTERNALS.md §8). Speed comes from register blocking (4 output
// rows share every B-panel load), cache tiling of the k/j loops,
// row-chunked CSR SpMM, and fused bias+activation epilogues — not from
// reassociating sums.
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
/// be initialized. Bit-identical to la::Matrix::matmul.
void matmul(const double* a, std::size_t n, std::size_t k, const double* b,
            std::size_t m, double* out);

/// Fused linear layer: out = act(a @ b + bias), with `bias` a length-m
/// row (nullptr = no bias). The epilogue applies bias then activation
/// elementwise, matching tape add_row_broadcast + relu bitwise.
void matmul_bias_act(const double* a, std::size_t n, std::size_t k,
                     const double* b, std::size_t m, const double* bias,
                     Activation act, double* out);

/// out (rows x cols) = A (rows x ?) @ x, row-chunked CSR SpMM.
/// Bit-identical to CsrMatrix::multiply (per-row nnz order ascending).
void spmm(const CsrMatrix& a, const double* x, std::size_t cols, double* out);

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
