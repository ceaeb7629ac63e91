#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "la/kernels.hpp"
#include "la/matrix.hpp"
#include "la/sparse.hpp"
#include "util/rng.hpp"

namespace np::la {
namespace {

TEST(Matrix, ConstructAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
}

TEST(Matrix, InitializerList) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, IdentityAndMatmul) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix i = Matrix::identity(2);
  EXPECT_EQ(a.matmul(i), a);
  EXPECT_EQ(i.matmul(a), a);
}

TEST(Matrix, MatmulKnownValues) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix b{{7, 8}, {9, 10}, {11, 12}};
  Matrix c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, MatmulDimensionMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(a.matmul(b), std::invalid_argument);
}

TEST(Matrix, AdditionSubtractionScaling) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{4, 3}, {2, 1}};
  EXPECT_EQ(a + b, (Matrix{{5, 5}, {5, 5}}));
  EXPECT_EQ(a - b, (Matrix{{-3, -1}, {1, 3}}));
  EXPECT_EQ(a * 2.0, (Matrix{{2, 4}, {6, 8}}));
  EXPECT_EQ(-a, (Matrix{{-1, -2}, {-3, -4}}));
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(a + b, std::invalid_argument);
  EXPECT_THROW(a.hadamard(b), std::invalid_argument);
}

TEST(Matrix, Hadamard) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{2, 2}, {2, 2}};
  EXPECT_EQ(a.hadamard(b), (Matrix{{2, 4}, {6, 8}}));
}

TEST(Matrix, Transpose) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(0, 1), 4.0);
  EXPECT_EQ(t.transposed(), a);
}

TEST(Matrix, MapAppliesFunction) {
  Matrix a{{-1, 2}};
  Matrix r = a.map([](double x) { return x > 0 ? x : 0.0; });
  EXPECT_EQ(r, (Matrix{{0, 2}}));
}

TEST(Matrix, AddRowBroadcast) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix bias{{10, 20}};
  EXPECT_EQ(a.add_row_broadcast(bias), (Matrix{{11, 22}, {13, 24}}));
}

TEST(Matrix, AddRowBroadcastRejectsWrongShape) {
  Matrix a(2, 2);
  EXPECT_THROW(a.add_row_broadcast(Matrix(2, 2)), std::invalid_argument);
  EXPECT_THROW(a.add_row_broadcast(Matrix(1, 3)), std::invalid_argument);
}

TEST(Matrix, Reductions) {
  Matrix a{{1, 2}, {3, 4}};
  EXPECT_EQ(a.sum_rows(), (Matrix{{4, 6}}));
  EXPECT_EQ(a.sum_cols(), (Matrix{{3}, {7}}));
  EXPECT_DOUBLE_EQ(a.sum(), 10.0);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
}

TEST(Matrix, MeanOfEmptyThrows) {
  Matrix m;
  EXPECT_THROW(m.mean(), std::invalid_argument);
}

TEST(Matrix, NonFiniteDetection) {
  Matrix a{{1, 2}};
  EXPECT_FALSE(a.has_non_finite());
  a(0, 1) = std::nan("");
  EXPECT_TRUE(a.has_non_finite());
}

TEST(Matrix, AtBoundsChecked) {
  Matrix a(2, 2);
  EXPECT_THROW(a.at(2, 0), std::out_of_range);
  EXPECT_THROW(a.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW(a.at(1, 1));
}

TEST(Matrix, RowAndColVector) {
  Matrix r = Matrix::row_vector({1, 2, 3});
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_EQ(r.cols(), 3u);
  Matrix c = Matrix::col_vector({1, 2, 3});
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 1u);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a{{1, 2}}, b{{1.5, 2}};
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
  EXPECT_THROW(max_abs_diff(a, Matrix(2, 1)), std::invalid_argument);
}

TEST(Csr, BuildAndDensify) {
  CsrMatrix m(2, 3, {{0, 1, 2.0}, {1, 0, -1.0}, {0, 1, 3.0}});
  EXPECT_EQ(m.nnz(), 2u);  // duplicates merged
  EXPECT_DOUBLE_EQ(m.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  Matrix d = m.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 1), 5.0);
}

TEST(Csr, OutOfBoundsTripletThrows) {
  EXPECT_THROW(CsrMatrix(2, 2, {{2, 0, 1.0}}), std::invalid_argument);
}

TEST(Csr, MultiplyMatchesDense) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t r = 1 + rng.uniform_index(8);
    const std::size_t c = 1 + rng.uniform_index(8);
    const std::size_t k = 1 + rng.uniform_index(5);
    Matrix dense(r, c);
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < c; ++j) {
        dense(i, j) = rng.uniform() < 0.4 ? rng.normal() : 0.0;
      }
    }
    Matrix x(c, k);
    for (double& v : x.flat()) v = rng.normal();
    CsrMatrix sparse = CsrMatrix::from_dense(dense);
    EXPECT_LT(max_abs_diff(sparse.multiply(x), dense.matmul(x)), 1e-12);
  }
}

TEST(Csr, MultiplyTransposedMatchesDense) {
  Rng rng(37);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t r = 1 + rng.uniform_index(8);
    const std::size_t c = 1 + rng.uniform_index(8);
    const std::size_t k = 1 + rng.uniform_index(5);
    Matrix dense(r, c);
    for (double& v : dense.flat()) v = rng.uniform() < 0.4 ? rng.normal() : 0.0;
    Matrix x(r, k);
    for (double& v : x.flat()) v = rng.normal();
    CsrMatrix sparse = CsrMatrix::from_dense(dense);
    EXPECT_LT(max_abs_diff(sparse.multiply_transposed(x),
                           dense.transposed().matmul(x)),
              1e-12);
  }
}

TEST(Csr, DimensionMismatchThrows) {
  CsrMatrix m(2, 3, {});
  EXPECT_THROW(m.multiply(Matrix(2, 2)), std::invalid_argument);
  EXPECT_THROW(m.multiply_transposed(Matrix(3, 2)), std::invalid_argument);
}

TEST(Matrix, MatmulTiledMatchesNaiveReference) {
  // Matrix::matmul is kernels::matmul; long reductions and wide outputs
  // must agree with a plain triple loop bit-for-bit (k-ascending sums).
  Rng rng(21);
  const std::size_t shapes[][3] = {
      {3, 5, 4}, {70, 150, 200}, {64, 64, 128}, {65, 65, 129}, {1, 200, 1}};
  for (const auto& s : shapes) {
    Matrix a(s[0], s[1]), b(s[1], s[2]);
    for (double& v : a.flat()) v = rng.normal();
    for (double& v : b.flat()) v = rng.normal();
    // some exact zeros: the old kernel skipped them, the new one must not
    // change results without the skip either
    a(0, 0) = 0.0;
    Matrix naive(s[0], s[2], 0.0);
    for (std::size_t i = 0; i < s[0]; ++i) {
      for (std::size_t j = 0; j < s[2]; ++j) {
        double acc = 0.0;
        for (std::size_t k = 0; k < s[1]; ++k) acc += a(i, k) * b(k, j);
        naive(i, j) = acc;
      }
    }
    EXPECT_EQ(a.matmul(b), naive) << s[0] << "x" << s[1] << "x" << s[2];
  }
}

// ---- kernels::matmul / accumulate_at_b / accumulate_a_bt vs naive loops ----

/// Normal entries with exact -0.0s and +0.0s and large-magnitude
/// (~1e100) entries mixed in, so a kernel that drops the leading 0.0 +,
/// reorders a sum or contracts a multiply-add shows up under memcmp.
std::vector<double> awkward_values(std::size_t count, Rng& rng) {
  std::vector<double> v(count);
  for (double& x : v) {
    const double u = rng.uniform();
    x = u < 0.1 ? -0.0 : u < 0.15 ? 0.0 : u < 0.25 ? rng.normal() * 1e100 : rng.normal();
  }
  return v;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Dimensions straddling the 4-row block, the 4-column strip and the old
// 64/128 cache tiles.
constexpr std::size_t kDims[] = {1, 3, 4, 5, 8, 9, 13, 65, 129};

TEST(Kernels, MatmulMatchesNaiveAscendingLoop) {
  Rng rng(31);
  for (std::size_t n : kDims) {
    for (std::size_t k : kDims) {
      for (std::size_t m : kDims) {
        const std::vector<double> a = awkward_values(n * k, rng);
        const std::vector<double> b = awkward_values(k * m, rng);
        std::vector<double> want(n * m);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < m; ++j) {
            double sum = 0.0;
            for (std::size_t l = 0; l < k; ++l) sum += a[i * k + l] * b[l * m + j];
            want[i * m + j] = sum;
          }
        }
        std::vector<double> got(n * m, 7.0);
        kernels::matmul(a.data(), n, k, b.data(), m, got.data());
        ASSERT_TRUE(same_bits(got, want)) << n << "x" << k << "x" << m;
      }
    }
  }
}

TEST(Kernels, AccumulateAtBMatchesNaiveThenAdd) {
  // grad (k x m) += aᵀ (k x n) @ g (n x m): the product summed over
  // ascending n into a zeroed temporary, then added into grad once.
  Rng rng(32);
  for (std::size_t n : kDims) {
    for (std::size_t k : kDims) {
      for (std::size_t m : kDims) {
        const std::vector<double> a = awkward_values(n * k, rng);
        const std::vector<double> g = awkward_values(n * m, rng);
        std::vector<double> want = awkward_values(k * m, rng);
        std::vector<double> got = want;
        for (std::size_t i = 0; i < k; ++i) {
          for (std::size_t j = 0; j < m; ++j) {
            double sum = 0.0;
            for (std::size_t l = 0; l < n; ++l) sum += a[l * k + i] * g[l * m + j];
            want[i * m + j] += sum;
          }
        }
        kernels::accumulate_at_b(a.data(), n, k, g.data(), m, got.data());
        ASSERT_TRUE(same_bits(got, want)) << n << "x" << k << "x" << m;
      }
    }
  }
}

TEST(Kernels, AccumulateABtMatchesNaiveThenAdd) {
  // grad (n x k) += g (n x m) @ bᵀ (m x k): summed over ascending m,
  // then added into grad once.
  Rng rng(33);
  for (std::size_t n : kDims) {
    for (std::size_t k : kDims) {
      for (std::size_t m : kDims) {
        const std::vector<double> g = awkward_values(n * m, rng);
        const std::vector<double> b = awkward_values(k * m, rng);
        std::vector<double> want = awkward_values(n * k, rng);
        std::vector<double> got = want;
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < k; ++j) {
            double sum = 0.0;
            for (std::size_t l = 0; l < m; ++l) sum += g[i * m + l] * b[j * m + l];
            want[i * k + j] += sum;
          }
        }
        std::vector<double> panel(4 * m);
        kernels::accumulate_a_bt(g.data(), n, m, b.data(), k, got.data(), panel.data());
        ASSERT_TRUE(same_bits(got, want)) << n << "x" << k << "x" << m;
      }
    }
  }
}

TEST(Kernels, SignOfZeroFollowsTheLeadingZeroPlus) {
  // Every product is -0.0 * +0.0 = -0.0, so each sum is
  // 0.0 + (-0.0) + ... = +0.0, and adding it into a -0.0 gradient entry
  // gives +0.0 as well. 13 output columns reach the 8- and 4-column
  // strips and the scalar remainder of every kernel.
  constexpr std::size_t n = 5, d = 13;
  const std::vector<double> neg_nd(n * d, -0.0);
  const std::vector<double> pos_nd(n * d, 0.0);
  const std::vector<double> pos_dd(d * d, 0.0);
  const auto all_positive_zero = [](const std::vector<double>& v) {
    for (double x : v) {
      if (x != 0.0 || std::signbit(x)) return false;
    }
    return true;
  };
  std::vector<double> out(n * d, -1.0);
  kernels::matmul(neg_nd.data(), n, d, pos_dd.data(), d, out.data());
  EXPECT_TRUE(all_positive_zero(out));
  std::vector<double> grad_w(d * d, -0.0);  // += aᵀ (d x n) @ g (n x d)
  kernels::accumulate_at_b(neg_nd.data(), n, d, pos_nd.data(), d, grad_w.data());
  EXPECT_TRUE(all_positive_zero(grad_w));
  std::vector<double> grad_x(n * d, -0.0);  // += g (n x d) @ bᵀ (d x d)
  std::vector<double> panel(4 * d);
  kernels::accumulate_a_bt(neg_nd.data(), n, d, pos_dd.data(), d, grad_x.data(),
                           panel.data());
  EXPECT_TRUE(all_positive_zero(grad_x));
}

}  // namespace
}  // namespace np::la
