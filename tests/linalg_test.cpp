#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "linalg/decompositions.hpp"
#include "linalg/matrix.hpp"

namespace glimpse::linalg {
namespace {

TEST(MatrixTest, InitializerListAndAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), CheckError);
}

TEST(MatrixTest, IdentityAndTranspose) {
  Matrix i = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, FromRowsChecksRaggedness) {
  EXPECT_THROW(Matrix::from_rows({{1.0, 2.0}, {3.0}}), CheckError);
  Matrix m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(MatrixTest, ArithmeticOperators) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{10.0, 20.0}, {30.0, 40.0}};
  Matrix c = a + b;
  EXPECT_DOUBLE_EQ(c(1, 1), 44.0);
  Matrix d = b - a;
  EXPECT_DOUBLE_EQ(d(0, 0), 9.0);
  Matrix e = a * 2.0;
  EXPECT_DOUBLE_EQ(e(0, 1), 4.0);
}

TEST(MatrixTest, MatmulAgainstHandComputed) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MatmulNonSquareShapes) {
  // 2x3 · 3x4 — exercises m != k != n in the blocked kernel.
  Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Matrix b{{1.0, 0.0, 2.0, -1.0},
           {0.0, 1.0, 1.0, 0.5},
           {2.0, -1.0, 0.0, 3.0}};
  Matrix c = matmul(a, b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 4u);
  EXPECT_DOUBLE_EQ(c(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(c(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(c(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(c(0, 3), 9.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 16.0);
  EXPECT_DOUBLE_EQ(c(1, 1), -1.0);
  EXPECT_DOUBLE_EQ(c(1, 2), 13.0);
  EXPECT_DOUBLE_EQ(c(1, 3), 16.5);
}

TEST(MatrixTest, MatmulDegenerateShapes) {
  // Zero rows: 0x3 · 3x2 -> 0x2.
  Matrix c0 = matmul(Matrix(0, 3), Matrix(3, 2));
  EXPECT_EQ(c0.rows(), 0u);
  EXPECT_EQ(c0.cols(), 2u);
  // Zero inner dimension: 2x0 · 0x3 -> 2x3 of zeros.
  Matrix c1 = matmul(Matrix(2, 0), Matrix(0, 3));
  ASSERT_EQ(c1.rows(), 2u);
  ASSERT_EQ(c1.cols(), 3u);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(c1(i, j), 0.0);
  // Zero cols: 2x3 · 3x0 -> 2x0.
  Matrix c2 = matmul(Matrix(2, 3), Matrix(3, 0));
  EXPECT_EQ(c2.rows(), 2u);
  EXPECT_EQ(c2.cols(), 0u);
}

TEST(MatrixTest, MatmulLargeMatchesNaiveReference) {
  // Regression guard for the blocked kernel: sizes straddle the 4-wide
  // SIMD tails so every kernel path is exercised.
  Rng rng(7);
  const std::size_t m = 37, k = 130, n = 41;
  Matrix a(m, k), b(k, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < k; ++j) a(i, j) = rng.normal();
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  Matrix c = matmul(a, b);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double ref = 0.0;
      for (std::size_t p = 0; p < k; ++p) ref += a(i, p) * b(p, j);
      // The blocked kernel accumulates in the same ascending-k order as this
      // reference loop, so equality is exact, not approximate.
      EXPECT_DOUBLE_EQ(c(i, j), ref) << "at (" << i << "," << j << ")";
    }
}

TEST(MatrixTest, MatmulShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(matmul(a, b), CheckError);
}

TEST(MatrixTest, MatvecAndTransposedMatvec) {
  Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Vector x = {1.0, 0.0, -1.0};
  Vector y = matvec(a, x);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
  Vector z = matvec_t(a, Vector{1.0, 1.0});
  ASSERT_EQ(z.size(), 3u);
  EXPECT_DOUBLE_EQ(z[0], 5.0);
  EXPECT_DOUBLE_EQ(z[2], 9.0);
}

TEST(VectorOpsTest, DotNormAddSubScaleSqdist) {
  Vector a = {3.0, 4.0};
  Vector b = {1.0, -1.0};
  EXPECT_DOUBLE_EQ(dot(a, b), -1.0);
  EXPECT_DOUBLE_EQ(sqdist(a, b), 4.0 + 25.0);
}

TEST(CholeskyTest, ReconstructsSpdMatrix) {
  Matrix a{{4.0, 2.0, 0.6}, {2.0, 5.0, 1.0}, {0.6, 1.0, 3.0}};
  Matrix l = cholesky(a);
  Matrix back = matmul(l, l.transposed());
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(back(i, j), a(i, j), 1e-12);
}

TEST(CholeskyTest, RejectsNonPositiveDefinite) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(cholesky(a), std::runtime_error);
}

TEST(CholeskyTest, SolveRoundTrips) {
  Matrix a{{4.0, 2.0}, {2.0, 5.0}};
  Vector x_true = {1.5, -2.0};
  Vector b = matvec(a, x_true);
  Matrix l = cholesky(a);
  Vector x = cholesky_solve(l, b);
  EXPECT_NEAR(x[0], x_true[0], 1e-12);
  EXPECT_NEAR(x[1], x_true[1], 1e-12);
}

TEST(EigenTest, DiagonalMatrixEigenvaluesSorted) {
  Matrix a{{1.0, 0.0, 0.0}, {0.0, 5.0, 0.0}, {0.0, 0.0, 3.0}};
  auto e = eigen_symmetric(a);
  EXPECT_NEAR(e.values[0], 5.0, 1e-10);
  EXPECT_NEAR(e.values[1], 3.0, 1e-10);
  EXPECT_NEAR(e.values[2], 1.0, 1e-10);
}

TEST(EigenTest, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix a{{2.0, 1.0}, {1.0, 2.0}};
  auto e = eigen_symmetric(a);
  EXPECT_NEAR(e.values[0], 3.0, 1e-10);
  EXPECT_NEAR(e.values[1], 1.0, 1e-10);
  // Eigenvector of 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(e.vectors(0, 0)), 1.0 / std::sqrt(2.0), 1e-8);
}

TEST(EigenTest, ReconstructionProperty) {
  Rng rng(3);
  std::size_t n = 6;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      a(i, j) = rng.normal();
      a(j, i) = a(i, j);
    }
  auto e = eigen_symmetric(a);
  // A = V diag(values) V^T
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) d(i, i) = e.values[i];
  Matrix back = matmul(matmul(e.vectors, d), e.vectors.transposed());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(back(i, j), a(i, j), 1e-8);
}

TEST(EigenTest, EigenvectorsOrthonormal) {
  Rng rng(4);
  std::size_t n = 5;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      a(i, j) = rng.normal();
      a(j, i) = a(i, j);
    }
  auto e = eigen_symmetric(a);
  Matrix vtv = matmul(e.vectors.transposed(), e.vectors);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(vtv(i, j), i == j ? 1.0 : 0.0, 1e-8);
}

TEST(SolveTest, GaussianEliminationRoundTrip) {
  Matrix a{{0.0, 2.0, 1.0}, {3.0, -1.0, 2.0}, {1.0, 1.0, 1.0}};  // needs pivoting
  Vector x_true = {2.0, -1.0, 3.0};
  Vector b = matvec(a, x_true);
  Vector x = solve(a, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(SolveTest, SingularThrows) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(solve(a, Vector{1.0, 2.0}), std::runtime_error);
}

}  // namespace
}  // namespace glimpse::linalg
