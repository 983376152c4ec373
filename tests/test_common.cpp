// Unit tests for the common substrate: strings, env, RNG, matrices,
// matrix utilities, and the thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <set>

#include "common/env.hpp"
#include "common/matrix.hpp"
#include "common/matrix_util.hpp"
#include "common/rng.hpp"
#include "common/str.hpp"
#include "common/threadpool.hpp"

namespace dlap {
namespace {

// ---------------------------------------------------------------- strings

TEST(Str, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello "), "hello");
  EXPECT_EQ(trim("\t\na\r "), "a");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-op"), "no-op");
}

TEST(Str, SplitPreservesEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Str, SplitTrimmedTrimsEachField) {
  EXPECT_EQ(split_trimmed(" a , b ,c ", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Str, JoinRoundTripsSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(split(join(parts, ","), ','), parts);
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Str, StartsWith) {
  EXPECT_TRUE(starts_with("dtrsm(...)", "dtrsm"));
  EXPECT_FALSE(starts_with("dtrsm", "dtrsms"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(Str, ParseIntAcceptsSignedIntegers) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
  EXPECT_EQ(parse_int("0"), 0);
}

TEST(Str, ParseIntRejectsGarbage) {
  EXPECT_THROW((void)parse_int("12x"), parse_error);
  EXPECT_THROW((void)parse_int(""), parse_error);
  EXPECT_THROW((void)parse_int("1.5"), parse_error);
}

TEST(Str, ParseDoubleAcceptsFloats) {
  EXPECT_DOUBLE_EQ(parse_double("0.37"), 0.37);
  EXPECT_DOUBLE_EQ(parse_double("-1"), -1.0);
  EXPECT_DOUBLE_EQ(parse_double("1e3"), 1000.0);
}

TEST(Str, ParseDoubleRejectsGarbage) {
  EXPECT_THROW((void)parse_double("abc"), parse_error);
  EXPECT_THROW((void)parse_double("1.2.3"), parse_error);
  EXPECT_THROW((void)parse_double(""), parse_error);
  EXPECT_THROW((void)parse_double("1e"), parse_error);
  EXPECT_THROW((void)parse_double("+"), parse_error);
  EXPECT_THROW((void)parse_double("1 2"), parse_error);
  EXPECT_THROW((void)parse_double("0x"), parse_error);
}

TEST(Str, ParseDoubleKeepsStrtodForms) {
  // from_chars refuses or reads these differently; they keep strtod's
  // acceptance and values.
  EXPECT_EQ(parse_double(" 2.5 "), 2.5);
  EXPECT_EQ(parse_double("+1"), 1.0);
  EXPECT_EQ(parse_double("inf"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(parse_double("-Infinity"),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(parse_double("1e400"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(parse_double("0x10"), 16.0);
  const double underflow = parse_double("1e-400");
  EXPECT_EQ(underflow, 0.0);
  EXPECT_FALSE(std::signbit(underflow));
  EXPECT_TRUE(std::signbit(parse_double("-1e-400")));
  EXPECT_TRUE(std::isnan(parse_double("nan")));
  // strtod keeps a NaN's payload; so does parse_double.
  const double payload = parse_double("nan(123)");
  const double expected = std::strtod("nan(123)", nullptr);
  EXPECT_EQ(std::memcmp(&payload, &expected, sizeof payload), 0);
}

TEST(Str, ParseDoubleMatchesStrtodBitForBit) {
  std::mt19937_64 rng(7);
  char buf[40];
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng();
    double x = 0.0;
    std::memcpy(&x, &bits, sizeof x);
    std::snprintf(buf, sizeof buf, i % 2 == 0 ? "%.17g" : "%.6e", x);
    const double parsed = parse_double(buf);
    const double expected = std::strtod(buf, nullptr);
    if (std::isnan(expected)) {
      ASSERT_TRUE(std::isnan(parsed)) << buf;
    } else {
      ASSERT_EQ(std::memcmp(&parsed, &expected, sizeof parsed), 0) << buf;
    }
  }
}

// -------------------------------------------------------------------- env

TEST(Env, FallbacksWhenUnset) {
  EXPECT_EQ(env_string("DLAPERF_TEST_SURELY_UNSET", "dflt"), "dflt");
  EXPECT_EQ(env_int("DLAPERF_TEST_SURELY_UNSET", 17), 17);
}

TEST(Env, ReadsSetVariables) {
  ::setenv("DLAPERF_TEST_VAR", "123", 1);
  EXPECT_EQ(env_int("DLAPERF_TEST_VAR", 0), 123);
  EXPECT_EQ(env_string("DLAPERF_TEST_VAR", ""), "123");
  ::setenv("DLAPERF_TEST_VAR", "notanint", 1);
  EXPECT_EQ(env_int("DLAPERF_TEST_VAR", 5), 5);
  ::unsetenv("DLAPERF_TEST_VAR");
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(11);
  std::set<index_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, NormalHasZeroMeanUnitVariance) {
  Rng rng(5);
  const int n = 20000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.1);
}

// ----------------------------------------------------------------- matrix

TEST(Matrix, ZeroInitializedAndShaped) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.ld(), 3);
  for (index_t j = 0; j < 4; ++j) {
    for (index_t i = 0; i < 3; ++i) EXPECT_EQ(m(i, j), 0.0);
  }
}

TEST(Matrix, ColumnMajorLayoutWithLeadingDimension) {
  Matrix m(2, 3, 5);
  m(1, 2) = 42.0;
  EXPECT_EQ(m.data()[1 + 2 * 5], 42.0);
}

TEST(Matrix, EmptyMatricesAreLegal) {
  Matrix m(0, 0);
  EXPECT_TRUE(m.empty());
  Matrix n(4, 0);
  EXPECT_TRUE(n.empty());
  Matrix p(0, 4);
  EXPECT_TRUE(p.empty());
}

TEST(Matrix, RejectsBadLeadingDimension) {
  EXPECT_THROW(Matrix(4, 2, 3), invalid_argument_error);
  EXPECT_THROW(Matrix(-1, 2), invalid_argument_error);
}

TEST(MatrixView, BlockAddressesSubmatrix) {
  Matrix m(4, 4);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 4; ++i) m(i, j) = static_cast<double>(10 * i + j);
  MatrixView blk = m.block(1, 2, 2, 2);
  EXPECT_EQ(blk.rows(), 2);
  EXPECT_EQ(blk.cols(), 2);
  EXPECT_EQ(blk(0, 0), 12.0);
  EXPECT_EQ(blk(1, 1), 23.0);
  blk(0, 1) = -1.0;
  EXPECT_EQ(m(1, 3), -1.0);
}

TEST(MatrixView, BlockOutOfRangeThrows) {
  Matrix m(4, 4);
  EXPECT_THROW((void)m.block(2, 2, 3, 1), invalid_argument_error);
  EXPECT_THROW((void)m.block(0, 0, 5, 5), invalid_argument_error);
}

// ------------------------------------------------------------ matrix_util

TEST(MatrixUtil, FillLowerTriangularZerosUpperPart) {
  Rng rng(1);
  Matrix m(6, 6);
  fill_lower_triangular(m.view(), rng);
  for (index_t j = 0; j < 6; ++j) {
    for (index_t i = 0; i < 6; ++i) {
      if (i < j) {
        EXPECT_EQ(m(i, j), 0.0);
      } else if (i == j) {
        EXPECT_GE(m(i, j), 1.0);
        EXPECT_LT(m(i, j), 2.0);
      }
    }
  }
}

TEST(MatrixUtil, FillUpperTriangularZerosLowerPart) {
  Rng rng(1);
  Matrix m(5, 5);
  fill_upper_triangular(m.view(), rng);
  for (index_t j = 0; j < 5; ++j) {
    for (index_t i = j + 1; i < 5; ++i) EXPECT_EQ(m(i, j), 0.0);
  }
}

TEST(MatrixUtil, CopyHandlesDifferentLds) {
  Rng rng(2);
  Matrix a(3, 3, 7);
  fill_uniform(a.view(), rng);
  Matrix b(3, 3, 4);
  copy_matrix(a.view(), b.view());
  EXPECT_EQ(relative_diff(a.view(), b.view()), 0.0);
}

TEST(MatrixUtil, FrobeniusNormOfIdentity) {
  Matrix id(9, 9);
  set_identity(id.view());
  EXPECT_NEAR(frobenius_norm(id.view()), 3.0, 1e-12);
}

TEST(MatrixUtil, RelativeDiffDetectsPerturbation) {
  Rng rng(3);
  Matrix a(4, 4);
  fill_uniform(a.view(), rng);
  Matrix b(4, 4);
  copy_matrix(a.view(), b.view());
  EXPECT_EQ(relative_diff(a.view(), b.view()), 0.0);
  b(2, 2) += 0.5;
  EXPECT_GT(relative_diff(a.view(), b.view()), 0.0);
}

TEST(MatrixUtil, MaxAbs) {
  Matrix a(2, 2);
  a(0, 0) = -3.5;
  a(1, 1) = 2.0;
  EXPECT_DOUBLE_EQ(max_abs(a.view()), 3.5);
}

// ------------------------------------------------------------- threadpool

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](index_t, index_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SmallRangeFewerChunksThanWorkers) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(0, 3, [&](index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](index_t b, index_t) {
                          if (b >= 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Pool must remain usable afterwards.
  std::atomic<int> n{0};
  pool.parallel_for(0, 10, [&](index_t b, index_t e) {
    n.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, ParallelForEachVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(257);
  for (auto& v : visits) v.store(0);
  pool.parallel_for_each(257, [&](index_t i) {
    visits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);

  std::atomic<int> calls{0};
  pool.parallel_for_each(0, [&](index_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ParallelForEachPropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for_each(
                   50,
                   [&](index_t i) {
                     if (i == 17) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  // Pool must remain usable afterwards.
  std::atomic<int> n{0};
  pool.parallel_for_each(10, [&](index_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, SubmitReturnsFutureWithResultOrException) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 6 * 7; });
  auto boom = pool.submit(
      []() -> int { throw std::runtime_error("bad job"); });
  EXPECT_EQ(ok.get(), 42);
  EXPECT_THROW((void)boom.get(), std::runtime_error);

  // void-returning jobs work too.
  std::atomic<bool> ran{false};
  pool.submit([&] { ran.store(true); }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ManySequentialParallelFors) {
  ThreadPool pool(2);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(0, 64, [&](index_t b, index_t e) {
      total.fetch_add(e - b);
    });
  }
  EXPECT_EQ(total.load(), 50 * 64);
}

}  // namespace
}  // namespace dlap
