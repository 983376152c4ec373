// Tests for trace extraction, prediction accumulation, and ranking
// analysis. The centerpiece reproduces the paper's printed invocation list
// for trinv variant 1 (n=250, blocksize=100) call for call.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "algorithms/sylv.hpp"
#include "algorithms/trinv.hpp"
#include "predict/predictor.hpp"
#include "predict/ranking.hpp"
#include "predict/trace.hpp"

namespace dlap {
namespace {

// ------------------------------------------------------------------ trace

TEST(Trace, PaperTrinvVariant1Listing) {
  // Section IV-A: "the execution of variant 1 on a matrix of size 250 with
  // block-size 100 produces the following invocations:"
  const CallTrace t = trace_trinv(1, 250, 100);
  const char* expected[] = {
      "dtrmm(R,L,N,N,100,0,1,A,250,B,250)",
      "dtrsm(L,L,N,N,100,0,-1,A,250,B,250)",
      "trinv1_unb(100,A,250)",
      "dtrmm(R,L,N,N,100,100,1,A,250,B,250)",
      "dtrsm(L,L,N,N,100,100,-1,A,250,B,250)",
      "trinv1_unb(100,A,250)",
      "dtrmm(R,L,N,N,50,200,1,A,250,B,250)",
      "dtrsm(L,L,N,N,50,200,-1,A,250,B,250)",
      "trinv1_unb(50,A,250)",
  };
  ASSERT_EQ(t.size(), 9u);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(format_call(t[i]), expected[i]) << "call " << i;
  }
}

TEST(Trace, TrinvVariantsHaveExpectedKernelMix) {
  // Variant 1: trmm + trsm, no gemm. Variant 3: gemm-rich.
  const auto count = [](const CallTrace& t, RoutineId id) {
    index_t n = 0;
    for (const auto& c : t) n += (c.routine == id);
    return n;
  };
  const CallTrace v1 = trace_trinv(1, 480, 96);
  EXPECT_EQ(count(v1, RoutineId::Gemm), 0);
  EXPECT_GT(count(v1, RoutineId::Trmm), 0);
  EXPECT_GT(count(v1, RoutineId::Trsm), 0);
  EXPECT_EQ(count(v1, RoutineId::Trinv1Unb), 5);

  const CallTrace v3 = trace_trinv(3, 480, 96);
  EXPECT_EQ(count(v3, RoutineId::Gemm), 5);
  EXPECT_EQ(count(v3, RoutineId::Trinv3Unb), 5);

  const CallTrace v4 = trace_trinv(4, 480, 96);
  EXPECT_GT(count(v4, RoutineId::Gemm), 0);
  EXPECT_GT(count(v4, RoutineId::Trmm), 0);
  EXPECT_EQ(count(v4, RoutineId::Trinv4Unb), 5);
}

TEST(Trace, TrinvTraceFlopsMatchFormula) {
  // Variants 1-3 perform ~n^3/3 flops like the formula; variant 4 redoes
  // trailing solves and a growing trmm each iteration, costing roughly
  // 3x the minimum -- exactly why the paper finds it "significantly
  // slower" (Fig I.1).
  const index_t n = 240;
  const double formula = trinv_flops(n);
  const double r1 = trace_flops(trace_trinv(1, n, 48)) / formula;
  const double r2 = trace_flops(trace_trinv(2, n, 48)) / formula;
  const double r3 = trace_flops(trace_trinv(3, n, 48)) / formula;
  const double r4 = trace_flops(trace_trinv(4, n, 48)) / formula;
  EXPECT_NEAR(r1, 1.0, 0.35);
  EXPECT_NEAR(r2, 1.0, 0.35);
  EXPECT_NEAR(r3, 1.0, 0.35);
  EXPECT_GT(r4, 1.8);
  EXPECT_LT(r4, 4.0);
}

TEST(Trace, SylvEveryBlockSolvedExactlyOnce) {
  // Any variant's trace contains exactly ceil(m/b)*ceil(n/b) unblocked
  // solves -- each X block is solved exactly once.
  for (int v = 1; v <= kSylvVariantCount; ++v) {
    const CallTrace t = trace_sylv(v, 200, 136, 48);
    index_t solves = 0;
    for (const auto& c : t) solves += (c.routine == RoutineId::SylvUnb);
    EXPECT_EQ(solves, 5 * 3) << "variant " << v;
  }
}

TEST(Trace, SylvPullVariantsUseLargeKGemms) {
  // Pull (lazy) schedules accumulate with k growing to the full prefix;
  // push schedules broadcast rank-b updates only.
  const index_t b = 32;
  const CallTrace pull = trace_sylv(1, 256, 256, b);
  index_t max_k_pull = 0;
  for (const auto& c : pull) {
    if (c.routine == RoutineId::Gemm) {
      max_k_pull = std::max(max_k_pull, c.sizes[2]);
    }
  }
  EXPECT_GT(max_k_pull, b);

  const CallTrace push = trace_sylv(16, 256, 256, b);
  for (const auto& c : push) {
    if (c.routine == RoutineId::Gemm) {
      EXPECT_LE(c.sizes[2], b);  // k never exceeds the block size
    }
  }
}

TEST(Trace, SylvTraceFlopsMatchFormulaAcrossVariants) {
  for (int v : {1, 6, 11, 16}) {
    const CallTrace t = trace_sylv(v, 192, 160, 48);
    EXPECT_NEAR(trace_flops(t) / sylv_flops(192, 160), 1.0, 0.25)
        << "variant " << v;
  }
}

TEST(Trace, RecordsLeadingDimensionsVerbatim) {
  TraceContext ctx;
  ctx.gemm(Trans::NoTrans, Trans::Transpose, 10, 20, 30, 1.5, nullptr, 64,
           nullptr, 128, 0.0, nullptr, 256);
  ASSERT_EQ(ctx.trace().size(), 1u);
  const KernelCall& c = ctx.trace()[0];
  EXPECT_EQ(c.leads, (std::vector<index_t>{64, 128, 256}));
  EXPECT_EQ(c.flag_key(), "NT");
  EXPECT_DOUBLE_EQ(c.scalars[0], 1.5);
}

// -------------------------------------------------------------- predictor

// Constant-valued model: every statistic == value over [lo, hi]^dims.
RoutineModel constant_model(const std::string& routine,
                            const std::string& flags, int dims, double value,
                            index_t lo = 1, index_t hi = 4096) {
  Normalization norm;
  norm.shift.assign(dims, 0.0);
  norm.scale.assign(dims, 1.0);
  std::vector<std::vector<double>> coeffs(kStatCount,
                                          std::vector<double>{value});
  RegionModel piece;
  piece.region = Region(std::vector<index_t>(dims, lo),
                        std::vector<index_t>(dims, hi));
  piece.poly = VecPolynomial(dims, 0, norm, coeffs);
  piece.fit_error = 0.0;
  piece.mean_error = 0.0;
  piece.samples_used = 1;
  RoutineModel m;
  m.key = {routine, "synthetic", Locality::InCache, flags};
  m.model = PiecewiseModel(piece.region, {piece});
  return m;
}

ModelSet trinv_v1_models(double trmm_cost, double trsm_cost,
                         double unb_cost) {
  ModelSet set;
  set.add(constant_model("dtrmm", "RLNN", 2, trmm_cost));
  set.add(constant_model("dtrsm", "LLNN", 2, trsm_cost));
  set.add(constant_model("trinv1_unb", "", 1, unb_cost));
  return set;
}

TEST(Predictor, AccumulatesConstantModelsOverTrace) {
  const ModelSet set = trinv_v1_models(10.0, 20.0, 5.0);
  const Predictor pred(set);
  // n=250, b=100: 3 iterations. First iteration's trmm/trsm have n=0 and
  // are skipped; remaining: 2 trmm + 2 trsm + 3 unblocked.
  const Prediction p = pred.predict(trace_trinv(1, 250, 100));
  EXPECT_EQ(p.skipped, 2);
  EXPECT_EQ(p.calls, 7);
  EXPECT_DOUBLE_EQ(p.ticks.median, 2 * 10.0 + 2 * 20.0 + 3 * 5.0);
  EXPECT_DOUBLE_EQ(p.ticks.min, p.ticks.median);  // constant stats
  EXPECT_GT(p.flops, 0.0);
}

TEST(Predictor, StddevCombinesAsRootSumOfSquares) {
  ModelSet set;
  RoutineModel m = constant_model("trinv1_unb", "", 1, 10.0);
  // Rebuild with stddev = 3.
  {
    Normalization norm{{0.0}, {1.0}};
    std::vector<std::vector<double>> coeffs(kStatCount,
                                            std::vector<double>{10.0});
    coeffs[static_cast<int>(Stat::Stddev)] = {3.0};
    RegionModel piece;
    piece.region = Region({1}, {4096});
    piece.poly = VecPolynomial(1, 0, norm, coeffs);
    m.model = PiecewiseModel(piece.region, {piece});
  }
  set.add(m);
  set.add(constant_model("dtrmm", "RLNN", 2, 0.0));
  set.add(constant_model("dtrsm", "LLNN", 2, 0.0));
  const Predictor pred(set);
  // 4 unblocked calls: stddev = sqrt(4 * 9) = 6... plus trmm/trsm zeros.
  const Prediction p = pred.predict(trace_trinv(1, 256, 64));
  EXPECT_NEAR(p.ticks.stddev, std::sqrt(4 * 9.0), 1e-9);
}

TEST(Predictor, CountsMissingModelsWithoutThrowing) {
  const ModelSet empty;
  const Prediction none = Predictor(empty).predict(trace_trinv(1, 128, 64));
  EXPECT_GT(none.missing, 0);
  EXPECT_EQ(none.calls, 0);

  ModelSet set;
  set.add(constant_model("dtrmm", "RLNN", 2, 10.0));  // trsm/unb missing
  const Prediction p = Predictor(set).predict(trace_trinv(1, 250, 100));
  EXPECT_EQ(p.calls, 2);  // the two covered trmm calls
  EXPECT_EQ(p.missing, 5);  // 2 dtrsm + 3 trinv1_unb
  EXPECT_EQ(p.skipped, 2);
  EXPECT_DOUBLE_EQ(p.ticks.median, 2 * 10.0);
}

TEST(Predictor, EfficiencyMedianDefinedOnDegenerateInputs) {
  Prediction p;  // empty trace: median 0, calls 0
  EXPECT_EQ(p.calls, 0);
  EXPECT_DOUBLE_EQ(p.efficiency_median(1e9), 0.0);
  p.ticks.median = 1000.0;
  EXPECT_DOUBLE_EQ(p.efficiency_median(0.0), 0.0);   // zero flops
  EXPECT_DOUBLE_EQ(p.efficiency_median(-5.0), 0.0);  // negative flops
  EXPECT_DOUBLE_EQ(
      p.efficiency_median(std::numeric_limits<double>::quiet_NaN()), 0.0);
  EXPECT_DOUBLE_EQ(
      p.efficiency_median(std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_GT(p.efficiency_median(1e9), 0.0);  // sane inputs still work
}

TEST(Predictor, ModelSetFindIsFlagSensitive) {
  ModelSet set;
  set.add(constant_model("dtrsm", "LLNN", 2, 1.0));
  EXPECT_NE(set.find("dtrsm", "LLNN"), nullptr);
  EXPECT_EQ(set.find("dtrsm", "RLNN"), nullptr);
  EXPECT_EQ(set.find("dtrmm", "LLNN"), nullptr);
}

// ---------------------------------------------------------------- ranking

TEST(Ranking, RankOrderSortsAscending) {
  EXPECT_EQ(rank_order({3.0, 1.0, 2.0}), (std::vector<index_t>{1, 2, 0}));
  EXPECT_EQ(rank_order({1.0, 1.0, 0.5}), (std::vector<index_t>{2, 0, 1}));
}

TEST(Ranking, KendallTauExtremes) {
  const std::vector<double> a{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(kendall_tau(a, {10, 20, 30, 40}), 1.0);
  EXPECT_DOUBLE_EQ(kendall_tau(a, {40, 30, 20, 10}), -1.0);
  // One swapped adjacent pair: 5 of 6 pairs concordant.
  EXPECT_NEAR(kendall_tau(a, {1, 3, 2, 4}), (5.0 - 1.0) / 6.0, 1e-12);
}

TEST(Ranking, SameWinner) {
  EXPECT_TRUE(same_winner({5, 1, 9}, {50, 10, 90}));
  EXPECT_FALSE(same_winner({5, 1, 9}, {1, 50, 90}));
}

TEST(Ranking, TopKOverlap) {
  const std::vector<double> truth{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(topk_overlap({1, 2, 3, 4}, truth, 2), 1.0);
  EXPECT_DOUBLE_EQ(topk_overlap({4, 3, 2, 1}, truth, 2), 0.0);
  EXPECT_DOUBLE_EQ(topk_overlap({2, 1, 3, 4}, truth, 2), 1.0);  // swapped
}

TEST(Ranking, CrossoverDetection) {
  // a - b changes sign between indices 1 and 2.
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{2, 3, 2, 1};
  const auto x = crossovers(a, b);
  ASSERT_EQ(x.size(), 1u);
  EXPECT_EQ(x[0], 1);
  EXPECT_TRUE(crossovers(a, {0, 0, 0, 0}).empty());
}

TEST(Ranking, FastGroupSplitsAtLargestGap) {
  // Two clear groups: {10, 12, 11, 9} and {200, 300}.
  const std::vector<double> ticks{200.0, 10.0, 12.0, 300.0, 11.0, 9.0};
  const auto fast = fast_group(ticks);
  EXPECT_EQ(fast, (std::vector<index_t>{1, 2, 4, 5}));
}

// Documented edge-case behavior: degenerate inputs yield defined values
// instead of exceptions or NaN.

TEST(Ranking, KendallTauDefinedBelowTwoEntries) {
  EXPECT_DOUBLE_EQ(kendall_tau({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(kendall_tau({3.0}, {7.0}), 0.0);
  // Size mismatch stays a contract violation.
  EXPECT_THROW((void)kendall_tau({1.0, 2.0}, {1.0}),
               invalid_argument_error);
}

TEST(Ranking, TopKOverlapClampsKAndHandlesEmpty) {
  const std::vector<double> truth{1, 2, 3, 4};
  // k > size clamps to size: comparing the full rankings.
  EXPECT_DOUBLE_EQ(topk_overlap({1, 2, 3, 4}, truth, 99), 1.0);
  EXPECT_DOUBLE_EQ(topk_overlap({4, 3, 2, 1}, truth, 99), 1.0);
  // k <= 0 and empty inputs: the empty top set overlaps vacuously.
  EXPECT_DOUBLE_EQ(topk_overlap({1, 2}, {2, 1}, 0), 1.0);
  EXPECT_DOUBLE_EQ(topk_overlap({1, 2}, {2, 1}, -3), 1.0);
  EXPECT_DOUBLE_EQ(topk_overlap({}, {}, 4), 1.0);
}

TEST(Ranking, FastGroupDegenerateInputs) {
  EXPECT_TRUE(fast_group({}).empty());
  EXPECT_EQ(fast_group({42.0}), (std::vector<index_t>{0}));
  // Two entries: the smaller one forms the fast group.
  EXPECT_EQ(fast_group({100.0, 10.0}), (std::vector<index_t>{1}));
}

TEST(Ranking, CrossoversIgnoreTouchingSeries) {
  // A touch (difference reaching exactly 0) is not a sign change.
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{2, 2, 4};
  EXPECT_TRUE(crossovers(a, b).empty());
}

// Additional direct trace coverage: flop accounting identities.

TEST(Trace, TraceFlopsIsSumOfCallFlops) {
  const CallTrace t = trace_trinv(2, 200, 64);
  double sum = 0.0;
  for (const KernelCall& c : t) sum += call_flops(c);
  EXPECT_DOUBLE_EQ(trace_flops(t), sum);
  EXPECT_DOUBLE_EQ(trace_flops({}), 0.0);
}

TEST(Trace, SylvTraceFlopsMatchFormulaForAllSixteenVariants) {
  for (int v = 1; v <= kSylvVariantCount; ++v) {
    const CallTrace t = trace_sylv(v, 160, 128, 48);
    EXPECT_NEAR(trace_flops(t) / sylv_flops(160, 128), 1.0, 0.3)
        << "variant " << v;
  }
}

}  // namespace
}  // namespace dlap
