// Tests for the compiled-prediction subsystem: CompiledTrace dedupe +
// bit-identity with Predictor::predict, the PiecewiseModel region index
// vs the reference linear scan, the sharded trace LRU, and the engine's
// snapshot invalidation-on-regeneration semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <random>

#include "algorithms/chol.hpp"
#include "algorithms/trinv.hpp"
#include "api/engine.hpp"
#include "api/intern.hpp"
#include "api/trace_cache.hpp"
#include "common/lru.hpp"
#include "predict/compiled_trace.hpp"
#include "predict/trace.hpp"

namespace dlap {
namespace {

namespace fs = std::filesystem;

void expect_identical(const Prediction& a, const Prediction& b) {
  EXPECT_EQ(a.ticks.min, b.ticks.min);
  EXPECT_EQ(a.ticks.median, b.ticks.median);
  EXPECT_EQ(a.ticks.mean, b.ticks.mean);
  EXPECT_EQ(a.ticks.max, b.ticks.max);
  EXPECT_EQ(a.ticks.stddev, b.ticks.stddev);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.missing, b.missing);
}

void expect_identical(const SampleStats& a, const SampleStats& b) {
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.stddev, b.stddev);
}

/// Multi-piece model over [1, hi]^dims with hash-derived, non-trivial
/// polynomial coefficients (sums of these round, so any accumulation
/// reordering would show up bit for bit). The domain splits at `hi`/2 into
/// overlapping pieces with distinct fit errors, exercising the
/// most-accurate-wins rule during prediction.
RoutineModel fitted_model(const std::string& routine,
                          const std::string& flags, int dims,
                          index_t hi = 4096) {
  double h = 7.0;
  for (char c : routine + "/" + flags) h = 0.83 * h + 0.11 * c;

  const auto piece_for = [&](index_t lo_v, index_t hi_v, double fit_error,
                             double salt) {
    Normalization norm;
    norm.shift.assign(static_cast<std::size_t>(dims), 16.0);
    norm.scale.assign(static_cast<std::size_t>(dims), 100.0);
    const index_t nmono = monomial_count(dims, 2);
    std::vector<std::vector<double>> coeffs(
        kStatCount, std::vector<double>(static_cast<std::size_t>(nmono)));
    for (int s = 0; s < kStatCount; ++s) {
      for (index_t m = 0; m < nmono; ++m) {
        coeffs[static_cast<std::size_t>(s)][static_cast<std::size_t>(m)] =
            100.0 + h + 0.37 * s + salt +
            1.0 / (3.0 + static_cast<double>(m));  // non-representable
      }
    }
    RegionModel piece;
    piece.region = Region(std::vector<index_t>(dims, lo_v),
                          std::vector<index_t>(dims, hi_v));
    piece.poly = VecPolynomial(dims, 2, norm, coeffs);
    piece.fit_error = fit_error;
    piece.mean_error = fit_error / 2;
    piece.samples_used = 9;
    return piece;
  };

  RoutineModel m;
  m.key = {routine, "synthetic", Locality::InCache, flags};
  const Region domain(std::vector<index_t>(dims, 1),
                      std::vector<index_t>(dims, hi));
  // Overlapping pieces: a coarse full-domain fit plus a more accurate
  // lower-half refinement -- points in the overlap must pick the latter.
  m.model = PiecewiseModel(
      domain, {piece_for(1, hi, 0.20, 0.0), piece_for(1, hi / 2, 0.05, 0.5)});
  return m;
}

/// One model per distinct (routine, flags) of the trace, and the aligned
/// models-by-key table for the compiled form.
ModelSet models_for(const CallTrace& trace) {
  ModelSet set;
  for (const KernelCall& call : trace) {
    const std::string routine = routine_name(call.routine);
    if (set.find(routine, call.flag_key()) == nullptr) {
      set.add(fitted_model(routine, call.flag_key(),
                           static_cast<int>(call.sizes.size())));
    }
  }
  return set;
}

std::vector<const RoutineModel*> table_for(const CompiledTrace& compiled,
                                           const ModelSet& set) {
  std::vector<const RoutineModel*> table;
  for (const CompiledKey& key : compiled.keys()) {
    table.push_back(set.find(routine_name(key.routine), key.flags));
  }
  return table;
}

// ----------------------------------------------------------- CompiledTrace

TEST(CompiledTrace, DedupesSylvTraceToUniqueShapes) {
  const CallTrace trace = trace_sylv(1, 192, 160, 32);
  const CompiledTrace compiled = CompiledTrace::compile(trace);
  EXPECT_EQ(compiled.source_calls(), static_cast<index_t>(trace.size()));
  // O((m/b)(n/b)) calls collapse to O(m/b + n/b) unique shapes.
  EXPECT_LT(compiled.unique_calls(), compiled.source_calls() / 4);
  index_t occurrences = 0;
  for (const CompiledCall& entry : compiled.entries()) {
    EXPECT_GT(entry.multiplicity, 0);
    for (const index_t size : entry.sizes) {
      EXPECT_GT(size, 0);  // zero-size calls are dropped, never entries
    }
    occurrences += entry.multiplicity;
  }
  EXPECT_EQ(occurrences + compiled.skipped(), compiled.source_calls());
  // Per-key entry lists partition the entries.
  index_t via_keys = 0;
  for (std::size_t k = 0; k < compiled.keys().size(); ++k) {
    for (std::uint32_t e : compiled.entries_of(static_cast<int>(k))) {
      EXPECT_EQ(compiled.entries()[e].key, static_cast<int>(k));
      ++via_keys;
    }
  }
  EXPECT_EQ(via_keys, compiled.unique_calls());
}

TEST(CompiledTrace, BitIdenticalToPredictorAcrossFamilies) {
  std::vector<CallTrace> traces;
  for (int v = 1; v <= kTrinvVariantCount; ++v) {
    traces.push_back(trace_trinv(v, 250, 100));
  }
  for (int v : {1, 6, 11, 16}) {
    traces.push_back(trace_sylv(v, 192, 160, 48));
  }
  for (int v = 1; v <= kCholVariantCount; ++v) {
    traces.push_back(trace_chol(v, 224, 64));
  }
  for (const CallTrace& trace : traces) {
    const ModelSet set = models_for(trace);
    const Prediction reference = Predictor(set).predict(trace);
    const CompiledTrace compiled = CompiledTrace::compile(trace);
    const Prediction via_compiled = compiled.predict(table_for(compiled, set));
    expect_identical(via_compiled, reference);
  }
}

TEST(CompiledTrace, BitIdenticalWithMissingModels) {
  const CallTrace trace = trace_trinv(1, 250, 100);
  ModelSet set;  // dtrmm present, dtrsm and trinv1_unb missing
  set.add(fitted_model("dtrmm", "RLNN", 2));
  const Prediction reference = Predictor(set).predict(trace);
  const CompiledTrace compiled = CompiledTrace::compile(trace);
  const Prediction via_compiled = compiled.predict(table_for(compiled, set));
  EXPECT_GT(via_compiled.missing, 0);
  expect_identical(via_compiled, reference);
}

TEST(CompiledTrace, DegenerateOnlyTraceSkipsEverything) {
  const CallTrace trace{parse_call("dgemm(N,N,0,64,64,1,A,64,B,64,0,C,64)")};
  const CompiledTrace compiled = CompiledTrace::compile(trace);
  EXPECT_EQ(compiled.unique_calls(), 0);
  EXPECT_EQ(compiled.skipped(), 1);
  const Prediction p = compiled.predict({});
  EXPECT_EQ(p.skipped, 1);
  EXPECT_EQ(p.calls, 0);
  expect_identical(p, Predictor(ModelSet{}).predict(trace));
}

TEST(CompiledTrace, PredictRequiresOneSlotPerKey) {
  const CompiledTrace compiled =
      CompiledTrace::compile(trace_trinv(1, 128, 64));
  EXPECT_THROW((void)compiled.predict({}), invalid_argument_error);
}

// ------------------------------------------------------------ region index

/// The pre-index reference semantics, verbatim: linear most-accurate
/// containing scan, then nearest-region projection.
SampleStats reference_evaluate(const PiecewiseModel& model,
                               const std::vector<double>& point) {
  const RegionModel* best = nullptr;
  for (const RegionModel& p : model.pieces()) {
    if (!p.region.contains(point)) continue;
    if (best == nullptr || p.fit_error < best->fit_error) best = &p;
  }
  if (best != nullptr) return best->poly.evaluate(point);
  double best_dist = std::numeric_limits<double>::infinity();
  for (const RegionModel& p : model.pieces()) {
    const double d = p.region.distance(point);
    if (d < best_dist) {
      best_dist = d;
      best = &p;
    }
  }
  std::vector<double> clamped = point;
  for (int d = 0; d < model.dims(); ++d) {
    clamped[d] =
        std::clamp(clamped[d], static_cast<double>(best->region.lo(d)),
                   static_cast<double>(best->region.hi(d)));
  }
  return best->poly.evaluate(clamped);
}

TEST(RegionIndex, MatchesLinearScanOnRandomizedModels) {
  std::mt19937_64 rng(20260730);
  for (int model_i = 0; model_i < 40; ++model_i) {
    const int dims = 1 + static_cast<int>(rng() % 3);
    const int npieces = 1 + static_cast<int>(rng() % 7);
    std::vector<RegionModel> pieces;
    for (int p = 0; p < npieces; ++p) {
      std::vector<index_t> lo(dims), hi(dims);
      for (int d = 0; d < dims; ++d) {
        lo[d] = static_cast<index_t>(rng() % 48);
        hi[d] = lo[d] + static_cast<index_t>(rng() % 32);
      }
      Normalization norm;
      norm.shift.assign(dims, 8.0);
      norm.scale.assign(dims, 10.0);
      std::vector<std::vector<double>> coeffs(
          kStatCount, std::vector<double>(
                          static_cast<std::size_t>(monomial_count(dims, 1))));
      for (auto& row : coeffs) {
        for (double& c : row) {
          c = std::uniform_real_distribution<double>(-3.0, 7.0)(rng);
        }
      }
      RegionModel piece;
      piece.region = Region(lo, hi);
      piece.poly = VecPolynomial(dims, 1, norm, coeffs);
      // Duplicate fit errors on purpose: ties must resolve to the same
      // piece (first wins) in both implementations.
      piece.fit_error = static_cast<double>(rng() % 4) / 10.0;
      pieces.push_back(std::move(piece));
    }
    Region domain(std::vector<index_t>(dims, 0),
                  std::vector<index_t>(dims, 96));
    const PiecewiseModel model(domain, pieces);

    std::vector<std::vector<double>> points;
    for (int q = 0; q < 200; ++q) {
      std::vector<double> pt(dims);
      for (int d = 0; d < dims; ++d) {
        pt[d] = static_cast<double>(static_cast<int>(rng() % 120) - 10);
        if (q % 5 == 0) pt[d] += 0.5;  // non-lattice: linear fallback path
      }
      points.push_back(std::move(pt));
    }
    std::vector<const std::vector<double>*> ptrs;
    for (const auto& pt : points) ptrs.push_back(&pt);
    std::vector<SampleStats> batched;
    model.evaluate_many(ptrs, batched);
    for (std::size_t q = 0; q < points.size(); ++q) {
      const SampleStats expected = reference_evaluate(model, points[q]);
      expect_identical(model.evaluate(points[q]), expected);
      expect_identical(batched[q], expected);
    }
  }
}

TEST(RegionIndex, SurvivesCopyAndMove) {
  const CallTrace trace = trace_trinv(2, 160, 32);
  RoutineModel m = fitted_model("trinv2_unb", "", 1);
  const std::vector<double> pt{32.0};
  const SampleStats before = m.model.evaluate(pt);  // index built
  PiecewiseModel copy = m.model;                    // index reset, rebuilt
  expect_identical(copy.evaluate(pt), before);
  PiecewiseModel moved = std::move(copy);           // index carried over
  expect_identical(moved.evaluate(pt), before);
  copy = m.model;  // assignment into moved-from state
  expect_identical(copy.evaluate(pt), before);
}

// ------------------------------------------------------------- sharded LRU

TEST(ShardedLru, HitMissEvictAndClear) {
  // One shard makes the eviction order deterministic for the test.
  ShardedLru<int, int> cache(/*capacity=*/2, /*shards=*/1);
  cache.insert(1, std::make_shared<int>(10));
  cache.insert(2, std::make_shared<int>(20));
  ASSERT_NE(cache.find(1), nullptr);  // promotes 1 over 2
  cache.insert(3, std::make_shared<int>(30));  // evicts 2 (LRU)
  EXPECT_EQ(cache.find(2), nullptr);
  ASSERT_NE(cache.find(1), nullptr);
  EXPECT_EQ(*cache.find(3), 30);
  const LruStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.find(1), nullptr);

  ShardedLru<int, int> disabled(/*capacity=*/0);
  disabled.insert(1, std::make_shared<int>(10));
  EXPECT_EQ(disabled.find(1), nullptr);
}

TEST(ShardedLru, ReinsertReplacesAndPromotes) {
  ShardedLru<int, int> cache(2, 1);
  cache.insert(1, std::make_shared<int>(10));
  cache.insert(2, std::make_shared<int>(20));
  cache.insert(1, std::make_shared<int>(11));  // replace + promote
  cache.insert(3, std::make_shared<int>(30));  // evicts 2
  EXPECT_EQ(*cache.find(1), 11);
  EXPECT_EQ(cache.find(2), nullptr);
}

// ----------------------------------------- heterogeneous hot-path lookups

TEST(Intern, HeterogeneousRefLookupMatchesKeyLookup) {
  KeyInterner interner;
  const ModelKey key{"dtrsm", "blocked", Locality::OutOfCache, "LLNN"};
  const int id = interner.intern(key);
  const std::string routine = "dtrsm", backend = "blocked", flags = "LLNN";
  const ModelKeyRef ref{routine, backend, Locality::OutOfCache, flags};
  EXPECT_EQ(interner.find(ref), id);
  EXPECT_EQ(interner.intern(ref), id);
  EXPECT_EQ(interner.size(), 1u);
  const ModelKeyRef other{routine, backend, Locality::InCache, flags};
  EXPECT_EQ(interner.find(other), -1);
  EXPECT_NE(interner.intern(other), id);
}

TEST(ModelSet, FindAcceptsStringViews) {
  ModelSet set;
  set.add(fitted_model("dtrsm", "LLNN", 2));
  const std::string_view routine = "dtrsm";
  const std::string_view flags = "LLNN";
  EXPECT_NE(set.find(routine, flags), nullptr);
  EXPECT_EQ(set.find(routine, std::string_view("RLNN")), nullptr);
}

// ------------------------------------------------------------ TraceContext

TEST(TraceContext, TakeLeavesCleanReusableState) {
  TraceContext ctx;
  ctx.gemm(Trans::NoTrans, Trans::NoTrans, 8, 8, 8, 1.0, nullptr, 8, nullptr,
           8, 0.0, nullptr, 8);
  const CallTrace first = ctx.take();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(ctx.trace().empty());  // reset, not moved-from garbage
  ctx.trsm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, 4, 4, 1.0,
           nullptr, 4, nullptr, 4);
  const CallTrace second = ctx.take();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].routine, RoutineId::Trsm);
}

TEST(TraceContext, GeneratorsStayWithinReserveEstimates) {
  EXPECT_LE(trace_trinv(4, 250, 100).size(),
            static_cast<std::size_t>(trace_trinv_calls(250, 100)));
  for (int v : {1, 8, 16}) {
    EXPECT_LE(trace_sylv(v, 192, 160, 48).size(),
              static_cast<std::size_t>(trace_sylv_calls(192, 160, 48)));
  }
  EXPECT_LE(trace_chol(3, 224, 64).size(),
            static_cast<std::size_t>(trace_chol_calls(224, 64)));
}

// ------------------------------------------------- engine-level semantics

MeasureFn synthetic_measure(double offset) {
  return [offset](const std::vector<index_t>& point) {
    double cost = 100.0 + offset;
    for (index_t x : point) {
      const double v = static_cast<double>(x);
      cost += 2.0 * v + 0.05 * v * v;
    }
    SampleStats s;
    s.min = cost * 0.9;
    s.median = cost;
    s.mean = cost * 1.02;
    s.max = cost * 1.2;
    s.stddev = cost * 0.03;
    s.count = 5;
    return s;
  };
}

EngineConfig test_config(const std::string& name) {
  EngineConfig cfg;
  cfg.service.repository_dir = fs::temp_directory_path() / name;
  cfg.service.workers = 2;
  cfg.service.measure_factory = [](const ModelJob& job) {
    double h = 0.0;
    for (char c : ModelService::key_for(job).to_string()) {
      h = 0.9 * h + static_cast<double>(c);
    }
    return synthetic_measure(h);
  };
  return cfg;
}

struct TempEngine {
  explicit TempEngine(const std::string& name, EngineConfig cfg)
      : dir(fs::temp_directory_path() / name),
        cleanup{dir},
        engine((fs::remove_all(dir), std::move(cfg))) {}
  explicit TempEngine(const std::string& name)
      : TempEngine(name, test_config(name)) {}
  fs::path dir;
  struct Cleanup {
    fs::path dir;
    ~Cleanup() { fs::remove_all(dir); }
  } cleanup;
  Engine engine;
};

/// The string-keyed reference prediction over the engine's CURRENT
/// repository models (what an uncached engine would answer).
Prediction repository_reference(Engine& engine, const OperationSpec& spec) {
  const CallTrace trace = spec.trace();
  ModelSet set;
  for (const KernelCall& call : trace) {
    const std::string routine = routine_name(call.routine);
    if (set.find(routine, call.flag_key()) != nullptr) continue;
    auto model = engine.service().find(
        ModelKey{routine, engine.config().system.backend,
                 engine.config().system.locality, call.flag_key()});
    if (model != nullptr) set.add(std::move(model));
  }
  return Predictor(set).predict(trace);
}

TEST(EngineCompiled, RepeatedSweepHitsTraceCache) {
  TempEngine t("dlap_test_compiled_cachehit");
  const RankQuery query = RankQuery::trinv_variants(160, 32);
  const auto first = t.engine.rank(query);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  const LruStats after_first = t.engine.trace_cache_stats();
  EXPECT_EQ(after_first.size, 4u);
  const auto second = t.engine.rank(query);
  ASSERT_TRUE(second.ok());
  const LruStats after_second = t.engine.trace_cache_stats();
  EXPECT_EQ(after_second.hits, after_first.hits + 4);
  EXPECT_EQ(after_second.misses, after_first.misses);  // no recompilation
  for (std::size_t i = 0; i < first->predictions.size(); ++i) {
    expect_identical(first->predictions[i], second->predictions[i]);
  }
  t.engine.clear_trace_cache();
  EXPECT_EQ(t.engine.trace_cache_stats().size, 0u);
  const auto third = t.engine.rank(query);  // recompiles, same answers
  ASSERT_TRUE(third.ok());
  for (std::size_t i = 0; i < first->predictions.size(); ++i) {
    expect_identical(first->predictions[i], third->predictions[i]);
  }
}

TEST(EngineCompiled, TinyCacheEvictsButStaysCorrect) {
  EngineConfig cfg = test_config("dlap_test_compiled_evict");
  cfg.trace_cache_capacity = 4;  // far below the 16-variant sweep
  TempEngine t("dlap_test_compiled_evict", std::move(cfg));
  const RankQuery query = RankQuery::sylv_variants(96, 96, 32);
  const auto first = t.engine.rank(query);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  const auto second = t.engine.rank(query);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(t.engine.trace_cache_stats().evictions, 0u);
  for (std::size_t i = 0; i < first->predictions.size(); ++i) {
    expect_identical(first->predictions[i], second->predictions[i]);
  }
}

TEST(EngineCompiled, CachedSweepInvalidatedOnModelRegeneration) {
  TempEngine t("dlap_test_compiled_regen");
  const OperationSpec small = OperationSpec::trinv(1, 96, 16);
  const auto before = t.engine.predict(PredictQuery::of(small));
  ASSERT_TRUE(before.ok()) << before.status().to_string();

  // Same model keys over a wider parameter range: the engine regenerates
  // the models with region-unioned domains.
  const auto wide =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(1, 256, 64)));
  ASSERT_TRUE(wide.ok()) << wide.status().to_string();

  // The small query's compiled sweep point is still cached, but its slot
  // snapshot must be invalidated: the answer has to match the CURRENT
  // repository models (what a fresh engine computes), not the stale
  // pre-regeneration ones.
  const auto after = t.engine.predict(PredictQuery::of(small));
  ASSERT_TRUE(after.ok());
  expect_identical(*after, repository_reference(t.engine, small));
}

TEST(EngineCompiled, SpecAndEquivalentRawTraceAgree) {
  TempEngine t("dlap_test_compiled_rawtrace");
  const OperationSpec spec = OperationSpec::chol(2, 160, 32);
  const auto via_spec = t.engine.predict(PredictQuery::of(spec));
  ASSERT_TRUE(via_spec.ok()) << via_spec.status().to_string();
  // The raw-trace path compiles ephemerally (no cache key), but must
  // predict identically from the same models.
  const auto via_trace = t.engine.predict(PredictQuery::of(spec.trace()));
  ASSERT_TRUE(via_trace.ok()) << via_trace.status().to_string();
  expect_identical(*via_spec, *via_trace);
  EXPECT_EQ(t.engine.trace_cache_stats().size, 1u);  // only the spec query
}

}  // namespace
}  // namespace dlap
