// Tests for the Engine facade: Result semantics, typed queries, spec ->
// job planning, the interned resolver fast path (bit-identity with the
// string-keyed path), batched/async execution, and the non-throwing error
// statuses.
//
// All model generation uses ServiceConfig::measure_factory with a
// deterministic synthetic cost surface, so the tests run in milliseconds
// and predictions are exactly reproducible.

#include <gtest/gtest.h>

#include <filesystem>
#include <future>

#include "algorithms/trinv.hpp"
#include "api/engine.hpp"
#include "api/intern.hpp"
#include "api/plan.hpp"
#include "predict/ranking.hpp"
#include "predict/trace.hpp"

namespace dlap {
namespace {

namespace fs = std::filesystem;

// Deterministic cost surface: cheap, smooth, key-dependent.
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
  // Declared before `engine` so the directory is removed strictly AFTER
  // ~Engine has drained outstanding (possibly dropped) queries -- deleting
  // the repository under a live engine is a different test than cleanup.
  struct Cleanup {
    fs::path dir;
    ~Cleanup() { fs::remove_all(dir); }
  } cleanup;
  Engine engine;
};

/// A one-call raw trace: a key no trinv spec needs.
CallTrace one_trsm_call(index_t m, index_t n) {
  return {parse_call("dtrsm(L,U,N,N," + std::to_string(m) + "," +
                     std::to_string(n) + ",1,A,256,B,256)")};
}

const ModelKey kOneTrsmKey{"dtrsm", "blocked", Locality::InCache, "LUNN"};

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

// ----------------------------------------------------------------- Result

TEST(Result, ValueAndErrorSemantics) {
  const Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(static_cast<bool>(ok));
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(7), 42);
  EXPECT_TRUE(ok.status().ok());

  const Result<int> bad(Status::error(StatusCode::MissingModel, "no dgemm"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code, StatusCode::MissingModel);
  EXPECT_EQ(bad.value_or(7), 7);
  EXPECT_EQ(bad.status().to_string(), "MISSING_MODEL: no dgemm");
  EXPECT_THROW((void)bad.value(), invalid_argument_error);
}

TEST(Result, OkStatusCannotCarryNoValue) {
  EXPECT_THROW(Result<int>(Status{}), invalid_argument_error);
}

// ------------------------------------------------------------------ query

TEST(Query, SpecValidation) {
  EXPECT_TRUE(OperationSpec::trinv(1, 128, 32).validate().ok());
  EXPECT_EQ(OperationSpec::trinv(5, 128, 32).validate().code,
            StatusCode::InvalidQuery);
  EXPECT_EQ(OperationSpec::trinv(1, 0, 32).validate().code,
            StatusCode::InvalidQuery);
  EXPECT_EQ(OperationSpec::trinv(1, 128, 0).validate().code,
            StatusCode::InvalidQuery);
  EXPECT_TRUE(OperationSpec::sylv(16, 64, 64, 16).validate().ok());
  EXPECT_EQ(OperationSpec::sylv(17, 64, 64, 16).validate().code,
            StatusCode::InvalidQuery);
  EXPECT_EQ(OperationSpec::sylv(1, 0, 64, 16).validate().code,
            StatusCode::InvalidQuery);
  EXPECT_TRUE(OperationSpec::chol(2, 128, 32).validate().ok());
  EXPECT_EQ(OperationSpec::chol(4, 128, 32).validate().code,
            StatusCode::InvalidQuery);
  // Family names are registry lookups: unknown ones are a parse problem,
  // not a crash (see test_ops.cpp for the registry-level cases).
  EXPECT_EQ(OperationSpec::of("lu", 1, 0, 128, 32).validate().code,
            StatusCode::ParseError);
}

TEST(Query, SpecTraceMatchesFreeFunctions) {
  const CallTrace a = OperationSpec::trinv(2, 250, 100).trace();
  const CallTrace b = trace_trinv(2, 250, 100);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(format_call(a[i]), format_call(b[i]));
  }
  EXPECT_EQ(OperationSpec::sylv(3, 96, 64, 32).trace().size(),
            trace_sylv(3, 96, 64, 32).size());
}

TEST(Query, FamilyFactories) {
  EXPECT_EQ(RankQuery::trinv_variants(128, 32).candidates.size(), 4u);
  EXPECT_EQ(RankQuery::sylv_variants(64, 64, 16).candidates.size(), 16u);
  EXPECT_EQ(RankQuery::chol_variants(128, 32).candidates.size(), 3u);
  EXPECT_EQ(RankQuery::all_variants(OperationSpec::chol(2, 96, 16))
                .candidates.size(),
            3u);
}

// --------------------------------------------------------------- planning

TEST(Plan, DerivesOneJobPerDistinctKeyWithCoveringDomain) {
  const CallTrace trace = trace_trinv(1, 250, 100);
  const SystemSpec system{"blocked", Locality::InCache};
  PlanningPolicy policy;
  const auto jobs = plan_jobs(trace, system, policy);
  // Variant 1: dtrmm(RLNN), dtrsm(LLNN), trinv1_unb.
  ASSERT_EQ(jobs.size(), 3u);
  for (const ModelJob& job : jobs) {
    EXPECT_EQ(job.backend, "blocked");
    EXPECT_EQ(job.request.fixed_ld, policy.fixed_ld);
    EXPECT_EQ(job.request.sampler.locality, Locality::InCache);
    // Every non-degenerate call of the trace must fall inside the domain
    // of its routine's job.
    for (const KernelCall& call : trace) {
      if (std::string(routine_name(call.routine)) !=
              routine_name(job.request.routine) ||
          call.flag_key() != std::string(job.request.flags.begin(),
                                         job.request.flags.end())) {
        continue;
      }
      bool zero = false;
      for (index_t s : call.sizes) zero = zero || s == 0;
      if (!zero) {
        EXPECT_TRUE(job.request.domain.contains(call.sizes));
      }
    }
  }
}

TEST(Plan, OutOfCacheAddsRepetitions) {
  const CallTrace trace = trace_trinv(1, 128, 32);
  PlanningPolicy policy;
  const auto in_jobs =
      plan_jobs(trace, {"blocked", Locality::InCache}, policy);
  const auto out_jobs =
      plan_jobs(trace, {"blocked", Locality::OutOfCache}, policy);
  ASSERT_FALSE(in_jobs.empty());
  EXPECT_EQ(in_jobs[0].request.sampler.reps, policy.reps);
  EXPECT_EQ(out_jobs[0].request.sampler.reps,
            policy.reps + policy.out_of_cache_extra_reps);
}

TEST(Plan, RegionUnionIsBoundingBox) {
  const Region u =
      region_union(Region({8, 16}, {64, 32}), Region({4, 24}, {32, 96}));
  EXPECT_EQ(u, Region({4, 16}, {64, 96}));
}

// ---------------------------------------------------------------- intern

TEST(Intern, DenseStableIds) {
  KeyInterner interner;
  const ModelKey a{"dtrsm", "blocked", Locality::InCache, "LLNN"};
  const ModelKey b{"dtrsm", "blocked", Locality::InCache, "RLNN"};
  const ModelKey c{"dtrsm", "blocked", Locality::OutOfCache, "LLNN"};
  EXPECT_EQ(interner.find(a), -1);
  const int ia = interner.intern(a);
  const int ib = interner.intern(b);
  const int ic = interner.intern(c);
  EXPECT_EQ(ia, 0);
  EXPECT_EQ(ib, 1);
  EXPECT_EQ(ic, 2);  // locality distinguishes keys
  EXPECT_EQ(interner.intern(a), ia);
  EXPECT_EQ(interner.find(b), ib);
  EXPECT_EQ(interner.size(), 3u);
}

// ---------------------------------------------------------------- engine

TEST(Engine, PredictsSpecAndGeneratesModelsOnDemand) {
  TempEngine t("dlap_test_api_predict");
  const auto result =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(3, 160, 32)));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_GT(result->ticks.median, 0.0);
  EXPECT_GT(result->calls, 0);
  EXPECT_EQ(result->missing, 0);
  EXPECT_GT(t.engine.interned_keys(), 0u);
  // Models landed in the repository.
  EXPECT_GT(t.engine.service().repository().list().size(), 0u);

  // A raw trace whose key no spec planned generates on demand too.
  EXPECT_FALSE(t.engine.service().repository().contains(kOneTrsmKey));
  const auto raw = t.engine.predict(PredictQuery::of(one_trsm_call(64, 64)));
  ASSERT_TRUE(raw.ok()) << raw.status().to_string();
  EXPECT_EQ(raw->calls, 1);
  EXPECT_GT(raw->ticks.median, 0.0);
  EXPECT_TRUE(t.engine.service().repository().contains(kOneTrsmKey));
}

TEST(Engine, LazilyLoadsOnlyTheModelsAQueryNeeds) {
  const std::string name = "dlap_test_api_lazy";
  EngineConfig cfg = test_config(name);
  cfg.generate_missing = false;
  TempEngine t(name, std::move(cfg));
  {
    // A repository holding four generated models.
    ModelService generator(test_config(name).service);
    const Region d2({8, 8}, {128, 128});
    std::vector<ModelJob> jobs(4);
    jobs[0].request.routine = RoutineId::Trsm;
    jobs[0].request.flags = {'L', 'U', 'N', 'N'};
    jobs[1].request.routine = RoutineId::Trsm;
    jobs[1].request.flags = {'R', 'L', 'N', 'N'};
    jobs[2].request.routine = RoutineId::Trmm;
    jobs[2].request.flags = {'R', 'L', 'N', 'N'};
    jobs[3].request.routine = RoutineId::Syrk;
    jobs[3].request.flags = {'L', 'N'};
    for (ModelJob& job : jobs) job.request.domain = d2;
    ASSERT_EQ(generator.generate_all(jobs).size(), 4u);
  }
  const ModelRepository& repo = t.engine.service().repository();
  EXPECT_EQ(repo.cache_size(), 0u);

  const auto first = t.engine.predict(PredictQuery::of(one_trsm_call(64, 64)));
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_EQ(first->calls, 1);
  EXPECT_GT(first->ticks.median, 0.0);
  EXPECT_EQ(repo.cache_size(), 1u);  // only the model the trace needed

  // Another point of the same key resolves from the engine's cache.
  ASSERT_TRUE(t.engine.predict(PredictQuery::of(one_trsm_call(96, 96))).ok());
  EXPECT_EQ(repo.cache_size(), 1u);
}

TEST(Engine, InternedPathBitIdenticalToStringKeyedPath) {
  TempEngine t("dlap_test_api_bitident");
  const OperationSpec spec = OperationSpec::trinv(3, 160, 32);
  const auto via_engine = t.engine.predict(PredictQuery::of(spec));
  ASSERT_TRUE(via_engine.ok()) << via_engine.status().to_string();

  // Reference path: assemble the ModelSet by hand from the repository and
  // predict through the string-keyed resolver.
  const CallTrace trace = spec.trace();
  ModelSet set;
  for (const ModelJob& job :
       plan_jobs(trace, t.engine.config().system, t.engine.config().planning)) {
    auto model = t.engine.service().find(ModelService::key_for(job));
    ASSERT_NE(model, nullptr);
    set.add(model);
  }
  const Prediction reference = Predictor(set).predict(trace);
  expect_identical(*via_engine, reference);
}

TEST(Engine, PredictManyMatchesSequentialBitIdentically) {
  TempEngine t("dlap_test_api_many");
  std::vector<PredictQuery> queries;
  std::vector<OperationSpec> specs;
  for (int v = 1; v <= kTrinvVariantCount; ++v) {
    for (index_t n : {96, 128}) {
      specs.push_back(OperationSpec::trinv(v, n, 32));
      queries.push_back(PredictQuery::of(specs.back()));
    }
  }
  queries.push_back(queries.front());  // duplicate key coverage
  // Resolve all models up front: the bit-identity contract compares the
  // two dispatch paths over the same resolved models (concurrent
  // on-demand generation may legitimately settle domains in a different
  // order otherwise).
  ASSERT_TRUE(t.engine.prepare(specs).ok());
  const auto batched = t.engine.predict_many(queries);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto sequential = t.engine.predict(queries[i]);
    ASSERT_TRUE(batched[i].ok()) << batched[i].status().to_string();
    ASSERT_TRUE(sequential.ok());
    expect_identical(*batched[i], *sequential);
  }
}

TEST(Engine, SubmitRunsAsynchronously) {
  TempEngine t("dlap_test_api_submit");
  std::future<Result<Prediction>> f =
      t.engine.submit(PredictQuery::of(OperationSpec::trinv(1, 128, 32)));
  const Result<Prediction> async = f.get();
  ASSERT_TRUE(async.ok()) << async.status().to_string();
  const auto sync =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(1, 128, 32)));
  ASSERT_TRUE(sync.ok());
  expect_identical(*async, *sync);

  std::future<Result<Ranking>> fr =
      t.engine.submit(RankQuery::trinv_variants(128, 32));
  const Result<Ranking> ranking = fr.get();
  ASSERT_TRUE(ranking.ok()) << ranking.status().to_string();
  EXPECT_EQ(ranking->predictions.size(), 4u);
}

TEST(Engine, DestructionDrainsDroppedSubmits) {
  // Dropping a submitted query's future and destroying the engine must be
  // safe: the service pool (destroyed first) drains the queued task while
  // the interner/cache it touches are still alive.
  for (int i = 0; i < 8; ++i) {
    TempEngine t("dlap_test_api_drop");
    for (int v = 1; v <= kTrinvVariantCount; ++v) {
      (void)t.engine.submit(
          PredictQuery::of(OperationSpec::trinv(v, 96 + 16 * i, 16)));
    }
    // futures dropped; ~Engine runs with work possibly still queued
  }
  SUCCEED();
}

TEST(Engine, RankOrdersByMedianTicks) {
  TempEngine t("dlap_test_api_rank");
  const auto result = t.engine.rank(RankQuery::trinv_variants(160, 32));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const Ranking& ranked = *result;
  ASSERT_EQ(ranked.predictions.size(), 4u);
  ASSERT_EQ(ranked.order.size(), 4u);
  EXPECT_EQ(ranked.order, rank_order(ranked.median_ticks()));
  EXPECT_EQ(ranked.best(), ranked.order[0]);
  // Each candidate's prediction matches an individual query bit for bit.
  for (std::size_t i = 0; i < ranked.candidates.size(); ++i) {
    const auto single =
        t.engine.predict(PredictQuery::of(ranked.candidates[i]));
    ASSERT_TRUE(single.ok());
    expect_identical(ranked.predictions[i], *single);
  }
}

TEST(Engine, TunePicksArgminOfSweep) {
  TempEngine t("dlap_test_api_tune");
  TuneQuery q;
  q.spec = OperationSpec::trinv(2, 160, 16);
  q.lo = 16;
  q.hi = 80;
  q.step = 16;
  const auto result = t.engine.tune(q);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const TuneResult& tuned = *result;
  EXPECT_EQ(tuned.values,
            (std::vector<index_t>{16, 32, 48, 64, 80}));
  ASSERT_EQ(tuned.predictions.size(), tuned.values.size());
  const auto medians = tuned.median_ticks();
  for (double m : medians) {
    EXPECT_GE(m, medians[static_cast<std::size_t>(tuned.best_index)]);
  }
  EXPECT_EQ(tuned.best_value(),
            tuned.values[static_cast<std::size_t>(tuned.best_index)]);
}

TEST(Engine, PredictCallParsesAndPredictsText) {
  TempEngine t("dlap_test_api_text");
  const auto good =
      t.engine.predict_call("dtrsm(L,L,N,N,96,64,1,A,512,B,512)");
  ASSERT_TRUE(good.ok()) << good.status().to_string();
  EXPECT_GT(good->median, 0.0);

  const auto garbage = t.engine.predict_call("dtrsm(L,L");
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code, StatusCode::ParseError);

  const auto invalid =
      t.engine.predict_call("dtrsm(L,L,N,N,-4,64,1,A,512,B,512)");
  ASSERT_FALSE(invalid.ok());
  EXPECT_TRUE(invalid.status().code == StatusCode::ParseError ||
              invalid.status().code == StatusCode::InvalidQuery);
}

TEST(Engine, RanksCholVariantsThroughTheRegistry) {
  // The third operation family flows through the same registry-driven
  // pipeline: rank all three Cholesky variants, check per-candidate
  // bit-identity with single predictions.
  TempEngine t("dlap_test_api_chol");
  const auto result = t.engine.rank(RankQuery::chol_variants(160, 32));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const Ranking& ranked = *result;
  ASSERT_EQ(ranked.predictions.size(), 3u);
  EXPECT_EQ(ranked.order, rank_order(ranked.median_ticks()));
  for (std::size_t i = 0; i < ranked.candidates.size(); ++i) {
    const auto single =
        t.engine.predict(PredictQuery::of(ranked.candidates[i]));
    ASSERT_TRUE(single.ok()) << single.status().to_string();
    expect_identical(ranked.predictions[i], *single);
  }
}

TEST(Engine, UnknownOperationFamilyReportsParseError) {
  TempEngine t("dlap_test_api_unknown_op");
  const auto pred = t.engine.predict(
      PredictQuery::of(OperationSpec::of("nosuchop", 1, 0, 128, 32)));
  ASSERT_FALSE(pred.ok());
  EXPECT_EQ(pred.status().code, StatusCode::ParseError);

  const auto rank = t.engine.rank(
      RankQuery::all_variants(OperationSpec::of("nosuchop", 1, 0, 128, 32)));
  ASSERT_FALSE(rank.ok());
  EXPECT_EQ(rank.status().code, StatusCode::ParseError);

  TuneQuery tq;
  tq.spec = OperationSpec::of("nosuchop", 1, 0, 128, 32);
  const auto tune = t.engine.tune(tq);
  ASSERT_FALSE(tune.ok());
  EXPECT_EQ(tune.status().code, StatusCode::ParseError);
}

TEST(Engine, InvalidSpecsReportInvalidQuery) {
  TempEngine t("dlap_test_api_invalid");
  const auto bad_variant =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(9, 128, 32)));
  ASSERT_FALSE(bad_variant.ok());
  EXPECT_EQ(bad_variant.status().code, StatusCode::InvalidQuery);

  RankQuery empty;
  const auto bad_rank = t.engine.rank(empty);
  ASSERT_FALSE(bad_rank.ok());
  EXPECT_EQ(bad_rank.status().code, StatusCode::InvalidQuery);

  TuneQuery bad_sweep;
  bad_sweep.spec = OperationSpec::trinv(1, 128, 16);
  bad_sweep.lo = 64;
  bad_sweep.hi = 16;
  const auto bad_tune = t.engine.tune(bad_sweep);
  ASSERT_FALSE(bad_tune.ok());
  EXPECT_EQ(bad_tune.status().code, StatusCode::InvalidQuery);
}

TEST(Engine, DegenerateOnlyTraceIsAValidNoOp) {
  // The only call is zero-size: it is skipped, never resolved, so the
  // query needs no model at all.
  TempEngine t("dlap_test_api_degen_skip");
  const CallTrace trace{parse_call("dgemm(N,N,0,64,64,1,A,64,B,64,0,C,64)")};
  const auto skipped = t.engine.predict(PredictQuery::of(trace));
  ASSERT_TRUE(skipped.ok()) << skipped.status().to_string();
  EXPECT_EQ(skipped->skipped, 1);
  EXPECT_EQ(skipped->calls, 0);
  EXPECT_EQ(t.engine.service().repository().list().size(), 0u);
}

TEST(Engine, MissingModelWhenGenerationDisabled) {
  EngineConfig cfg = test_config("dlap_test_api_missing");
  cfg.generate_missing = false;
  TempEngine t("dlap_test_api_missing", std::move(cfg));
  const auto result =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(1, 128, 32)));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code, StatusCode::MissingModel);

  // A raw trace misses the same way.
  const auto raw = t.engine.predict(PredictQuery::of(one_trsm_call(64, 64)));
  ASSERT_FALSE(raw.ok());
  EXPECT_EQ(raw.status().code, StatusCode::MissingModel);
}

TEST(Engine, UncoveredDomainWhenGenerationDisabled) {
  const std::string name = "dlap_test_api_uncovered";
  EngineConfig cfg = test_config(name);
  cfg.generate_missing = false;
  TempEngine t(name, std::move(cfg));
  // Seed the repository with models for a small operation...
  {
    EngineConfig gen_cfg = test_config(name);
    Engine generator(gen_cfg);
    const auto small = generator.predict(
        PredictQuery::of(OperationSpec::trinv(1, 96, 32)));
    ASSERT_TRUE(small.ok()) << small.status().to_string();
  }
  // ... the small queries now work without generation ...
  const auto small =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(1, 96, 32)));
  ASSERT_TRUE(small.ok()) << small.status().to_string();
  // ... but a larger operation falls outside the stored domains.
  const auto large =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(1, 512, 64)));
  ASSERT_FALSE(large.ok());
  EXPECT_EQ(large.status().code, StatusCode::UncoveredDomain);
}

TEST(Engine, GrowsStoredDomainInsteadOfPingPonging) {
  TempEngine t("dlap_test_api_grow");
  // Two queries with disjoint parameter ranges for the same keys.
  const auto small =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(1, 96, 16)));
  ASSERT_TRUE(small.ok());
  const auto large =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(1, 256, 64)));
  ASSERT_TRUE(large.ok());
  // The regenerated model's domain must still cover the small query: a
  // repeat of it resolves from cache/repository without regeneration and
  // stays bit-identical.
  const auto small_again =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(1, 96, 16)));
  ASSERT_TRUE(small_again.ok());
  // (Values differ from `small` only if the model was regenerated over a
  // wider domain -- which region_union makes a superset, so the repeat
  // must evaluate inside a covering domain either way.)
  EXPECT_EQ(small_again->calls, small->calls);
  EXPECT_EQ(small_again->missing, 0);
}

TEST(Engine, PrepareWarmsSoQueriesNeedNoGeneration) {
  const std::string name = "dlap_test_api_prepare";
  TempEngine t(name);
  const auto specs = RankQuery::trinv_variants(192, 48).candidates;
  ASSERT_TRUE(t.engine.prepare(specs).ok());
  const std::size_t stored = t.engine.service().repository().list().size();
  EXPECT_GT(stored, 0u);
  // A read-only engine over the same repository can now answer.
  EngineConfig ro = test_config(name + "_ro");
  ro.service.repository_dir = t.dir;
  ro.generate_missing = false;
  Engine reader(ro);
  for (const OperationSpec& spec : specs) {
    const auto r = reader.predict(PredictQuery::of(spec));
    EXPECT_TRUE(r.ok()) << r.status().to_string();
  }
}

TEST(Engine, PrepareReportsGenerationThenReuse) {
  TempEngine t("dlap_test_api_prepare_report");
  const auto specs = RankQuery::trinv_variants(192, 48).candidates;

  // Cold prepare: every key generated, every point freshly measured.
  PrepareReport cold;
  ASSERT_TRUE(t.engine.prepare(specs, {}, &cold).ok());
  ASSERT_FALSE(cold.keys.empty());
  EXPECT_EQ(cold.keys_generated(),
            static_cast<index_t>(cold.keys.size()));
  EXPECT_GT(cold.points_measured(), 0);
  EXPECT_EQ(cold.points_from_disk(), 0);
  for (const PrepareReport::Key& key : cold.keys) {
    EXPECT_TRUE(key.generated) << key.key.to_string();
    EXPECT_GT(key.unique_samples, 0);
  }

  // Second prepare: nothing to do, nothing measured.
  PrepareReport again;
  ASSERT_TRUE(t.engine.prepare(specs, {}, &again).ok());
  EXPECT_EQ(again.keys.size(), cold.keys.size());
  EXPECT_EQ(again.keys_generated(), 0);
  EXPECT_EQ(again.keys_reused(), static_cast<index_t>(again.keys.size()));
  EXPECT_EQ(again.points_measured(), 0);
}

TEST(Engine, FreshEngineWarmStartsFromSampleRepository) {
  const std::string name = "dlap_test_api_warmstart";
  namespace fs = std::filesystem;
  const fs::path sample_dir =
      fs::temp_directory_path() / (name + "_samples");
  fs::remove_all(sample_dir);
  const auto specs = RankQuery::trinv_variants(160, 32).candidates;

  PrepareReport cold;
  {
    EngineConfig cfg = test_config(name + "_cold");
    cfg.service.sample_dir = sample_dir;
    TempEngine t(name + "_cold", std::move(cfg));
    ASSERT_TRUE(t.engine.prepare(specs, {}, &cold).ok());
    EXPECT_GT(cold.points_measured(), 0);
  }

  // A fresh engine with an EMPTY model repository but the existing
  // sample repository regenerates every model with zero measurements.
  EngineConfig cfg = test_config(name + "_warm");
  cfg.service.sample_dir = sample_dir;
  TempEngine warm(name + "_warm", std::move(cfg));
  PrepareReport report;
  ASSERT_TRUE(warm.engine.prepare(specs, {}, &report).ok());
  EXPECT_EQ(report.keys_generated(),
            static_cast<index_t>(report.keys.size()));
  EXPECT_EQ(report.points_measured(), 0);
  EXPECT_GT(report.points_from_disk(), 0);
  EXPECT_EQ(report.points_from_disk(), cold.points_measured());
  fs::remove_all(sample_dir);
}

}  // namespace
}  // namespace dlap
