#include "api/engine.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "ops/registry.hpp"
#include "predict/ranking.hpp"

namespace dlap {

namespace {

// True while the current thread is executing an engine task on the
// service's ThreadPool. Fanning out again from such a thread (nested
// parallel_for_each / generate_all) can deadlock a saturated pool, so
// pool-side work generates inline and runs batches sequentially instead.
thread_local bool tls_on_engine_pool = false;

struct PoolScope {
  bool prev = tls_on_engine_pool;
  PoolScope() { tls_on_engine_pool = true; }
  ~PoolScope() { tls_on_engine_pool = prev; }
};

/// True when `model` exists and its domain covers `needed`.
bool covers_needed(const RoutineModel* model, const Region& needed) {
  return model != nullptr && model->model.domain().dims() == needed.dims() &&
         model->model.domain().covers(needed);
}

Status internal_error(const char* where, const std::exception& e) {
  return Status::error(StatusCode::InternalError,
                       std::string(where) + ": " + e.what());
}

}  // namespace

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      trace_cache_(static_cast<std::size_t>(
          std::max<index_t>(0, config_.trace_cache_capacity))),
      service_(config_.service) {}

Engine::~Engine() {
  std::unique_lock<std::mutex> lock(pending_mutex_);
  pending_cv_.wait(lock, [this] { return pending_ == 0; });
}

template <class Fn>
auto Engine::submit_tracked(Fn&& fn) -> std::future<decltype(fn())> {
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    ++pending_;
  }
  try {
    return service_.pool().submit(
        [this, fn = std::forward<Fn>(fn)]() -> decltype(fn()) {
          struct Finish {
            Engine* engine;
            ~Finish() {
              std::lock_guard<std::mutex> lock(engine->pending_mutex_);
              if (--engine->pending_ == 0) engine->pending_cv_.notify_all();
            }
          } finish{this};
          PoolScope scope;
          return fn();
        });
  } catch (...) {
    // Enqueue failed: no task will ever run the Finish guard, so roll the
    // count back or ~Engine waits forever.
    std::lock_guard<std::mutex> lock(pending_mutex_);
    if (--pending_ == 0) pending_cv_.notify_all();
    throw;
  }
}

Engine::PlanFn Engine::spec_plan(std::vector<OperationSpec> specs,
                                 const SystemSpec& system) const {
  return [specs = std::move(specs), system, policy = config_.planning] {
    return plan_jobs_for_specs(specs, system, policy);
  };
}

// ------------------------------------------------------------ compilation

std::shared_ptr<CompiledSweepPoint> Engine::compile_trace(
    const CallTrace& trace, const SystemSpec& system) {
  CompiledTrace compiled = CompiledTrace::compile(trace);
  std::vector<int> ids;
  ids.reserve(compiled.keys().size());
  for (const CompiledKey& key : compiled.keys()) {
    // One interner probe per DISTINCT key of the trace, not per call --
    // and a heterogeneous one: no temporary ModelKey strings.
    ids.push_back(interner_.intern(ModelKeyRef{routine_name(key.routine),
                                               system.backend,
                                               system.locality, key.flags}));
  }
  return std::make_shared<CompiledSweepPoint>(std::move(compiled),
                                              std::move(ids));
}

std::shared_ptr<CompiledSweepPoint> Engine::compile_spec(
    const OperationSpec& spec, const SystemSpec& system) {
  const SweepPointKey key{spec.op,        spec.variant,   spec.m, spec.n,
                          spec.blocksize, system.backend, system.locality};
  if (auto hit = trace_cache_.find(key)) return hit;
  auto point = compile_trace(spec.trace(), system);
  trace_cache_.insert(key, point);
  return point;
}

// ------------------------------------------------------------- resolution

Status Engine::resolve(
    const std::vector<const CompiledSweepPoint*>& points,
    const SystemSpec& system, const PlanFn& plan,
    std::vector<std::shared_ptr<const ResolvedSlots>>* slots) noexcept {
  try {
    slots->assign(points.size(), nullptr);
    const std::uint64_t version = model_version_.load(std::memory_order_acquire);

    // --- Fast path: reuse every snapshot still current at `version`. ---
    std::vector<std::size_t> stale;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (auto snap = points[i]->slots(version)) {
        (*slots)[i] = std::move(snap);
      } else {
        stale.push_back(i);
      }
    }
    if (stale.empty()) return {};

    // --- Gather the per-key parameter ranges the stale points need, ----
    // one Need per interned id, bounding boxes over UNIQUE entries only.
    struct Need {
      ModelKey key;
      Region needed;  // bounding box of the key's unique calls
      std::vector<index_t> lo, hi;
    };
    std::map<int, Need> needs;
    for (const std::size_t i : stale) {
      const CompiledTrace& trace = points[i]->trace();
      const std::vector<int>& ids = points[i]->ids();
      for (std::size_t k = 0; k < trace.keys().size(); ++k) {
        Need& need = needs[ids[k]];
        if (need.key.routine.empty()) {
          const CompiledKey& ck = trace.keys()[k];
          need.key = ModelKey{routine_name(ck.routine), system.backend,
                              system.locality, ck.flags};
        }
        for (const std::uint32_t e : trace.entries_of(static_cast<int>(k))) {
          const CompiledCall& call = trace.entries()[e];
          if (need.lo.empty()) {
            need.lo = call.sizes;
            need.hi = call.sizes;
          } else {
            for (std::size_t d = 0; d < need.lo.size(); ++d) {
              need.lo[d] = std::min(need.lo[d], call.sizes[d]);
              need.hi[d] = std::max(need.hi[d], call.sizes[d]);
            }
          }
        }
      }
    }
    // Every compiled key has at least one entry (zero-size calls never
    // compile into one), so every box is non-empty.
    for (auto& [id, need] : needs) need.needed = Region(need.lo, need.hi);

    // --- Phase A: satisfy from the engine cache, then the repository. ---
    std::map<int, std::shared_ptr<const RoutineModel>> resolved;
    {
      std::shared_lock<std::shared_mutex> lock(cache_mutex_);
      for (const auto& [id, need] : needs) {
        if (static_cast<std::size_t>(id) < cache_.size() &&
            covers_needed(cache_[static_cast<std::size_t>(id)].get(),
                          need.needed)) {
          resolved[id] = cache_[static_cast<std::size_t>(id)];
        }
      }
    }
    struct PendingGen {
      int id;
      ModelJob job;
    };
    std::vector<PendingGen> to_generate;
    std::vector<ModelJob> planned;
    bool planned_built = false;
    for (const auto& [id, need] : needs) {
      if (resolved.count(id) != 0) continue;
      std::shared_ptr<const RoutineModel> stored = service_.find(need.key);
      if (covers_needed(stored.get(), need.needed)) {
        resolved[id] = std::move(stored);
        continue;
      }
      if (!config_.generate_missing) {
        if (stored == nullptr) {
          return Status::error(StatusCode::MissingModel,
                               "no model for " + need.key.to_string() +
                                   " and on-demand generation is disabled");
        }
        return Status::error(
            StatusCode::UncoveredDomain,
            "stored model " + need.key.to_string() + " covers " +
                stored->model.domain().to_string() + " but the query needs " +
                need.needed.to_string() +
                " and on-demand generation is disabled");
      }
      if (!planned_built) {
        planned = plan();
        planned_built = true;
      }
      const auto it = std::find_if(
          planned.begin(), planned.end(), [&need = need](const ModelJob& j) {
            return ModelService::key_for(j) == need.key;
          });
      if (it == planned.end()) {
        return Status::error(StatusCode::InternalError,
                             "planner produced no job for " +
                                 need.key.to_string());
      }
      ModelJob job = *it;
      if (stored != nullptr &&
          stored->model.domain().dims() == job.request.domain.dims()) {
        // Grow the stored domain instead of replacing it, so queries with
        // disjoint parameter ranges do not regenerate back and forth.
        job.request.domain =
            region_union(job.request.domain, stored->model.domain());
      }
      to_generate.push_back({id, std::move(job)});
    }

    // --- Phase B: generate what is missing. One concurrent batch when on
    // the caller's thread; inline when already on a pool worker (nested
    // fan-out could deadlock a saturated pool). -------------------------
    if (!to_generate.empty()) {
      if (!tls_on_engine_pool) {
        std::vector<ModelJob> jobs;
        jobs.reserve(to_generate.size());
        for (const PendingGen& p : to_generate) jobs.push_back(p.job);
        try {
          const auto models = service_.generate_all(jobs);
          for (std::size_t i = 0; i < to_generate.size(); ++i) {
            resolved[to_generate[i].id] = models[i];
          }
        } catch (const std::exception& e) {
          return Status::error(StatusCode::GenerationFailed, e.what());
        }
      } else {
        for (const PendingGen& p : to_generate) {
          std::string error;
          auto model = service_.try_get_or_generate(p.job, &error);
          if (model == nullptr) {
            return Status::error(StatusCode::GenerationFailed,
                                 needs[p.id].key.to_string() + ": " + error);
          }
          resolved[p.id] = std::move(model);
        }
      }
    }

    // --- Phase C: verify coverage, warm the model cache, stamp slots. --
    for (const auto& [id, need] : needs) {
      const RoutineModel* model = resolved.at(id).get();
      if (!covers_needed(model, need.needed)) {
        return Status::error(
            StatusCode::UncoveredDomain,
            "model " + need.key.to_string() + " covers " +
                model->model.domain().to_string() +
                " but the query needs " + need.needed.to_string());
      }
    }
    bool changed = false;
    {
      std::unique_lock<std::shared_mutex> lock(cache_mutex_);
      if (cache_.size() < interner_.size()) cache_.resize(interner_.size());
      for (const auto& [id, model] : resolved) {
        auto& slot = cache_[static_cast<std::size_t>(id)];
        if (slot == model) continue;  // same pointer: nothing to invalidate
        // Entries only ever widen: a concurrent resolve that satisfied a
        // narrower query from the repository must not shrink a wider
        // cached model.
        if (slot == nullptr ||
            (model->model.domain().dims() == slot->model.domain().dims() &&
             model->model.domain().covers(slot->model.domain()))) {
          slot = model;
          changed = true;
        }
      }
      // The bump happens under the SAME lock as the writes: any reader
      // that observes a changed entry through the lock also observes the
      // moved version, so its freshness re-check below cannot miss it.
      if (changed) model_version_.fetch_add(1, std::memory_order_acq_rel);
    }

    // --- Build the snapshots from the verified Phase A/B models. -------
    // Snapshots are stamped with the PRE-resolution version: when this
    // resolve (or a concurrent one) changed models, they self-expire and
    // the next query performs one cheap all-Phase-A refresh, then
    // stabilizes. Stamping the post-change version instead could mask a
    // concurrent generation's update forever.
    const bool version_moved =
        changed ||
        model_version_.load(std::memory_order_acquire) != version;
    for (const std::size_t i : stale) {
      const std::vector<int>& ids = points[i]->ids();
      auto snap = std::make_shared<ResolvedSlots>();
      snap->assign(ids.size(), version);
      for (std::size_t k = 0; k < ids.size(); ++k) {
        const auto it = resolved.find(ids[k]);
        if (it == resolved.end()) continue;  // degenerate-only key
        snap->set(k, it->second);
      }
      // With a moved version this snapshot is only the base for the
      // upgrade pass below, which builds (and stores) the final one.
      if (!version_moved) points[i]->store_slots(snap);
      (*slots)[i] = std::move(snap);
    }

    // When some model changed (here or on a concurrent thread) while this
    // resolve was reading, the per-point results could mix model
    // generations within ONE query (e.g. a ranking comparing candidates
    // resolved before and after a regeneration). Upgrade every point's
    // slots in a single locked pass over the cache: a slot moves to the
    // cached model ONLY when that model covers the verified one's domain
    // (hence the point's needs) -- a concurrently generated model for a
    // disjoint range must not displace the model the point was verified
    // against.
    if (version_moved) {
      std::shared_lock<std::shared_mutex> lock(cache_mutex_);
      for (std::size_t i = 0; i < points.size(); ++i) {
        const std::vector<int>& ids = points[i]->ids();
        const ResolvedSlots& base = *(*slots)[i];
        auto snap = std::make_shared<ResolvedSlots>();
        snap->assign(ids.size(), version);
        for (std::size_t k = 0; k < ids.size(); ++k) {
          const auto id = static_cast<std::size_t>(ids[k]);
          std::shared_ptr<const RoutineModel> use = base.pins[k];
          if (id < cache_.size() && cache_[id] != nullptr &&
              use != nullptr && cache_[id] != use &&
              cache_[id]->model.domain().dims() ==
                  use->model.domain().dims() &&
              cache_[id]->model.domain().covers(use->model.domain())) {
            use = cache_[id];
          }
          snap->set(k, std::move(use));
        }
        points[i]->store_slots(snap);
        (*slots)[i] = std::move(snap);
      }
    }
    return {};
  } catch (const std::exception& e) {
    return internal_error("Engine::resolve", e);
  }
}

// ---------------------------------------------------------------- queries

Result<Prediction> Engine::predict(const PredictQuery& query) noexcept {
  try {
    const SystemSpec system = effective_system(query.system);
    std::shared_ptr<CompiledSweepPoint> point;
    PlanFn plan;
    if (query.spec.has_value()) {
      if (Status s = query.spec->validate(); !s.ok()) return s;
      point = compile_spec(*query.spec, system);
      plan = spec_plan({*query.spec}, system);
    } else {
      point = compile_trace(query.trace, system);
      plan = [trace = &query.trace, system, policy = config_.planning] {
        return plan_jobs(*trace, system, policy);
      };
    }
    std::vector<std::shared_ptr<const ResolvedSlots>> slots;
    if (Status s = resolve({point.get()}, system, plan, &slots); !s.ok()) {
      return s;
    }
    if (config_.query_hook) config_.query_hook();
    return point->trace().predict(slots[0]->models);
  } catch (const std::exception& e) {
    return internal_error("Engine::predict", e);
  }
}

Result<Ranking> Engine::rank(const RankQuery& query) noexcept {
  try {
    if (query.candidates.empty()) {
      return Status::error(StatusCode::InvalidQuery,
                           "rank: empty candidate set");
    }
    const SystemSpec system = effective_system(query.system);
    std::vector<std::shared_ptr<CompiledSweepPoint>> points;
    points.reserve(query.candidates.size());
    for (const OperationSpec& spec : query.candidates) {
      if (Status s = spec.validate(); !s.ok()) return s;
      points.push_back(compile_spec(spec, system));
    }
    std::vector<const CompiledSweepPoint*> ptrs;
    ptrs.reserve(points.size());
    for (const auto& p : points) ptrs.push_back(p.get());

    std::vector<std::shared_ptr<const ResolvedSlots>> slots;
    if (Status s = resolve(ptrs, system, spec_plan(query.candidates, system),
                           &slots);
        !s.ok()) {
      return s;
    }

    Ranking out;
    out.candidates = query.candidates;
    out.predictions.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      out.predictions.push_back(points[i]->trace().predict(slots[i]->models));
    }
    out.order = rank_order(out.median_ticks());
    return out;
  } catch (const std::exception& e) {
    return internal_error("Engine::rank", e);
  }
}

Result<TuneResult> Engine::tune(const TuneQuery& query) noexcept {
  try {
    if (query.lo < 1 || query.step < 1 || query.hi < query.lo) {
      return Status::error(StatusCode::InvalidQuery,
                           "tune: sweep must satisfy 1 <= lo <= hi, "
                           "step >= 1");
    }
    const SystemSpec system = effective_system(query.system);
    TuneResult out;
    std::vector<OperationSpec> specs;
    std::vector<std::shared_ptr<CompiledSweepPoint>> points;
    for (index_t b = query.lo; b <= query.hi; b += query.step) {
      OperationSpec spec = query.spec;
      spec.blocksize = b;
      if (Status s = spec.validate(); !s.ok()) return s;
      out.values.push_back(b);
      points.push_back(compile_spec(spec, system));
      specs.push_back(std::move(spec));
    }
    std::vector<const CompiledSweepPoint*> ptrs;
    ptrs.reserve(points.size());
    for (const auto& p : points) ptrs.push_back(p.get());

    std::vector<std::shared_ptr<const ResolvedSlots>> slots;
    if (Status s = resolve(ptrs, system, spec_plan(specs, system), &slots);
        !s.ok()) {
      return s;
    }

    out.predictions.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      out.predictions.push_back(points[i]->trace().predict(slots[i]->models));
    }
    out.best_index = static_cast<index_t>(rank_order(out.median_ticks())[0]);
    return out;
  } catch (const std::exception& e) {
    return internal_error("Engine::tune", e);
  }
}

Result<SampleStats> Engine::predict_call(
    const std::string& call_text, std::optional<SystemSpec> system) noexcept {
  try {
    KernelCall call;
    try {
      call = parse_call(call_text);
      validate_call(call);
    } catch (const parse_error& e) {
      return Status::error(StatusCode::ParseError, e.what());
    } catch (const invalid_argument_error& e) {
      return Status::error(StatusCode::InvalidQuery, e.what());
    }
    PredictQuery query;
    query.trace = CallTrace{std::move(call)};
    query.system = system;
    Result<Prediction> p = predict(query);
    if (!p.ok()) return p.status();
    return p->ticks;
  } catch (const std::exception& e) {
    return internal_error("Engine::predict_call", e);
  }
}

std::vector<Result<Prediction>> Engine::predict_many(
    const std::vector<PredictQuery>& queries) {
  std::vector<Result<Prediction>> results(
      queries.size(),
      Result<Prediction>(
          Status::error(StatusCode::InternalError, "query not executed")));
  if (queries.empty()) return results;
  if (tls_on_engine_pool) {
    // Already on a pool worker (e.g. a submitted task batching further
    // queries): fanning out again could deadlock; stay sequential.
    for (std::size_t i = 0; i < queries.size(); ++i) {
      results[i] = predict(queries[i]);
    }
    return results;
  }
  service_.pool().parallel_for_each(
      static_cast<index_t>(queries.size()), [&](index_t i) {
        PoolScope scope;
        results[static_cast<std::size_t>(i)] =
            predict(queries[static_cast<std::size_t>(i)]);
      });
  return results;
}

std::future<Result<Prediction>> Engine::submit(PredictQuery query) {
  return submit_tracked(
      [this, query = std::move(query)] { return predict(query); });
}

std::future<Result<Ranking>> Engine::submit(RankQuery query) {
  return submit_tracked(
      [this, query = std::move(query)] { return rank(query); });
}

std::future<Result<TuneResult>> Engine::submit(TuneQuery query) {
  return submit_tracked(
      [this, query = std::move(query)] { return tune(query); });
}

Status Engine::prepare(const std::vector<OperationSpec>& specs,
                       std::optional<SystemSpec> system,
                       PrepareReport* report) noexcept {
  try {
    const SystemSpec sys = effective_system(system);
    // Stats recorded after this stamp were caused by this call (the
    // service stamps every generate/reuse record with a fresh epoch).
    // The attribution is best-effort under concurrent engine use: a
    // record another thread stamps while this prepare runs (overlapping
    // prepare, or on-demand generation of a shared key) is claimed by
    // whichever report reads it -- acceptable for a warm-up diagnostic.
    const std::uint64_t epoch0 = service_.stats_epoch();
    std::vector<std::shared_ptr<CompiledSweepPoint>> points;
    points.reserve(specs.size());
    for (const OperationSpec& spec : specs) {
      if (Status s = spec.validate(); !s.ok()) return s;
      points.push_back(compile_spec(spec, sys));
    }
    std::vector<const CompiledSweepPoint*> ptrs;
    ptrs.reserve(points.size());
    for (const auto& p : points) ptrs.push_back(p.get());

    // Memoize the plan: resolve computes it only when models are
    // missing, and the report loop below reuses that same computation
    // (planning re-traces every spec -- never pay for it twice).
    auto memo = std::make_shared<std::optional<std::vector<ModelJob>>>();
    const PlanFn plan = [memo, inner = spec_plan(specs, sys)] {
      if (!memo->has_value()) *memo = inner();
      return **memo;
    };
    std::vector<std::shared_ptr<const ResolvedSlots>> slots;
    Status status = resolve(ptrs, sys, plan, &slots);
    if (!status.ok() || report == nullptr) return status;

    // Per-key accounting: every key the specs plan to, attributed to
    // this call when its stats record is newer than epoch0 (otherwise
    // the key was satisfied from the engine cache / an earlier run).
    report->keys.clear();
    std::set<ModelKey> seen;
    for (const ModelJob& job : plan()) {
      const ModelKey key = ModelService::key_for(job);
      if (!seen.insert(key).second) continue;
      PrepareReport::Key entry;
      entry.key = key;
      if (const auto stats = service_.generation_stats(key);
          stats.has_value() && stats->epoch > epoch0 && stats->generated) {
        entry.generated = true;
        entry.unique_samples = stats->unique_samples;
        entry.points_measured = stats->points_measured;
        entry.points_from_memory = stats->points_from_memory;
        entry.points_from_disk = stats->points_from_disk;
        entry.wall_ms = stats->wall_ms;
      }
      // Provenance of whatever model now serves the key (reused keys
      // included): text file, binary container, or this-process build.
      if (const auto model = service_.find(key)) {
        entry.source = model->source;
      }
      report->keys.push_back(std::move(entry));
    }
    return status;
  } catch (const std::exception& e) {
    return internal_error("Engine::prepare", e);
  }
}

Status Engine::reload(const std::vector<OperationSpec>& specs,
                      std::optional<SystemSpec> system,
                      PrepareReport* report) noexcept {
  try {
    service_.reload_container();
  } catch (const std::exception& e) {
    // Corrupt/unreadable container file: serving continues on the
    // previous attachment, but the operator must know the swap failed.
    return Status::error(StatusCode::InternalError,
                         std::string("Engine::reload: ") + e.what());
  }
  try {
    {
      std::unique_lock<std::shared_mutex> lock(cache_mutex_);
      for (auto& slot : cache_) slot.reset();
      // Same-lock bump as resolve(): every ResolvedSlots snapshot
      // stamped before this expires, so the next query per sweep point
      // re-resolves against the reloaded repository.
      model_version_.fetch_add(1, std::memory_order_acq_rel);
    }
    if (!specs.empty()) return prepare(specs, system, report);
    return {};
  } catch (const std::exception& e) {
    return internal_error("Engine::reload", e);
  }
}

index_t PrepareReport::keys_generated() const noexcept {
  index_t n = 0;
  for (const Key& k : keys) n += k.generated ? 1 : 0;
  return n;
}

index_t PrepareReport::keys_reused() const noexcept {
  return static_cast<index_t>(keys.size()) - keys_generated();
}

index_t PrepareReport::keys_from_container() const noexcept {
  index_t n = 0;
  for (const Key& k : keys) n += k.from_container() ? 1 : 0;
  return n;
}

index_t PrepareReport::points_measured() const noexcept {
  index_t n = 0;
  for (const Key& k : keys) n += k.points_measured;
  return n;
}

index_t PrepareReport::points_from_memory() const noexcept {
  index_t n = 0;
  for (const Key& k : keys) n += k.points_from_memory;
  return n;
}

index_t PrepareReport::points_from_disk() const noexcept {
  index_t n = 0;
  for (const Key& k : keys) n += k.points_from_disk;
  return n;
}

}  // namespace dlap
