#include "inproc.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <mutex>
#include <thread>

#include "sampler/stats.hpp"
#include "server/handlers.hpp"
#include "server/json.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using dlap::server::Json;

/// Runs fn(i) for i in [0, n) on `threads` threads.
void parallel(int threads, std::size_t n,
              const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

dlap::server::HttpRequest parse_wire(const Request& request) {
  dlap::server::HttpParser parser;
  parser.feed(request.wire);
  return parser.request();
}

/// Specs a query's answer covers, in answer order, with the index of the
/// picked one (-1 for predict).
struct Answered {
  std::vector<dlap::OperationSpec> specs;
  std::vector<double> predicted;
  long pick = -1;
};

bool answer(dlap::Engine& engine, const Request& request, Answered* out) {
  const Json body = Json::parse(request.body);
  switch (request.kind) {
    case Kind::Predict: {
      dlap::PredictQuery q;
      if (!dlap::server::bind_predict(body, &q).ok()) return false;
      const auto r = engine.predict(q);
      if (!r.ok()) return false;
      out->specs = {*q.spec};
      out->predicted = {r->ticks.median};
      return true;
    }
    case Kind::Rank: {
      dlap::RankQuery q;
      if (!dlap::server::bind_rank(body, &q).ok()) return false;
      const auto r = engine.rank(q);
      if (!r.ok()) return false;
      out->specs = r->candidates;
      out->predicted = r->median_ticks();
      out->pick = static_cast<long>(r->best());
      return true;
    }
    case Kind::Tune: {
      dlap::TuneQuery q;
      if (!dlap::server::bind_tune(body, &q).ok()) return false;
      const auto r = engine.tune(q);
      if (!r.ok()) return false;
      for (const dlap::index_t b : r->values) {
        dlap::OperationSpec spec = q.spec;
        spec.blocksize = b;
        out->specs.push_back(spec);
      }
      out->predicted = r->median_ticks();
      out->pick = static_cast<long>(r->best_index);
      return true;
    }
  }
  return false;
}

/// Specs whose traces a request makes the engine evaluate.
std::vector<dlap::OperationSpec> query_specs(const Request& request,
                                             const Json& body) {
  switch (request.kind) {
    case Kind::Predict: {
      dlap::PredictQuery q;
      static_cast<void>(dlap::server::bind_predict(body, &q));
      return {*q.spec};
    }
    case Kind::Rank: {
      dlap::RankQuery q;
      static_cast<void>(dlap::server::bind_rank(body, &q));
      return q.candidates;
    }
    case Kind::Tune: {
      dlap::TuneQuery q;
      static_cast<void>(dlap::server::bind_tune(body, &q));
      std::vector<dlap::OperationSpec> out;
      for (dlap::index_t b = q.lo; b <= q.hi; b += q.step) {
        out.push_back(q.spec);
        out.back().blocksize = b;
      }
      return out;
    }
  }
  return {};
}

class SpanLog {
 public:
  explicit SpanLog(std::vector<Span>* spans) : spans_(spans) {}

  std::int32_t open(const char* name, std::int32_t parent,
                    std::uint32_t request) {
    spans_->push_back({name, now_us(), 0.0, parent, request});
    return static_cast<std::int32_t>(spans_->size() - 1);
  }
  double close(std::int32_t id) {
    Span& s = (*spans_)[static_cast<std::size_t>(id)];
    s.end_us = now_us();
    return s.end_us - s.start_us;
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  std::vector<Span>* spans_;
  Clock::time_point origin_ = Clock::now();
};

double p50(std::vector<double> v) {
  return v.empty() ? 0.0 : dlap::quantile(std::move(v), 0.5);
}

}  // namespace

dlap::EngineConfig serving_config(const std::filesystem::path& repo) {
  dlap::EngineConfig config;
  config.service.repository_dir = repo;
  config.service.workers = 1;
  config.generate_missing = false;
  return config;
}

dlap::server::HttpResponse handle(dlap::Engine& engine,
                                  const Request& request) {
  const dlap::server::HttpRequest http = parse_wire(request);
  switch (request.kind) {
    case Kind::Predict: return dlap::server::handle_predict(engine, http);
    case Kind::Rank: return dlap::server::handle_rank(engine, http);
    case Kind::Tune: return dlap::server::handle_tune(engine, http);
  }
  return {};
}

std::vector<std::string> render_expected(dlap::Engine& engine,
                                         const Workload& workload,
                                         const std::vector<std::uint32_t>& ids,
                                         int threads,
                                         std::uint64_t* failures) {
  std::vector<std::string> out(workload.requests.size());
  std::atomic<std::uint64_t> failed{0};
  parallel(threads, ids.size(), [&](std::size_t i) {
    dlap::server::HttpResponse r = handle(engine, workload.requests[ids[i]]);
    if (r.status != 200) failed.fetch_add(1);
    out[ids[i]] = std::move(r.body);
  });
  *failures += failed.load();
  return out;
}

Quality score(dlap::Engine& engine, const Surface& surface,
              const Workload& workload, const std::vector<std::uint32_t>& ids,
              int threads) {
  Quality q;
  std::mutex mutex;
  parallel(threads, ids.size(), [&](std::size_t i) {
    Answered a;
    if (!answer(engine, workload.requests[ids[i]], &a)) {
      std::lock_guard<std::mutex> lock(mutex);
      ++q.failures;
      return;
    }
    std::vector<double> truth;
    std::uint64_t checks = 0, mismatches = 0;
    for (const dlap::OperationSpec& spec : a.specs) {
      const dlap::CallTrace trace = spec.trace();
      truth.push_back(surface.truth(dlap::CompiledTrace::compile(trace)));
      if (i < 64) {  // the compiled sum must equal the call-by-call sum
        ++checks;
        const double direct = surface.truth_direct(trace);
        if (std::abs(direct - truth.back()) > 1e-9 * direct) ++mismatches;
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    q.truth_checks += checks;
    q.truth_mismatches += mismatches;
    for (std::size_t k = 0; k < truth.size(); ++k) {
      q.rel_err.push_back(std::abs(a.predicted[k] - truth[k]) / truth[k]);
    }
    if (a.pick >= 0) {
      ++q.picks;
      const double best = *std::min_element(truth.begin(), truth.end());
      if (truth[static_cast<std::size_t>(a.pick)] <= 1.01 * best) ++q.hits;
    }
  });
  return q;
}

ReplayReport replay(const std::filesystem::path& repo,
                    const Workload& workload, std::size_t count) {
  ReplayReport report;
  const auto request_at = [&](std::size_t k) -> const Request& {
    return workload.requests[workload.stream[k % workload.stream.size()]];
  };
  const auto warm = [&](dlap::Engine& engine) {
    for (const std::uint32_t id : workload.warmup) {
      static_cast<void>(handle(engine, workload.requests[id]));
    }
  };

  // Untraced: what dlapd runs per request, timed as a whole.
  std::vector<std::string> bodies(count);
  std::vector<double> whole_us(count), handle_us(count);
  {
    dlap::Engine engine(serving_config(repo));
    warm(engine);
    for (std::size_t k = 0; k < count; ++k) {
      const Clock::time_point t0 = Clock::now();
      const dlap::server::HttpRequest http = parse_wire(request_at(k));
      const Clock::time_point t1 = Clock::now();
      dlap::server::HttpResponse r;
      switch (request_at(k).kind) {
        case Kind::Predict: r = dlap::server::handle_predict(engine, http); break;
        case Kind::Rank: r = dlap::server::handle_rank(engine, http); break;
        case Kind::Tune: r = dlap::server::handle_tune(engine, http); break;
      }
      const Clock::time_point t2 = Clock::now();
      whole_us[k] = std::chrono::duration<double, std::micro>(t2 - t0).count();
      handle_us[k] = std::chrono::duration<double, std::micro>(t2 - t1).count();
      bodies[k] = std::move(r.body);
    }
  }

  // Traced: the same requests on a fresh engine, one span per entry point.
  SpanLog log(&report.spans);
  report.spans.reserve(count * 24);
  std::uint64_t trace_calls = 0, source_calls = 0, unique_calls = 0;
  std::uint64_t eval_points = 0;
  std::vector<double> after_reload_us;
  dlap::LruStats before{}, after{};
  {
    dlap::Engine engine(serving_config(repo));
    warm(engine);
    // Models for the probes, resolved once per (routine, flags).
    std::map<std::string, std::shared_ptr<const dlap::RoutineModel>> models;
    const auto model_for = [&](const dlap::CompiledKey& key) {
      const std::string routine = dlap::routine_name(key.routine);
      auto& slot = models[routine + "/" + key.flags];
      if (slot == nullptr) {
        slot = engine.service().find(
            dlap::ModelKey{routine, "blocked", dlap::Locality::InCache, key.flags});
      }
      return slot.get();
    };
    before = engine.trace_cache_stats();
    for (std::size_t k = 0; k < count; ++k) {
      const Request& request = request_at(k);
      const auto id = static_cast<std::uint32_t>(k);
      const std::int32_t root = log.open("server.request", -1, id);
      std::int32_t s = log.open("server.http_parse", root, id);
      const dlap::server::HttpRequest http = parse_wire(request);
      log.close(s);
      s = log.open("server.json_parse", root, id);
      const Json body = Json::parse(http.body);
      log.close(s);
      Json rendered;
      bool ok = false;
      switch (request.kind) {
        case Kind::Predict: {
          dlap::PredictQuery q;
          s = log.open("server.bind", root, id);
          ok = dlap::server::bind_predict(body, &q).ok();
          log.close(s);
          s = log.open("api.predict", root, id);
          const auto r = engine.predict(q);
          log.close(s);
          if (!(ok = ok && r.ok())) break;
          s = log.open("server.render", root, id);
          rendered = dlap::server::render_prediction(*r);
          log.close(s);
          break;
        }
        case Kind::Rank: {
          dlap::RankQuery q;
          s = log.open("server.bind", root, id);
          ok = dlap::server::bind_rank(body, &q).ok();
          log.close(s);
          s = log.open("api.rank", root, id);
          const auto r = engine.rank(q);
          log.close(s);
          if (!(ok = ok && r.ok())) break;
          s = log.open("server.render", root, id);
          rendered = dlap::server::render_ranking(*r);
          log.close(s);
          break;
        }
        case Kind::Tune: {
          dlap::TuneQuery q;
          s = log.open("server.bind", root, id);
          ok = dlap::server::bind_tune(body, &q).ok();
          log.close(s);
          s = log.open("api.tune", root, id);
          const auto r = engine.tune(q);
          log.close(s);
          if (!(ok = ok && r.ok())) break;
          s = log.open("server.render", root, id);
          rendered = dlap::server::render_tune(*r);
          log.close(s);
          break;
        }
      }
      std::string text;
      if (ok) {
        s = log.open("server.json_dump", root, id);
        text = rendered.dump();
        log.close(s);
      }
      log.close(root);
      ++report.attempted;
      if (!ok || text != bodies[k]) ++report.failed;

      // Probes: the lower layers' entry points on the request's specs.
      const std::int32_t probe = log.open("bench.probe", -1, id);
      for (const dlap::OperationSpec& spec : query_specs(request, body)) {
        s = log.open("ops.trace", probe, id);
        const dlap::CallTrace trace = spec.trace();
        log.close(s);
        s = log.open("predict.compile", probe, id);
        const dlap::CompiledTrace compiled = dlap::CompiledTrace::compile(trace);
        log.close(s);
        trace_calls += trace.size();
        source_calls += static_cast<std::uint64_t>(compiled.source_calls());
        unique_calls += static_cast<std::uint64_t>(compiled.unique_calls());
        std::vector<const dlap::RoutineModel*> by_key;
        for (const dlap::CompiledKey& key : compiled.keys()) {
          by_key.push_back(model_for(key));
        }
        s = log.open("predict.eval", probe, id);
        static_cast<void>(compiled.predict(by_key));
        log.close(s);
        s = log.open("modeler.evaluate_many", probe, id);
        std::vector<dlap::SampleStats> out;
        for (std::size_t key = 0; key < compiled.keys().size(); ++key) {
          if (by_key[key] == nullptr) continue;
          std::vector<const std::vector<double>*> points;
          for (const std::uint32_t e : compiled.entries_of(static_cast<int>(key))) {
            points.push_back(&compiled.entries()[e].point);
          }
          by_key[key]->model.evaluate_many(points, out);
          eval_points += points.size();
        }
        log.close(s);
      }
      log.close(probe);
    }
    after = engine.trace_cache_stats();

    // First query after a reload: the model cache is dropped and every
    // compiled snapshot expires.
    for (int r = 0; r < 3; ++r) {
      if (!engine.reload().ok()) ++report.failed;
      const Clock::time_point t0 = Clock::now();
      static_cast<void>(handle(engine, request_at(0)));
      after_reload_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
  }

  // Per-request sums per span name, and self times per layer.
  std::vector<double> child_us(report.spans.size(), 0.0);
  for (const Span& s : report.spans) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, std::vector<double>> per_request;  // name -> [k]
  std::map<std::string, std::vector<double>> self_per_request;  // layer -> [k]
  for (std::size_t i = 0; i < report.spans.size(); ++i) {
    const Span& s = report.spans[i];
    const std::string name = s.name;
    auto& sums = per_request[name];
    sums.resize(count, -1.0);
    sums[s.request] = std::max(0.0, sums[s.request]) + (s.end_us - s.start_us);
    const std::string layer = name.substr(0, name.find('.'));
    auto& self = self_per_request[layer];
    self.resize(count, 0.0);
    self[s.request] += s.end_us - s.start_us - child_us[i];
  }
  const auto median_of = [&](const std::string& name) {
    std::vector<double> v;
    for (const double x : per_request[name]) {
      if (x >= 0.0) v.push_back(x);
    }
    return p50(std::move(v));
  };
  auto& m = report.metrics;
  m["server.handle_us"] = p50(handle_us);
  m["server.request_us"] = p50(whole_us);
  m["server.http_parse_us"] = median_of("server.http_parse");
  {
    std::vector<double> json(count, 0.0);
    for (const char* name : {"server.json_parse", "server.json_dump"}) {
      std::vector<double>& sums = per_request[name];
      sums.resize(count, -1.0);
      for (std::size_t k = 0; k < count; ++k) json[k] += std::max(0.0, sums[k]);
    }
    m["server.json_us"] = p50(json);
  }
  m["server.bind_us"] = median_of("server.bind");
  m["server.render_us"] = median_of("server.render");
  m["ops.trace_us"] = median_of("ops.trace");
  m["ops.trace_calls"] = static_cast<double>(trace_calls);
  m["predict.compile_us"] = median_of("predict.compile");
  m["predict.eval_us"] = median_of("predict.eval");
  m["predict.source_calls"] = static_cast<double>(source_calls);
  m["predict.unique_calls"] = static_cast<double>(unique_calls);
  m["predict.dedupe_ratio"] =
      static_cast<double>(source_calls) / static_cast<double>(unique_calls);
  m["api.predict_us"] = median_of("api.predict");
  m["api.rank_us"] = median_of("api.rank");
  m["api.tune_us"] = median_of("api.tune");
  const double lookups =
      static_cast<double>((after.hits - before.hits) + (after.misses - before.misses));
  m["api.trace_cache_lookups"] = lookups;
  m["api.trace_cache_hit_ratio"] =
      static_cast<double>(after.hits - before.hits) / lookups;
  m["api.first_query_after_reload_us"] = p50(after_reload_us);
  {
    double total = 0.0;
    for (const double x : per_request["modeler.evaluate_many"]) {
      total += std::max(0.0, x);
    }
    m["modeler.eval_ns_per_point"] = 1000.0 * total / static_cast<double>(eval_points);
  }
  for (const char* layer : {"server", "api", "ops", "predict", "modeler"}) {
    m[std::string("layer.") + layer + ".self_us"] = p50(self_per_request[layer]);
  }
  double traced = 0.0, untraced = 0.0;
  per_request["server.request"].resize(count, 0.0);
  for (std::size_t k = 0; k < count; ++k) {
    traced += per_request["server.request"][k];
    untraced += whole_us[k];
  }
  m["trace.request_us"] = median_of("server.request");
  m["trace.overhead_frac"] = traced / untraced - 1.0;
  m["trace.spans"] = static_cast<double>(report.spans.size());
  return report;
}

void write_spans(const std::vector<Span>& spans,
                 const std::filesystem::path& path) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::ofstream out(path);
  char line[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                  "\"parent\":%d,\"request\":%u,\"self_us\":%.3f}\n",
                  s.name, s.start_us, s.end_us, s.parent, s.request,
                  s.end_us - s.start_us - child_us[i]);
    out << line;
  }
}

}  // namespace perfbench
