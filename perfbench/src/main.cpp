// perfbench -- the end-to-end benchmark program for dlaperf.
//
//   perfbench --workload serve_hot|sweep_cold|generate_reload --seed N
//             --seconds S --trace 0|1 --dlapd PATH --work DIR
//
// Builds the workload's model container from the synthetic surface,
// serves it with a dlapd child process, drives the workload's seeded
// request stream through it and checks every answer byte for byte
// against the in-process Engine render. --trace 0 prints the end-to-end
// metrics; --trace 1 replays the stream in-process with spans around each
// layer's entry points and prints the per-layer metrics. The last stdout
// line is the result object; any wrong answer exits nonzero.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <atomic>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "inproc.hpp"
#include "load.hpp"
#include "modeler/repository.hpp"
#include "net.hpp"
#include "sampler/stats.hpp"
#include "server/json.hpp"
#include "storage/container.hpp"
#include "storage/pack.hpp"
#include "surface.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Load shape: one process, two keep-alive client connections against two
// dlapd connection workers, so clients + workers fit a 4-core host.
constexpr int kClients = 2;
constexpr int kConnWorkers = 2;
const std::vector<std::string> kDlapdFlags = {
    "--conn-workers", std::to_string(kConnWorkers), "--workers", "1",
    "--queue", "64", "--no-generate"};
constexpr double kShiftB = 0.04;  // container B's surface perturbation
constexpr int kRounds = 6;       // closed/open segment pairs per run
constexpr double kSettleSeconds = 1.0;

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : dlap::quantile(std::move(v), 0.5);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dlapd;
  fs::path work;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") a->workload = value;
    else if (key == "--seed") a->seed = std::stoull(value);
    else if (key == "--seconds") a->seconds = std::stod(value);
    else if (key == "--trace") a->trace = value == "1";
    else if (key == "--dlapd") a->dlapd = value;
    else if (key == "--work") a->work = value;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->dlapd.empty() &&
         !a->work.empty() && a->seconds > 0.0;
}

// ------------------------------------------------------------ host facts

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

/// Size of the highest cache level cpu0 reports, e.g. "32768K".
std::string llc_size() {
  std::string best = "unknown";
  int best_level = 0;
  for (int i = 0; i < 8; ++i) {
    const fs::path dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    std::ifstream level_in(dir / "level"), size_in(dir / "size");
    int level = 0;
    std::string size;
    if (level_in >> level && size_in >> size && level > best_level) {
      best_level = level;
      best = size;
    }
  }
  return best;
}

// ------------------------------------------------------------ container

/// FNV-1a over the container's models in their canonical text form. The
/// models are deterministic; the order of the sample records is not (the
/// measurement fan-out appends them as batches complete).
std::uint64_t hash_models(const fs::path& file) {
  const auto reader = dlap::storage::ContainerReader::open(file);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < reader->model_count(); ++i) {
    for (const char c : dlap::ModelRepository::serialize(*reader->model(i).load())) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
  }
  return h;
}

std::uintmax_t tree_bytes(const fs::path& dir) {
  std::uintmax_t total = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

struct Built {
  double prepare_s = 0.0;
  double pack_s = 0.0;
  dlap::PrepareReport report;
  std::uint64_t measure_calls = 0;
  std::uintmax_t journal_bytes = 0;
  std::uintmax_t container_bytes = 0;
  std::uint64_t models_hash = 0;
  std::uint64_t fit_checks = 0;
  std::uint64_t fit_violations = 0;
  bool ok = false;
};

/// Generates the workload's models from the surface into an empty `repo`
/// (Engine::prepare over the workload's envelope), then compacts them
/// into repo/repository.dlapc. Checks on the way that every fitted model,
/// evaluated at its own sample points, returns the surface value within
/// the fit error of a region containing the point.
Built build_container(const Workload& w, const Surface& surface,
                      const fs::path& repo) {
  Built out;
  fs::remove_all(repo);
  fs::create_directories(repo);
  struct Point {
    dlap::ModelKey key;
    std::vector<dlap::index_t> at;
    double value;
  };
  std::mutex mutex;
  std::vector<Point> points;
  std::atomic<std::uint64_t> calls{0};
  {
    dlap::EngineConfig config;
    config.service.repository_dir = repo;
    config.service.workers = 2;
    const auto factory = surface.factory(&calls);
    config.service.measure_factory = [&](const dlap::ModelJob& job) {
      const dlap::MeasureFn inner = factory(job);
      const dlap::ModelKey key = dlap::ModelService::key_for(job);
      return dlap::MeasureFn([&, inner, key](const std::vector<dlap::index_t>& p) {
        const dlap::SampleStats s = inner(p);
        std::lock_guard<std::mutex> lock(mutex);
        points.push_back({key, p, s.median});
        return s;
      });
    };
    dlap::Engine engine(config);
    const Clock::time_point t0 = Clock::now();
    const dlap::Status status = engine.prepare(w.envelope, {}, &out.report);
    out.prepare_s = elapsed_s(t0);
    if (!status.ok()) {
      std::cerr << "perfbench: prepare failed: " << status.to_string() << '\n';
      return out;
    }
    // Each region's polynomial, evaluated at the grid it was fitted on,
    // must return the surface's value within that region's fit error.
    std::map<std::string, std::map<std::vector<dlap::index_t>, double>> measured;
    for (const Point& p : points) measured[p.key.to_string()][p.at] = p.value;
    const dlap::GeneratorConfig& fit = config.service.refinement.base;
    for (const Point& p : points) {
      auto& at = measured[p.key.to_string()];
      if (at.empty()) continue;  // key already checked
      const auto model = engine.service().find(p.key);
      if (model == nullptr) {
        ++out.fit_violations;
        continue;
      }
      for (const dlap::RegionModel& piece : model->model.pieces()) {
        const int dims = piece.region.dims();
        for (const auto& g : piece.region.sample_grid(
                 dlap::effective_grid_points(fit, dims), fit.granularity)) {
          ++out.fit_checks;
          const auto it = at.find(g);
          const double got =
              piece.poly.evaluate(std::vector<double>(g.begin(), g.end())).median;
          if (it == at.end() ||
              std::abs(got - it->second) >
                  (piece.fit_error * (1.0 + 1e-6) + 1e-12) * it->second) {
            ++out.fit_violations;
          }
        }
      }
      at.clear();
    }
  }
  out.measure_calls = calls.load();
  out.journal_bytes = tree_bytes(repo / "samples");
  const Clock::time_point t1 = Clock::now();
  static_cast<void>(dlap::storage::compact_repository(repo));
  out.pack_s = elapsed_s(t1);
  const fs::path file = repo / "repository.dlapc";
  out.container_bytes = fs::file_size(file);
  out.models_hash = hash_models(file);
  out.ok = out.fit_violations == 0;
  return out;
}

// --------------------------------------------------------------- output

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void fact(const std::string& key, const std::string& json_value) {
    facts_.emplace_back(key, json_value);
  }
  static std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
  }
  static std::string str(const std::string& s) { return "\"" + s + "\""; }

  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    for (const auto& m : metrics_) {
      std::printf("# %-36s %16s %s\n", m.name.c_str(), num(m.value).c_str(),
                  m.unit.c_str());
    }
    std::string metrics = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) metrics += ", ";
      metrics += str(metrics_[i].name) + ": {\"value\": " +
                 num(metrics_[i].value) + ", \"unit\": " +
                 str(metrics_[i].unit) + "}";
    }
    metrics += "}";
    std::string record = "{";
    for (const auto& [key, value] : facts_) record += str(key) + ": " + value + ", ";
    record += "\"metrics\": " + metrics + "}";
    std::printf("perfbench-result %s\n", record.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> facts_;
};

// ------------------------------------------------------------ measuring

/// Closed-loop throughput per window of about 0.5 s: correct answers /
/// window length.
std::vector<double> window_rates(const PhaseResult& r) {
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(r.seconds / 0.5));
  const double length = r.seconds / static_cast<double>(windows);
  std::vector<double> counts(windows, 0.0);
  for (std::size_t i = 0; i < r.done_s.size(); ++i) {
    const auto w = static_cast<std::size_t>(r.done_s[i] / length);
    if (w < windows && std::isfinite(r.latency_us[i])) counts[w] += 1.0;
  }
  for (double& c : counts) c /= length;
  return counts;
}

/// Open-loop latency quantile: the phase split in due order into chunks
/// of at least 1000 requests (so p99 has 10 samples beyond it), the
/// quantile per chunk, the median over chunks.
double chunked_quantile(const PhaseResult& r, double q) {
  std::vector<std::size_t> order(r.latency_us.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return r.due_s[a] < r.due_s[b]; });
  const std::size_t chunks =
      std::max<std::size_t>(order.size() / 1000, 1);
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<double> v;
    for (std::size_t i = c * order.size() / chunks;
         i < (c + 1) * order.size() / chunks; ++i) {
      v.push_back(r.latency_us[order[i]]);
    }
    per_chunk.push_back(dlap::quantile(std::move(v), q));
  }
  return median(per_chunk);
}

/// Request-mix latency quantile: each distinct request's latency is the
/// median of its send-to-answer times over `r`, and the quantile is taken
/// over the requests sent, each counted at its request's median. A host
/// stall delays a few sends of a request but not its median, so the tail
/// this reports is the request mix's (its slowest queries), not the host's.
double mix_quantile(const PhaseResult& r, double q) {
  std::map<std::uint32_t, std::vector<double>> by_request;
  for (std::size_t i = 0; i < r.ids.size(); ++i) {
    by_request[r.ids[i]].push_back(r.service_us[i]);
  }
  std::map<std::uint32_t, double> typical;
  for (auto& [id, times] : by_request) typical[id] = median(std::move(times));
  std::vector<double> sent;
  sent.reserve(r.ids.size());
  for (const std::uint32_t id : r.ids) sent.push_back(typical[id]);
  return sent.empty() ? 0.0 : dlap::quantile(std::move(sent), q);
}

/// Checks the answers whose expected body was not known under load.
void verify_deferred(dlap::Engine& engine, const Workload& w, Expected* expected,
                     PhaseResult* result) {
  std::vector<std::uint32_t> missing;
  std::vector<char> seen(w.requests.size(), 0);
  for (const Answer& a : result->deferred) {
    if (expected->a[a.id].empty() && !seen[a.id]) {
      seen[a.id] = 1;
      missing.push_back(a.id);
    }
  }
  std::uint64_t render_failures = 0;
  std::vector<std::string> rendered =
      render_expected(engine, w, missing, host_cpus(), &render_failures);
  for (const std::uint32_t id : missing) expected->a[id] = std::move(rendered[id]);
  result->failed += render_failures;
  std::vector<Answer> deferred = std::move(result->deferred);
  result->deferred.clear();
  for (Answer& a : deferred) {
    PhaseResult check;
    if (!check_answer(*expected, a.id, 200, std::move(a.body), &check)) {
      ++result->failed;
      for (std::string& n : check.notes) result->notes.push_back(std::move(n));
    }
  }
}

/// GET /v1/stats on `conn`; throws when the daemon does not answer.
dlap::server::Json get_stats(Conn& conn) {
  int status = 0;
  std::string body;
  if (!conn.roundtrip("GET /v1/stats HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
                      &status, &body) ||
      status != 200) {
    throw std::runtime_error("GET /v1/stats failed");
  }
  return dlap::server::Json::parse(body);
}

double stat(const dlap::server::Json& stats, const char* group,
            const char* field) {
  const auto* g = stats.find(group);
  const auto* f = g == nullptr ? nullptr : g->find(field);
  return f == nullptr ? -1.0 : f->as_number();
}

int run(const Args& args) {
  const int cpus = host_cpus();
  if (kClients + kConnWorkers > cpus) {
    std::cerr << "perfbench: " << kClients << " client connections + "
              << kConnWorkers << " dlapd workers exceed the " << cpus
              << " available cores; refusing to run\n";
    return 2;
  }
  const Workload w = make_workload(args.workload, args.seed);
  const Surface surface_a(0.0), surface_b(kShiftB);
  fs::remove_all(args.work);
  fs::create_directories(args.work);
  const fs::path repo = args.work / "repo";
  const fs::path log = args.work / "dlapd.log";
  const fs::path a_file = args.work / "A.dlapc", b_file = args.work / "B.dlapc";

  Report report;
  std::string flags;
  for (const std::string& f : kDlapdFlags) flags += (flags.empty() ? "" : " ") + f;
  report.fact("workload", Report::str(w.name));
  report.fact("seed", std::to_string(args.seed));
  report.fact("trace", args.trace ? "1" : "0");
  report.fact("seconds", Report::num(args.seconds));
  report.fact("nproc", std::to_string(cpus));
  report.fact("llc", Report::str(llc_size()));
  report.fact("compiler", Report::str(PERFBENCH_COMPILER));
  report.fact("build_type", Report::str(PERFBENCH_BUILD_TYPE));
  report.fact("dlapd_flags", Report::str(flags));
  report.fact("clients", std::to_string(kClients));
  std::printf("# perfbench workload=%s seed=%llu trace=%d seconds=%g nproc=%d "
              "llc=%s compiler=\"%s\" build=%s dlapd=[%s]\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, args.seconds, cpus, llc_size().c_str(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, flags.c_str());

  bool checks_ok = true;
  const auto require = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "perfbench: check failed: " << what << '\n';
      checks_ok = false;
    }
  };
  PhaseResult total;  // every query request this run sent, and its checks
  Expected expected;
  expected.a.assign(w.requests.size(), "");

  // ----- containers and set-up
  if (w.reload) {
    const Built b = build_container(w, surface_b, args.work / "repo_b");
    require(b.ok, "container B: fitted models off their samples");
    fs::create_hard_link(args.work / "repo_b" / "repository.dlapc", b_file);
  }
  const int setups = args.trace ? 1 : 15;
  std::vector<double> setup_s;
  Built built;
  std::unique_ptr<Dlapd> daemon;
  for (int r = 0; r < setups; ++r) {
    if (daemon) require(daemon->stop(), "dlapd exited cleanly");
    daemon.reset();
    double generate_s = 0.0;
    if (r == 0 || w.reload) {
      const std::uint64_t previous = built.models_hash;
      built = build_container(w, surface_a, repo);
      require(built.ok, "container A: fitted models off their samples");
      require(r == 0 || built.models_hash == previous,
              "container A's models are identical across rebuilds");
      generate_s = built.prepare_s + built.pack_s;
    }
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Dlapd>(args.dlapd, repo, log, kDlapdFlags);
    merge(&total, send_sequential(w, expected, daemon->port(), w.warmup));
    setup_s.push_back((w.reload ? generate_s : 0.0) + elapsed_s(t0));
  }
  fs::create_hard_link(repo / "repository.dlapc", a_file);
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(built.models_hash));
  report.fact("models_fnv1a", Report::str(hash));

  // ----- expected answers (hot sets up front; the cold sweep afterwards)
  dlap::Engine engine_a(serving_config(repo));
  const bool hot = w.name != "sweep_cold";
  if (hot) {
    expected.a = render_expected(engine_a, w, w.warmup, cpus, &total.failed);
  }
  if (w.reload) {
    dlap::Engine engine_b(serving_config(args.work / "repo_b"));
    expected.b = render_expected(engine_b, w, w.warmup, cpus, &total.failed);
  }
  ReloadPlan plan{repo / "repository.dlapc", a_file, b_file};
  std::size_t cursor = 0;
  const int port = daemon->port();

  if (!args.trace) {
    // Pick quality of container A, scored before the load starts.
    const Quality q = score(engine_a, surface_a, w, w.quality, cpus);
    total.attempted += w.quality.size();
    total.failed += q.failures;
    require(q.truth_mismatches == 0, "compiled truth equals call-by-call truth");

    // ----- end-to-end: closed-loop and open-loop segments, interleaved so
    // a noisy stretch of the host hits both and the medians shed it.
    PhaseResult closed, open;
    std::vector<double> qps_windows;
    // Untimed settle: the trace cache fills (and starts evicting on the
    // cold sweep) before the first timed window. Answers are still checked.
    merge(&total, run_phase(w, expected,
                            {port, kClients, kSettleSeconds, 0.0, &cursor,
                             w.reload ? &plan : nullptr}));
    const double rate = w.open_rate;
    for (int r = 0; r < kRounds; ++r) {
      PhaseResult c = run_phase(
          w, expected,
          {port, kClients, 0.4 * args.seconds / kRounds, 0.0, &cursor,
           w.reload ? &plan : nullptr});
      const std::vector<double> rates = window_rates(c);
      qps_windows.insert(qps_windows.end(), rates.begin(), rates.end());
      merge(&closed, std::move(c));
      PhaseResult o = run_phase(
          w, expected,
          {port, kClients, 0.6 * args.seconds / kRounds, rate, &cursor,
           w.reload ? &plan : nullptr});
      for (double& due : o.due_s) due += 1e3 * r;  // keep segments in order
      merge(&open, std::move(o));
    }
    const double rss = daemon->peak_rss_mb();
    const std::uint64_t closed_requests = closed.attempted;
    require(daemon->stop(), "dlapd exited cleanly");
    require(plan.refused == 0, "every reload POST answered 202");

    const double qps = median(qps_windows);
    const double open_p50 = chunked_quantile(open, 0.5);
    const double open_p99 = chunked_quantile(open, 0.99);
    const double lag99 = open.lag_us.empty() ? 0.0 : dlap::quantile(open.lag_us, 0.99);
    const std::size_t open_samples = open.latency_us.size();
    // Latency of the request mix over every timed request, closed and
    // open loop; the open loop's quantiles from each scheduled send are
    // stamped beside it.
    PhaseResult timed = std::move(closed);
    merge(&timed, std::move(open));
    const double p50 = mix_quantile(timed, 0.5);
    const double p99 = mix_quantile(timed, 0.99);
    const double cpu = timed.cpu_s;
    merge(&total, std::move(timed));
    verify_deferred(engine_a, w, &expected, &total);

    report.add("qps", qps, "1/s");
    report.add("lat_p50_us", p50, "us");
    report.add("lat_p99_us", p99, "us");
    report.add("setup_s", median(setup_s), "s");
    report.add("rss_mb", rss, "MB");
    report.add("pick_hit",
               static_cast<double>(q.hits) / static_cast<double>(q.picks), "frac");
    report.add("pred_err_p50", median(q.rel_err), "frac");
    report.fact("failed_frac", Report::num(static_cast<double>(total.failed) /
                                           static_cast<double>(total.attempted)));
    report.fact("open_rate", Report::num(rate));
    report.fact("open_samples", std::to_string(open_samples));
    report.fact("closed_requests", std::to_string(closed_requests));
    report.fact("fit_checks", std::to_string(built.fit_checks));
    report.fact("truth_checks", std::to_string(q.truth_checks));
    report.fact("picks_scored", std::to_string(q.picks));
    report.fact("predictions_scored", std::to_string(q.rel_err.size()));
    report.fact("reloads", std::to_string(plan.posted));
    report.fact("client.cpu_s", Report::num(cpu));
    report.fact("client.lag_p99_us", Report::num(lag99));
    report.fact("client.open_p50_us", Report::num(open_p50));
    report.fact("client.open_p99_us", Report::num(open_p99));
    std::printf("# failed_frac %s (%llu of %llu); open loop %zu samples at %g/s, "
                "p50 %.1f us, p99 %.1f us from scheduled send; client cpu "
                "%.3f s, lag p99 %.1f us; reloads %llu\n",
                Report::num(static_cast<double>(total.failed) /
                            static_cast<double>(total.attempted)).c_str(),
                static_cast<unsigned long long>(total.failed),
                static_cast<unsigned long long>(total.attempted), open_samples,
                rate, open_p50, open_p99, cpu, lag99,
                static_cast<unsigned long long>(plan.posted));
  } else {
    // ----- traced: short open loop for the client view, reload timing,
    // then the in-process replays.
    std::vector<double> open_ms;
    for (int r = 0; r < 5; ++r) {
      const Clock::time_point t0 = Clock::now();
      const auto reader = dlap::storage::ContainerReader::open(a_file);
      open_ms.push_back(1e3 * elapsed_s(t0));
    }
    double samples = 0.0, regions = 0.0, fit_error = 0.0;
    const auto reader = dlap::storage::ContainerReader::open(a_file);
    for (std::size_t i = 0; i < reader->model_count(); ++i) {
      const auto model = reader->model(i).load();
      samples += static_cast<double>(model->unique_samples);
      regions += static_cast<double>(model->model.pieces().size());
      fit_error += model->average_error;
    }
    const auto keys = static_cast<double>(reader->model_count());

    const PhaseResult open = run_phase(
        w, expected,
        {port, kClients, 0.5 * args.seconds, w.open_rate, &cursor,
         w.reload ? &plan : nullptr});
    Conn admin(port);
    const dlap::server::Json stats = get_stats(admin);
    std::vector<double> reload_ms;
    for (int r = 0; r < 3; ++r) {
      plan.next_is_b = w.reload && !plan.next_is_b;
      plan.swap();
      const double before = stat(get_stats(admin), "reload", "completed");
      const Clock::time_point t0 = Clock::now();
      int status = 0;
      std::string body;
      require(admin.roundtrip("POST /v1/admin/reload HTTP/1.1\r\n"
                              "Host: 127.0.0.1\r\nContent-Length: 2\r\n\r\n{}",
                              &status, &body) && status == 202,
              "reload POST answered 202");
      bool done = false;
      while (!(done = stat(get_stats(admin), "reload", "completed") > before) &&
             elapsed_s(t0) < 10.0) {
      }
      require(done, "reload completes within 10 s");
      reload_ms.push_back(1e3 * elapsed_s(t0));
    }
    admin.close();
    require(daemon->stop(), "dlapd exited cleanly");
    const double client_p50 = dlap::quantile(open.latency_us, 0.5);
    const double lag99 = dlap::quantile(open.lag_us, 0.99);
    const double cpu = open.cpu_s;
    merge(&total, PhaseResult(open));
    verify_deferred(engine_a, w, &expected, &total);

    const ReplayReport replayed = replay(repo, w, hot ? 4000 : 300);
    total.attempted += replayed.attempted;
    total.failed += replayed.failed;
    const fs::path spans = args.work.parent_path() /
                           ("spans-" + w.name + "-" + std::to_string(args.seed) +
                            ".jsonl");
    write_spans(replayed.spans, spans);
    std::printf("# spans written to %s\n", spans.c_str());

    const auto& m = replayed.metrics;
    const auto layer = [&](const char* name, const char* unit) {
      report.add(name, m.at(name), unit);
    };
    layer("server.handle_us", "us");
    layer("server.http_parse_us", "us");
    layer("server.json_us", "us");
    layer("server.bind_us", "us");
    layer("server.render_us", "us");
    report.add("server.unattributed_us", client_p50 - m.at("server.request_us"), "us");
    report.add("server.queue_peak", stat(stats, "queue", "peak"), "count");
    report.add("server.shed",
               stat(stats, "server", "shed_queue_full") +
                   stat(stats, "server", "rate_limited"),
               "count");
    layer("ops.trace_us", "us");
    layer("ops.trace_calls", "count");
    layer("predict.compile_us", "us");
    layer("predict.dedupe_ratio", "ratio");
    layer("predict.source_calls", "count");
    layer("predict.unique_calls", "count");
    layer("predict.eval_us", "us");
    layer("api.predict_us", "us");
    layer("api.rank_us", "us");
    layer("api.tune_us", "us");
    layer("api.trace_cache_hit_ratio", "ratio");
    layer("api.trace_cache_lookups", "count");
    layer("api.first_query_after_reload_us", "us");
    layer("modeler.eval_ns_per_point", "ns");
    report.add("modeler.samples_per_key", samples / keys, "count");
    report.add("modeler.regions_per_key", regions / keys, "count");
    report.add("modeler.fit_error", fit_error / keys, "frac");
    report.add("service.prepare_s", built.prepare_s, "s");
    report.add("service.keys_generated",
               static_cast<double>(built.report.keys_generated()), "count");
    report.add("service.points_measured",
               static_cast<double>(built.report.points_measured()), "count");
    report.add("service.points_from_memory",
               static_cast<double>(built.report.points_from_memory()), "count");
    report.add("service.points_from_disk",
               static_cast<double>(built.report.points_from_disk()), "count");
    report.add("sampler.measure_calls", static_cast<double>(built.measure_calls), "count");
    report.add("sampler.journal_bytes", static_cast<double>(built.journal_bytes), "bytes");
    report.add("storage.open_ms", median(open_ms), "ms");
    report.add("storage.pack_ms", 1e3 * built.pack_s, "ms");
    report.add("storage.container_bytes", static_cast<double>(built.container_bytes), "bytes");
    report.add("storage.reload_ms", median(reload_ms), "ms");
    report.add("client.cpu_s", cpu, "s");
    report.add("client.lag_p99_us", lag99, "us");
    report.add("client.p50_us", client_p50, "us");
    report.add("client.p99_us", dlap::quantile(open.latency_us, 0.99), "us");
    for (const char* l : {"server", "api", "ops", "predict", "modeler"}) {
      const std::string name = std::string("layer.") + l + ".self_us";
      report.add(name, m.at(name), "us");
    }
    layer("trace.overhead_frac", "frac");
    report.add("trace.span_share_p50", m.at("trace.request_us") / client_p50, "frac");
    layer("trace.spans", "count");
  }

  for (const std::string& n : total.notes) std::cerr << "perfbench: " << n << '\n';
  const bool correct = checks_ok && total.failed == 0;
  report.print(correct, total.attempted, total.failed);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --dlapd PATH --work DIR\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
