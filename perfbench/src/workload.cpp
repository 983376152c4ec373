#include "workload.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "ops/registry.hpp"

namespace perfbench {

namespace {

using dlap::index_t;
using dlap::OperationSpec;

// Offered open-loop rates, below half of each workload's closed-loop qps
// on a 4-core host (2 client connections, 2 dlapd connection workers).
constexpr double kHotRate = 3000.0;
constexpr double kColdRate = 500.0;

int variants_of(const std::string& op) {
  return dlap::OperationRegistry::instance().require(op).variant_count;
}

Request make_request(Kind kind, std::string body) {
  Request r;
  r.kind = kind;
  const char* target = kind == Kind::Predict ? "/v1/predict"
                       : kind == Kind::Rank  ? "/v1/rank"
                                             : "/v1/tune";
  r.body = std::move(body);
  r.wire = "POST ";
  r.wire += target;
  r.wire += " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: ";
  r.wire += std::to_string(r.body.size());
  r.wire += "\r\n\r\n";
  r.wire += r.body;
  return r;
}

/// {"op","variant"[,"m"],"n"[,"blocksize"]} plus `extra` members. Built
/// by appending: GCC 12 warns falsely (-Wrestrict) on chained operator+.
std::string spec_object(const OperationSpec& spec, bool with_blocksize,
                        const std::string& extra = "") {
  std::string out = "{\"op\":\"";
  out += spec.op;
  out += "\",\"variant\":";
  out += std::to_string(spec.variant);
  if (spec.op == "sylv") {
    out += ",\"m\":";
    out += std::to_string(spec.m);
  }
  out += ",\"n\":";
  out += std::to_string(spec.n);
  if (with_blocksize) {
    out += ",\"blocksize\":";
    out += std::to_string(spec.blocksize);
  }
  out += extra;
  out += "}";
  return out;
}

Request predict_request(const OperationSpec& spec) {
  return make_request(Kind::Predict, spec_object(spec, true));
}

Request rank_request(const OperationSpec& prototype) {
  std::string body = "{\"candidates\":[";
  for (int v = 1; v <= variants_of(prototype.op); ++v) {
    OperationSpec spec = prototype;
    spec.variant = v;
    if (v > 1) body += ",";
    body += spec_object(spec, true);
  }
  body += "]}";
  return make_request(Kind::Rank, std::move(body));
}

Request tune_request(const OperationSpec& spec, index_t lo, index_t hi,
                     index_t step) {
  std::string sweep = ",\"lo\":";
  sweep += std::to_string(lo);
  sweep += ",\"hi\":";
  sweep += std::to_string(hi);
  sweep += ",\"step\":";
  sweep += std::to_string(step);
  return make_request(Kind::Tune, spec_object(spec, false, sweep));
}

std::vector<index_t> range(index_t lo, index_t hi, index_t step) {
  std::vector<index_t> out;
  for (index_t v = lo; v <= hi; v += step) out.push_back(v);
  return out;
}

template <class T>
void shuffle(std::vector<T>& v, dlap::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<index_t>(i - 1)));
    std::swap(v[i - 1], v[j]);
  }
}

/// Every variant of every family at the given largest sizes, for each
/// block size.
void add_envelope(Workload& w, const std::string& op, index_t m, index_t n,
                  const std::vector<index_t>& blocksizes) {
  for (const index_t b : blocksizes) {
    for (int v = 1; v <= variants_of(op); ++v) {
      w.envelope.push_back(OperationSpec::of(op, v, m, n, b));
    }
  }
}

std::uint32_t add(Workload& w, Request r) {
  w.requests.push_back(std::move(r));
  return static_cast<std::uint32_t>(w.requests.size() - 1);
}

// ---------------------------------------------------------------- hot set
//
// Small specs (all sizes and block sizes multiples of 16, so every call
// size is a multiple of 16 and the envelope bounds every domain). The
// table holds every predict/rank/tune question over the grid; the seed
// picks the 30 the stream repeats.

constexpr index_t kHotTuneLo = 16, kHotTuneHi = 64, kHotTuneStep = 16;

Workload hot(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  struct Point {
    index_t m, n;
  };
  const std::vector<std::pair<std::string, std::vector<Point>>> grid = {
      {"trinv", {{0, 64}, {0, 96}, {0, 128}}},
      {"chol", {{0, 64}, {0, 96}, {0, 128}}},
      {"sylv", {{48, 64}, {64, 64}, {64, 96}}},
  };
  std::vector<std::uint32_t> predicts, ranks, tunes;
  for (const auto& [op, points] : grid) {
    for (const Point& p : points) {
      for (const index_t b : {16, 32}) {
        ranks.push_back(add(w, rank_request(OperationSpec::of(op, 1, p.m, p.n, b))));
        for (int v = 1; v <= variants_of(op); ++v) {
          predicts.push_back(
              add(w, predict_request(OperationSpec::of(op, v, p.m, p.n, b))));
        }
      }
      for (int v = 1; v <= variants_of(op); ++v) {
        tunes.push_back(add(w, tune_request(OperationSpec::of(op, v, p.m, p.n, 0),
                                            kHotTuneLo, kHotTuneHi,
                                            kHotTuneStep)));
      }
    }
  }
  const std::vector<index_t> blocksizes = range(kHotTuneLo, kHotTuneHi, kHotTuneStep);
  add_envelope(w, "trinv", 0, 128, blocksizes);
  add_envelope(w, "chol", 0, 128, blocksizes);
  add_envelope(w, "sylv", 64, 96, blocksizes);

  for (std::uint32_t i = 0; i < w.requests.size(); ++i) w.quality.push_back(i);

  dlap::Rng rng(seed);
  for (auto* pool : {&predicts, &ranks, &tunes}) {
    shuffle(*pool, rng);
    w.warmup.insert(w.warmup.end(), pool->begin(), pool->begin() + 10);
  }
  w.stream.resize(1u << 20);
  for (std::uint32_t& s : w.stream) {
    s = w.warmup[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<index_t>(w.warmup.size() - 1)))];
  }
  w.open_rate = kHotRate;
  w.reload = name == "generate_reload";
  return w;
}

// ------------------------------------------------------------ cold sweep
//
// Distinct sizes and block sizes, all multiples of 8: the sweep points
// (one trace-cache entry per candidate) outnumber the 4096-entry trace
// cache many times over, and each trace stays within a few thousand
// calls.

Workload cold(std::uint64_t seed) {
  Workload w;
  w.name = "sweep_cold";
  dlap::Rng rng(seed);
  const std::vector<index_t> sizes_1d = range(64, 512, 8);
  const std::vector<index_t> sizes_2d = range(48, 192, 8);
  const std::vector<index_t> rank_b = {16, 24, 32, 40, 48, 56, 64};
  const std::vector<index_t> sylv_b = {16, 24, 32, 48};
  constexpr index_t kTuneLo = 16, kTuneHi = 128, kTuneStep = 8;

  // One pool per request kind, each shuffled by the seed.
  std::vector<std::vector<Request>> pools(6);
  for (const index_t n : sizes_1d) {
    for (const index_t b : rank_b) {
      pools[0].push_back(rank_request(OperationSpec::trinv(1, n, b)));
      pools[1].push_back(rank_request(OperationSpec::chol(1, n, b)));
    }
    for (int v = 1; v <= variants_of("trinv"); ++v) {
      pools[3].push_back(tune_request(OperationSpec::trinv(v, n, 0), kTuneLo,
                                      kTuneHi, kTuneStep));
    }
    for (int v = 1; v <= variants_of("chol"); ++v) {
      pools[4].push_back(tune_request(OperationSpec::chol(v, n, 0), kTuneLo,
                                      kTuneHi, kTuneStep));
    }
  }
  for (const index_t m : sizes_2d) {
    for (const index_t n : sizes_2d) {
      for (const index_t b : sylv_b) {
        pools[2].push_back(rank_request(OperationSpec::sylv(1, m, n, b)));
      }
    }
  }
  // Single predictions: a fixed draw, the same for every seed.
  dlap::Rng grid_rng(0x5eedULL);
  for (int i = 0; i < 1000; ++i) {
    const int family = static_cast<int>(grid_rng.uniform_int(0, 2));
    const std::string op = family == 0 ? "trinv" : family == 1 ? "chol" : "sylv";
    const int v = static_cast<int>(grid_rng.uniform_int(1, variants_of(op)));
    const index_t n = sizes_1d[static_cast<std::size_t>(
        grid_rng.uniform_int(0, static_cast<index_t>(sizes_1d.size() - 1)))];
    const index_t b = rank_b[static_cast<std::size_t>(
        grid_rng.uniform_int(0, static_cast<index_t>(rank_b.size() - 1)))];
    if (op == "sylv") {
      const auto pick = [&] {
        return sizes_2d[static_cast<std::size_t>(
            grid_rng.uniform_int(0, static_cast<index_t>(sizes_2d.size() - 1)))];
      };
      const index_t m2 = pick();
      pools[5].push_back(predict_request(OperationSpec::sylv(v, m2, pick(), b)));
    } else {
      pools[5].push_back(predict_request(OperationSpec::of(op, v, 0, n, b)));
    }
  }

  // Scored for picks: every fifth point of each pool in grid order, so
  // the score does not depend on the seed.
  for (const auto& pool : pools) {
    for (std::size_t i = 0; i < pool.size(); i += 5) {
      w.quality.push_back(add(w, pool[i]));
    }
  }

  // Kind mix of the stream: trinv rank, chol rank, sylv rank, trinv tune,
  // chol tune, predict.
  const double weights[] = {0.2, 0.15, 0.25, 0.15, 0.15, 0.1};
  std::vector<std::uint32_t> first(pools.size()), next(pools.size(), 0);
  std::size_t total = 0;
  for (std::size_t k = 0; k < pools.size(); ++k) {
    shuffle(pools[k], rng);
    first[k] = static_cast<std::uint32_t>(w.requests.size());
    for (Request& r : pools[k]) w.requests.push_back(std::move(r));
    total += pools[k].size();
  }
  for (std::size_t i = 0; i < total; ++i) {
    double u = rng.uniform();
    std::size_t k = 0;
    while (k + 1 < pools.size() && u >= weights[k]) u -= weights[k++];
    const std::size_t size = pools[k].size();
    w.stream.push_back(first[k] + static_cast<std::uint32_t>(next[k]++ % size));
  }

  const std::vector<index_t> blocksizes = range(kTuneLo, kTuneHi, kTuneStep);
  add_envelope(w, "trinv", 0, sizes_1d.back(), blocksizes);
  add_envelope(w, "chol", 0, sizes_1d.back(), blocksizes);
  add_envelope(w, "sylv", sizes_2d.back(), sizes_2d.back(), sylv_b);
  // Warm-up: one all-variant rank per family at the largest sizes loads
  // every model key into the engine before the clock stops.
  for (const char* op : {"trinv", "chol", "sylv"}) {
    const bool two_axes = std::string(op) == "sylv";
    w.warmup.push_back(add(
        w, rank_request(OperationSpec::of(op, 1, two_axes ? sizes_2d.back() : 0,
                                          two_axes ? sizes_2d.back()
                                                   : sizes_1d.back(),
                                          16))));
  }
  w.open_rate = kColdRate;
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "serve_hot" || name == "generate_reload") return hot(name, seed);
  if (name == "sweep_cold") return cold(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
