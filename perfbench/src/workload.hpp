#pragma once
// The benchmark's workloads: seeded, program-blind request streams.
//
// Each workload is a table of distinct HTTP requests (full wire bytes)
// plus a stream of indices into it, materialised once from the seed.
// dlapd receives exactly these bytes over loopback; the traced replay
// feeds the same bytes to the in-process parser and handlers.

#include <cstdint>
#include <string>
#include <vector>

#include "api/query.hpp"

namespace perfbench {

enum class Kind { Predict, Rank, Tune };

struct Request {
  Kind kind = Kind::Predict;  ///< POST /v1/predict, /v1/rank or /v1/tune
  std::string body;           ///< JSON request body
  std::string wire;           ///< complete HTTP/1.1 request
};

struct Workload {
  std::string name;
  /// Distinct requests; everything below indexes into this table.
  std::vector<Request> requests;
  /// The measured request stream (wraps when a run outlasts it).
  std::vector<std::uint32_t> stream;
  /// Answered before the clock stops in set-up; touches every model key.
  std::vector<std::uint32_t> warmup;
  /// Requests scored for pick quality and prediction error.
  std::vector<std::uint32_t> quality;
  /// Engine::prepare input that builds the workload's container: every
  /// variant and block size at the largest sizes the workload asks for,
  /// so the models cover every request. Independent of the seed, so the
  /// container is byte-identical across seeds and runs.
  std::vector<dlap::OperationSpec> envelope;
  /// Offered rate of the open-loop phase, requests per second.
  double open_rate = 0.0;
  /// Container swaps under load (generate_reload only).
  bool reload = false;
};

/// "serve_hot", "sweep_cold" or "generate_reload"; throws
/// std::invalid_argument on any other name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

}  // namespace perfbench
