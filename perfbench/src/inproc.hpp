#pragma once
// The in-process side of the benchmark: the Engine render every dlapd
// answer must match, pick-quality scoring against the surface's ground
// truth, and the traced replay that times each layer's public entry
// points.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "server/http.hpp"
#include "surface.hpp"
#include "workload.hpp"

namespace perfbench {

/// Engine configuration dlapd runs with (--no-generate over `repo`).
[[nodiscard]] dlap::EngineConfig serving_config(
    const std::filesystem::path& repo);

/// Parses the request's wire bytes and runs the matching handle_*.
[[nodiscard]] dlap::server::HttpResponse handle(dlap::Engine& engine,
                                                const Request& request);

/// Expected bodies for `ids` (others stay empty), rendered in-process on
/// `threads` threads. Non-200 renders count into `*failures`.
[[nodiscard]] std::vector<std::string> render_expected(
    dlap::Engine& engine, const Workload& workload,
    const std::vector<std::uint32_t>& ids, int threads, std::uint64_t* failures);

struct Quality {
  std::uint64_t picks = 0;        ///< rank/tune answers scored
  std::uint64_t hits = 0;         ///< picks within 1% of the true optimum
  std::vector<double> rel_err;    ///< |predicted - truth| / truth
  std::uint64_t failures = 0;     ///< queries that did not answer
  std::uint64_t truth_checks = 0; ///< compiled-vs-direct truth comparisons
  std::uint64_t truth_mismatches = 0;
};

/// Scores the answers to `ids` against the surface's ground truth.
[[nodiscard]] Quality score(dlap::Engine& engine, const Surface& surface,
                            const Workload& workload,
                            const std::vector<std::uint32_t>& ids, int threads);

/// One recorded span: [start, end) in microseconds since the log began.
struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  std::int32_t parent = -1;
  std::uint32_t request = 0;
};

struct ReplayReport {
  std::map<std::string, double> metrics;  ///< per-layer metric -> value
  std::vector<Span> spans;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Replays the first `count` stream requests in-process twice on fresh
/// engines over `repo`: untraced (parser + handle_* timed as a whole),
/// then traced (spans around every layer's public entry points, plus
/// probes of the ops/predict/modeler entry points on the same specs).
[[nodiscard]] ReplayReport replay(const std::filesystem::path& repo,
                                  const Workload& workload, std::size_t count);

/// Writes spans as JSON lines (name, start, end, parent, request, self).
void write_spans(const std::vector<Span>& spans,
                 const std::filesystem::path& path);

}  // namespace perfbench
