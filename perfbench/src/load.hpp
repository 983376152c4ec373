#pragma once
// Load generation against a running dlapd: closed and open loops over a
// workload's materialised stream, with every answer checked.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "workload.hpp"

namespace perfbench {

/// Expected answer bodies per request id. A body must equal `a[id]`, or
/// `b[id]` while containers are being swapped; an id whose `a` entry is
/// empty is not known yet and its body is kept for a deferred check.
struct Expected {
  std::vector<std::string> a, b;
};

/// Container swaps under load: on a fixed period, the first client
/// links the other container over the daemon's repository.dlapc and
/// POSTs /v1/admin/reload on its own connection.
struct ReloadPlan {
  std::filesystem::path live;  ///< <repo>/repository.dlapc
  std::filesystem::path a, b;  ///< the two container images
  double period_s = 0.5;
  bool next_is_b = true;
  std::uint64_t posted = 0;
  std::uint64_t refused = 0;  ///< reload POSTs not answered 202

  /// Swaps the live container to the next image (hard link + rename).
  void swap();
};

struct Answer {
  std::uint32_t id = 0;
  std::string body;
};

/// What one phase measured.
struct PhaseResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;       ///< transport errors, non-200, mismatches
  std::vector<double> latency_us; ///< per request (failed: +inf)
  std::vector<double> service_us; ///< send to answer (failed: +inf)
  std::vector<std::uint32_t> ids; ///< request id per entry above
  std::vector<double> due_s;      ///< open loop: scheduled send time
  std::vector<double> done_s;     ///< completion time since phase start
  std::vector<double> lag_us;     ///< open loop: send time - due time
  std::vector<Answer> deferred;   ///< bodies awaiting the deferred check
  std::vector<std::string> notes; ///< first few failures, for stderr
  double seconds = 0.0;
  double cpu_s = 0.0;             ///< client threads' CPU time
};

struct LoadSpec {
  int port = 0;
  int clients = 2;
  double seconds = 1.0;
  double rate = 0.0;  ///< 0: closed loop; else open loop at this rate
  /// First stream position; advanced past the requests this phase sent.
  std::size_t* cursor = nullptr;
  ReloadPlan* reload = nullptr;  ///< swaps containers when set
};

[[nodiscard]] PhaseResult run_phase(const Workload& workload,
                                    const Expected& expected,
                                    const LoadSpec& spec);

/// Sends `ids` one after another on one connection (set-up warm-up);
/// checks answers like run_phase.
[[nodiscard]] PhaseResult send_sequential(const Workload& workload,
                                          const Expected& expected, int port,
                                          const std::vector<std::uint32_t>& ids);

/// Checks one answer; returns false on a mismatch (body kept in `notes`).
bool check_answer(const Expected& expected, std::uint32_t id, int status,
                  std::string body, PhaseResult* out);

/// Merges `from` into `into` (times are not rebased).
void merge(PhaseResult* into, PhaseResult&& from);

}  // namespace perfbench
