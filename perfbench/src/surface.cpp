#include "surface.hpp"

#include <algorithm>
#include <string>

#include "modeler/modeler.hpp"
#include "sampler/calls.hpp"

namespace perfbench {

namespace {

/// Peak flops per tick of a routine on the synthetic machine.
double base_rate(dlap::RoutineId routine) {
  switch (routine) {
    case dlap::RoutineId::Gemm: return 8.0;
    case dlap::RoutineId::Trsm: return 5.0;
    case dlap::RoutineId::Trmm: return 5.5;
    case dlap::RoutineId::Syrk: return 6.0;
    case dlap::RoutineId::Symm: return 6.5;
    case dlap::RoutineId::Syr2k: return 6.0;
    default: return 1.0 + 0.1 * static_cast<double>(routine);  // unblocked
  }
}

/// Deterministic value in [-1, 1] per flag combination, so each
/// (routine, flags) key gets its own peak.
double flag_jitter(std::string_view flags) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : flags) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return static_cast<double>(h % 2001) / 1000.0 - 1.0;
}

/// Doubles touched by a call, from its size arguments alone.
double footprint(const std::vector<index_t>& s) {
  const auto d = [&](std::size_t i) { return static_cast<double>(s[i]); };
  switch (s.size()) {
    case 1: return d(0) * d(0);
    case 2: return d(0) * d(1) + std::max(d(0), d(1)) * std::max(d(0), d(1));
    default: return d(0) * d(1) + d(1) * d(2) + d(0) * d(2);
  }
}

}  // namespace

double Surface::ticks(dlap::RoutineId routine, std::string_view flags,
                      const std::vector<index_t>& sizes, double flops) const {
  const double smallest =
      static_cast<double>(*std::min_element(sizes.begin(), sizes.end()));
  const double peak = base_rate(routine) * (1.0 + 0.15 * flag_jitter(flags)) *
                      (1.0 - shift_);
  const double rate = peak * smallest / (smallest + 24.0);
  const double cache_bytes = 192.0 * 1024.0 * (1.0 + 2.0 * shift_);
  const double step = 8.0 * footprint(sizes) > cache_bytes ? 1.3 : 1.0;
  return 150.0 + 40.0 * static_cast<double>(sizes.size()) +
         step * flops / rate;
}

std::function<dlap::MeasureFn(const dlap::ModelJob&)> Surface::factory(
    std::atomic<std::uint64_t>* calls) const {
  const Surface surface = *this;
  return [surface, calls](const dlap::ModelJob& job) -> dlap::MeasureFn {
    const dlap::ModelingRequest request = job.request;
    const std::string flags(request.flags.begin(), request.flags.end());
    return [surface, calls, request, flags](const std::vector<index_t>& point) {
      calls->fetch_add(1, std::memory_order_relaxed);
      const double flops = dlap::call_flops(dlap::make_call(request, point));
      const double t = surface.ticks(request.routine, flags, point, flops);
      dlap::SampleStats s;
      s.min = 0.98 * t;
      s.median = t;
      s.mean = 1.01 * t;
      s.max = 1.08 * t;
      s.stddev = 0.015 * t;
      s.count = request.sampler.reps;
      return s;
    };
  };
}

double Surface::truth(const dlap::CompiledTrace& trace) const {
  double total = 0.0;
  for (const dlap::CompiledCall& call : trace.entries()) {
    const dlap::CompiledKey& key =
        trace.keys()[static_cast<std::size_t>(call.key)];
    total += static_cast<double>(call.multiplicity) *
             ticks(key.routine, key.flags, call.sizes, call.flops);
  }
  return total;
}

double Surface::truth_direct(const dlap::CallTrace& trace) const {
  double total = 0.0;
  for (const dlap::KernelCall& call : trace) {
    if (dlap::call_is_degenerate(call)) continue;
    total += ticks(call.routine, call.flag_view(), call.sizes,
                   dlap::call_flops(call));
  }
  return total;
}

}  // namespace perfbench
