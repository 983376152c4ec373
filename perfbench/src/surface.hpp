#pragma once
// The benchmark's synthetic cost surface: the "machine" every model is
// generated from, and the ground truth every answer is scored against.
//
// Real kernel timing does not repeat within a tenth between generations,
// so the benchmark measures through a deterministic surface instead. It
// is smooth but not polynomial, so fitted models carry real error and
// picks can go wrong:
//   - a flop-rate ramp in the call's smallest dimension (skinny calls run
//     slowly, saturating towards a per-(routine, flags) peak),
//   - a step where the operands outgrow a cache-sized threshold.
// The truth of an operation is exact: the sum over its compiled trace's
// unique calls of multiplicity x surface.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "modeler/strategies.hpp"
#include "predict/compiled_trace.hpp"
#include "service/model_service.hpp"

namespace perfbench {

using dlap::index_t;

class Surface {
 public:
  /// `shift` perturbs the machine (slower peak, larger cache threshold):
  /// 0 is container A, a small positive value container B.
  explicit Surface(double shift = 0.0) : shift_(shift) {}

  /// Median ticks of one call of `routine` with the given flag values and
  /// size arguments (signature order) performing `flops` flops.
  [[nodiscard]] double ticks(dlap::RoutineId routine, std::string_view flags,
                             const std::vector<index_t>& sizes,
                             double flops) const;

  /// Measurement-hook factory for ServiceConfig::measure_factory. Every
  /// call into a returned measure function increments `*calls`.
  [[nodiscard]] std::function<dlap::MeasureFn(const dlap::ModelJob&)> factory(
      std::atomic<std::uint64_t>* calls) const;

  /// Ground truth of a compiled trace: sum over unique entries of
  /// multiplicity x ticks.
  [[nodiscard]] double truth(const dlap::CompiledTrace& trace) const;

  /// The same truth summed call by call over the raw trace (degenerate
  /// calls skipped) -- the reference the compiled sum is checked against.
  [[nodiscard]] double truth_direct(const dlap::CallTrace& trace) const;

 private:
  double shift_;
};

}  // namespace perfbench
