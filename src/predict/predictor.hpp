#pragma once
// Prediction by model evaluation and accumulation (paper Section IV):
// "Each invocation corresponds to the evaluation of the corresponding
// performance model; the results are then accumulated, thus generating a
// performance prediction."

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "modeler/modeler.hpp"
#include "predict/trace.hpp"
#include "sampler/stats.hpp"

namespace dlap {

/// Transparent order over (routine, flags) pairs: lookups probe with
/// string_views straight off trace data, no temporary pair of strings per
/// resolved call.
struct RoutineFlagsLess {
  using is_transparent = void;

  template <class A1, class A2, class B1, class B2>
  [[nodiscard]] bool operator()(const std::pair<A1, A2>& a,
                                const std::pair<B1, B2>& b) const noexcept {
    const std::string_view ar(a.first), br(b.first);
    if (ar != br) return ar < br;
    return std::string_view(a.second) < std::string_view(b.second);
  }
};

/// In-memory set of models used by a prediction run; normally all entries
/// share one backend and locality (one "system" in the paper's sense).
/// Entries are held by shared pointer, so a set populated from the
/// repository is a view over the repository's cache: adding a model shares
/// it instead of copying its pieces.
class ModelSet {
 public:
  void add(RoutineModel model);
  void add(std::shared_ptr<const RoutineModel> model);

  /// nullptr when no model covers (routine, flags).
  [[nodiscard]] const RoutineModel* find(std::string_view routine,
                                         std::string_view flags) const;

  [[nodiscard]] std::size_t size() const { return models_.size(); }

 private:
  // Keyed by routine + flag values; backend/locality are properties of the
  // set as a whole.
  std::map<std::pair<std::string, std::string>,
           std::shared_ptr<const RoutineModel>, RoutineFlagsLess>
      models_;
};

struct Prediction {
  /// Accumulated tick statistics: sums of min/median/mean/max, stddev
  /// combined as sqrt of summed variances (independence assumption).
  SampleStats ticks;
  double flops = 0.0;
  index_t calls = 0;    ///< calls that contributed estimates
  index_t skipped = 0;  ///< degenerate (zero-work) calls
  index_t missing = 0;  ///< calls without a model

  /// Efficiency estimate for a given total flop count (callers often use
  /// the operation's nominal flop formula rather than the trace sum).
  /// Defined for every input: returns 0 when total_flops is nonpositive or
  /// non-finite, and for empty or all-skipped traces (median 0) -- never
  /// NaN.
  [[nodiscard]] double efficiency_median(double total_flops) const;
};

/// The string-keyed reference prediction: one ModelSet lookup and one
/// model evaluation per traced call, accumulated in trace order. The
/// engine's CompiledTrace path is checked bit-identical against it.
/// Degenerate zero-size calls perform no flops and are counted in
/// Prediction::skipped (they appear naturally in traces, e.g. the first
/// trinv iteration's dtrmm with n = 0); calls without a model are counted
/// in Prediction::missing. Never throws on a missing model.
class Predictor {
 public:
  /// The set must outlive the predictor.
  explicit Predictor(const ModelSet& models) : models_(&models) {}

  [[nodiscard]] Prediction predict(const CallTrace& trace) const;

 private:
  const ModelSet* models_;
};

}  // namespace dlap
