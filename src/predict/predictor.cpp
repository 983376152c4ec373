#include "predict/predictor.hpp"

#include <cmath>

#include "sampler/machine.hpp"

namespace dlap {

void ModelSet::add(RoutineModel model) {
  add(std::make_shared<const RoutineModel>(std::move(model)));
}

void ModelSet::add(std::shared_ptr<const RoutineModel> model) {
  DLAP_REQUIRE(model != nullptr, "ModelSet::add: null model");
  auto key = std::make_pair(model->key.routine, model->key.flags);
  models_.insert_or_assign(std::move(key), std::move(model));
}

const RoutineModel* ModelSet::find(std::string_view routine,
                                   std::string_view flags) const {
  const auto it = models_.find(std::make_pair(routine, flags));
  return it == models_.end() ? nullptr : it->second.get();
}

double Prediction::efficiency_median(double total_flops) const {
  // Defined everywhere: empty/all-skipped traces (median 0), zero-flop
  // formulas and NaN inputs all yield 0 instead of propagating NaN or
  // tripping efficiency()'s nonpositive-ticks requirement.
  if (!(ticks.median > 0.0) || !(total_flops > 0.0) ||
      !std::isfinite(total_flops)) {
    return 0.0;
  }
  return efficiency(total_flops, ticks.median);
}

Prediction Predictor::predict(const CallTrace& trace) const {
  Prediction out;
  double var_sum = 0.0;
  for (const KernelCall& call : trace) {
    if (call_is_degenerate(call)) {
      ++out.skipped;
      continue;
    }
    // Views straight off the call: no string construction per call.
    const RoutineModel* m =
        models_->find(routine_name(call.routine), call.flag_view());
    if (m == nullptr) {
      ++out.missing;
      continue;
    }
    const SampleStats est = m->model.evaluate(call.sizes);
    out.ticks.min += est.min;
    out.ticks.median += est.median;
    out.ticks.mean += est.mean;
    out.ticks.max += est.max;
    var_sum += est.stddev * est.stddev;
    out.flops += call_flops(call);
    ++out.calls;
  }
  out.ticks.stddev = std::sqrt(var_sum);
  out.ticks.count = out.calls;
  return out;
}

}  // namespace dlap
