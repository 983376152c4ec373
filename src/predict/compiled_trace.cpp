#include "predict/compiled_trace.hpp"

#include <cmath>
#include <map>
#include <utility>

namespace dlap {

CompiledTrace CompiledTrace::compile(const CallTrace& trace) {
  CompiledTrace out;
  out.source_calls_ = static_cast<index_t>(trace.size());
  out.order_.reserve(trace.size());

  // Dedupe maps. Ordered maps keep compile dependency-free; the compile
  // runs once per (spec, blocksize) point and is then cached, so lookup
  // constants do not sit on the query path.
  std::map<std::pair<int, std::string>, int> key_ids;
  std::map<std::pair<int, std::vector<index_t>>, std::int32_t> entry_ids;

  for (const KernelCall& call : trace) {
    if (call_is_degenerate(call)) {
      ++out.skipped_;
      out.order_.push_back(kSkippedCall);
      continue;
    }
    const auto key_probe = std::make_pair(static_cast<int>(call.routine),
                                          call.flag_key());
    auto key_it = key_ids.find(key_probe);
    if (key_it == key_ids.end()) {
      key_it = key_ids.emplace(key_probe,
                               static_cast<int>(out.keys_.size())).first;
      out.keys_.push_back({call.routine, key_probe.second});
      out.key_entries_.emplace_back();
    }
    const int key = key_it->second;

    const auto entry_probe = std::make_pair(key, call.sizes);
    auto entry_it = entry_ids.find(entry_probe);
    if (entry_it == entry_ids.end()) {
      CompiledCall entry;
      entry.key = key;
      entry.sizes = call.sizes;
      entry.point.reserve(call.sizes.size());
      for (index_t s : call.sizes) {
        entry.point.push_back(static_cast<double>(s));
      }
      entry.flops = call_flops(call);
      entry.multiplicity = 0;
      entry_it = entry_ids.emplace(
          entry_probe,
          static_cast<std::int32_t>(out.entries_.size())).first;
      out.key_entries_[static_cast<std::size_t>(key)].push_back(
          static_cast<std::uint32_t>(out.entries_.size()));
      out.entries_.push_back(std::move(entry));
    }
    const std::int32_t entry = entry_it->second;
    ++out.entries_[static_cast<std::size_t>(entry)].multiplicity;
    out.order_.push_back(entry);
  }
  return out;
}

Prediction CompiledTrace::predict(
    const std::vector<const RoutineModel*>& models_by_key) const {
  DLAP_REQUIRE(models_by_key.size() == keys_.size(),
               "CompiledTrace::predict: one model slot per key");

  // Evaluate every unique entry once, batched per key so one model's
  // region index and polynomial basis serve the whole batch.
  std::vector<SampleStats> est(entries_.size());
  std::vector<const std::vector<double>*> batch;
  std::vector<SampleStats> batch_out;
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    const RoutineModel* model = models_by_key[k];
    if (model == nullptr) continue;  // occurrences counted missing below
    const auto& idxs = key_entries_[k];
    batch.clear();
    batch.reserve(idxs.size());
    for (std::uint32_t e : idxs) {
      batch.push_back(&entries_[e].point);
    }
    model->model.evaluate_many(batch, batch_out);
    for (std::size_t j = 0; j < idxs.size(); ++j) {
      est[idxs[j]] = batch_out[j];
    }
  }

  // Accumulate the cached estimates in source-call order: the exact loop
  // of Predictor::predict, with the model evaluation replaced by an array
  // read. This -- not multiplicity-scaled folding -- is what keeps the
  // result bit-identical for arbitrary model values.
  Prediction out;
  double var_sum = 0.0;
  for (const std::int32_t o : order_) {
    if (o == kSkippedCall) {
      ++out.skipped;
      continue;
    }
    const CompiledCall& entry = entries_[static_cast<std::size_t>(o)];
    if (models_by_key[static_cast<std::size_t>(entry.key)] == nullptr) {
      ++out.missing;
      continue;
    }
    const SampleStats& e = est[static_cast<std::size_t>(o)];
    out.ticks.min += e.min;
    out.ticks.median += e.median;
    out.ticks.mean += e.mean;
    out.ticks.max += e.max;
    var_sum += e.stddev * e.stddev;
    out.flops += entry.flops;
    ++out.calls;
  }
  out.ticks.stddev = std::sqrt(var_sum);
  out.ticks.count = out.calls;
  return out;
}

}  // namespace dlap
