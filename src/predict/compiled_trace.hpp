#pragma once
// CompiledTrace: the dedicated representation of a call trace for the
// predict hot path.
//
// A blocked algorithm's trace is highly redundant: sylv on an (m, n)
// problem issues O((m/b)*(n/b)) calls but only O(m/b + n/b) distinct
// (routine, flags, sizes) tuples, and every unblocked diagonal call of
// trinv/chol repeats the same full-block size. Compiling a CallTrace
// dedupes it into
//   - keys:    the distinct (routine, flags) pairs models are looked
//              up by,
//   - entries: the unique (key, size point) calls, each carrying its
//              multiplicity and precomputed flop count,
//   - order:   per source call, the entry it deduped into (or "skipped"),
// so prediction evaluates each model at each unique point ONCE (batched
// per key through PiecewiseModel::evaluate_many) and then accumulates the
// cached estimates over the original call order.
//
// Accumulating in source order -- rather than folding each entry's
// contribution as multiplicity * estimate (and multiplicity-scaled
// variance for the stddev) -- costs a few additions per call but keeps
// the result BIT-identical to Predictor::predict for arbitrary model
// values: floating-point addition is not associative, so any regrouping
// would drift in the last ulps. The expensive work (model lookups,
// region search, polynomial evaluation) is per unique entry either way.

#include <cstdint>
#include <string>
#include <vector>

#include "predict/predictor.hpp"
#include "predict/trace.hpp"

namespace dlap {

/// One distinct (routine, flags) pair of a compiled trace: the unit of
/// model resolution. Backend/locality are properties of the query, not
/// the trace, so a compiled trace is reusable across systems.
struct CompiledKey {
  RoutineId routine = RoutineId::Gemm;
  std::string flags;  ///< flag values joined (KernelCall::flag_key)
};

/// One unique (key, size point) call: the unit of model evaluation.
struct CompiledCall {
  int key = 0;                  ///< index into CompiledTrace::keys()
  std::vector<index_t> sizes;   ///< size arguments in signature order
  std::vector<double> point;    ///< sizes as doubles (evaluation input)
  double flops = 0.0;           ///< flops of ONE occurrence
  index_t multiplicity = 0;     ///< occurrences in the source trace
};

class CompiledTrace {
 public:
  CompiledTrace() = default;

  /// Compiles `trace`. Degenerate zero-size calls are counted and
  /// dropped -- they never reach a model, exactly as in
  /// Predictor::predict.
  [[nodiscard]] static CompiledTrace compile(const CallTrace& trace);

  [[nodiscard]] const std::vector<CompiledKey>& keys() const noexcept {
    return keys_;
  }
  [[nodiscard]] const std::vector<CompiledCall>& entries() const noexcept {
    return entries_;
  }
  /// Entry indices per key (evaluation batches).
  [[nodiscard]] const std::vector<std::uint32_t>& entries_of(
      int key) const {
    return key_entries_.at(static_cast<std::size_t>(key));
  }

  /// Calls in the source trace.
  [[nodiscard]] index_t source_calls() const noexcept {
    return source_calls_;
  }
  /// Unique (key, point) entries -- the number of model evaluations a
  /// prediction performs.
  [[nodiscard]] index_t unique_calls() const noexcept {
    return static_cast<index_t>(entries_.size());
  }
  /// Degenerate calls dropped at compile time.
  [[nodiscard]] index_t skipped() const noexcept { return skipped_; }

  /// Predicts against pre-resolved models: models_by_key[k] is the model
  /// for keys()[k] (nullptr = missing; such entries' occurrences count
  /// into Prediction::missing, never throw). The result is bit-identical
  /// to Predictor::predict over the source trace with the same models.
  [[nodiscard]] Prediction predict(
      const std::vector<const RoutineModel*>& models_by_key) const;

 private:
  std::vector<CompiledKey> keys_;
  std::vector<CompiledCall> entries_;
  std::vector<std::vector<std::uint32_t>> key_entries_;
  /// Per source call: entry index, or kSkippedCall for dropped
  /// degenerate calls.
  std::vector<std::int32_t> order_;
  index_t source_calls_ = 0;
  index_t skipped_ = 0;

  static constexpr std::int32_t kSkippedCall = -1;
};

}  // namespace dlap
