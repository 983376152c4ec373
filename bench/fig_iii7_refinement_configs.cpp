// Fig III.7 -- Adaptive Refinement for dtrsm under four configurations:
//   (a) eps=10%, s_min=64     (b) eps=5%, s_min=64
//   (c) eps=10%, s_min=32     (d) eps=5%, s_min=32
// For each: region map, sample count, average error.
//
// Expected shape: tighter eps and smaller s_min both increase regions and
// samples while decreasing the average error; smaller/less accurate
// regions concentrate at small parameter values.

#include <map>
#include <memory>

#include "support/bench_util.hpp"

namespace {

dlap::MeasureFn memoize(dlap::MeasureFn fn) {
  auto cache = std::make_shared<
      std::map<std::vector<dlap::index_t>, dlap::SampleStats>>();
  return [cache, fn = std::move(fn)](const std::vector<dlap::index_t>& p) {
    auto it = cache->find(p);
    if (it == cache->end()) it = cache->emplace(p, fn(p)).first;
    return it->second;
  };
}

}  // namespace

int main() {
  using namespace dlap;
  using namespace dlap::bench;
  const Scales sc = current_scales();
  const index_t hi = sc.model_max_2d;

  ModelingRequest req;
  req.routine = RoutineId::Trsm;
  req.flags = {'L', 'L', 'N', 'N'};
  req.domain = Region({8, 8}, {hi, hi});
  req.fixed_ld = 2500;
  req.sampler.reps = sc.reps;

  const MeasureFn measure =
      memoize(make_measure_fn(backend_instance(system_a()), req));

  struct Config {
    const char* label;
    double eps;
    index_t smin;
  };
  const Config configs[] = {
      {"a", 0.10, 64}, {"b", 0.05, 64}, {"c", 0.10, 32}, {"d", 0.05, 32}};

  print_comment("Fig III.7: Adaptive Refinement for dtrsm(L,L,N,N) on [8," +
                std::to_string(hi) + "]^2, in-cache, backend " + system_a());
  for (const Config& c : configs) {
    RefinementConfig cfg;
    cfg.base.error_bound = c.eps;
    cfg.base.degree = 3;
    cfg.min_region_size = c.smin;
    const GenerationResult gen =
        generate_adaptive_refinement(req.domain, measure, cfg);

    print_comment(std::string("config (") + c.label + "): eps=" +
                  std::to_string(100 * c.eps) + "% s_min=" +
                  std::to_string(c.smin));
    print_comment("  samples=" + std::to_string(gen.unique_samples) +
                  " regions=" + std::to_string(gen.model.pieces().size()) +
                  " avg_error=" + std::to_string(100 * gen.average_error) +
                  "%");
    print_header({"m_lo", "m_hi", "n_lo", "n_hi", "fit_err", "mean_err"});
    for (const RegionModel& p : gen.model.pieces()) {
      print_row({static_cast<double>(p.region.lo(0)),
                 static_cast<double>(p.region.hi(0)),
                 static_cast<double>(p.region.lo(1)),
                 static_cast<double>(p.region.hi(1)), p.fit_error,
                 p.mean_error});
    }
  }
  return 0;
}
