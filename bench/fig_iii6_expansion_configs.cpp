// Fig III.6 -- Model Expansion for dtrsm under four configurations:
//   (a) eps=10%, direction NE (away from origin), s_ini=64
//   (b) eps=10%, direction SW (toward origin),   s_ini=64
//   (c) eps= 5%, direction SW,                   s_ini=64
//   (d) eps= 5%, direction SW,                   s_ini=32
// For each: the region map (bounds + per-region error) plus the sample
// count and average error the paper discusses.
//
// Expected shape: SW expansion needs fewer samples than NE at equal
// accuracy; tightening eps raises the sample count and lowers the error.

#include <map>
#include <memory>

#include "support/bench_util.hpp"

namespace {

// Memoizes the underlying measurements across the four generation runs;
// per-run unique-sample accounting is unaffected (each strategy counts
// its own distinct points), only wall-clock time is saved.
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
    ExpansionConfig::Direction dir;
    index_t sini;
  };
  const Config configs[] = {
      {"a", 0.10, ExpansionConfig::Direction::AwayFromOrigin, 64},
      {"b", 0.10, ExpansionConfig::Direction::TowardOrigin, 64},
      {"c", 0.05, ExpansionConfig::Direction::TowardOrigin, 64},
      {"d", 0.05, ExpansionConfig::Direction::TowardOrigin, 32},
  };

  print_comment("Fig III.6: Model Expansion for dtrsm(L,L,N,N) on [8," +
                std::to_string(hi) + "]^2, in-cache, backend " + system_a());
  for (const Config& c : configs) {
    ExpansionConfig cfg;
    cfg.base.error_bound = c.eps;
    cfg.base.degree = 3;
    cfg.direction = c.dir;
    cfg.initial_size = c.sini;
    const GenerationResult gen =
        generate_model_expansion(req.domain, measure, cfg);

    print_comment(std::string("config (") + c.label + "): eps=" +
                  std::to_string(100 * c.eps) + "% dir=" +
                  (c.dir == ExpansionConfig::Direction::TowardOrigin ? "SW"
                                                                     : "NE") +
                  " s_ini=" + std::to_string(c.sini));
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
