#include "fi/bootstrap.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/backtrack_tree.hpp"
#include "core/exposure.hpp"
#include "core/permeability_graph.hpp"
#include "core/propagation_path.hpp"
#include "obs/telemetry.hpp"

namespace propane::fi {

namespace {

/// Pure splitmix64 chain: derives a child stream id from (state, salt).
std::uint64_t derive(std::uint64_t state, std::uint64_t salt) {
  std::uint64_t s = state ^ (salt + 0x9E3779B97F4A7C15ULL);
  return splitmix64(s);
}

/// Seed of the Rng stream for one (fraction, replicate, cell) draw. A pure
/// function of its arguments -- never of thread id, arrival order or wall
/// clock -- so the bootstrap is bit-identical for any thread count.
std::uint64_t replicate_seed(std::uint64_t seed, std::size_t fraction_index,
                             std::size_t replicate, std::uint64_t cell_salt) {
  std::uint64_t s = derive(seed, 0xB007B007B007B007ULL);
  s = derive(s, fraction_index);
  s = derive(s, replicate);
  return derive(s, cell_salt);
}

/// ceil(fraction * n) without the binary-representation trap
/// (0.1 * 10 == 1.0000000000000002 must still yield 1), clamped to [1, n].
std::size_t scaled_draws(double fraction, std::size_t n) {
  const double raw = fraction * static_cast<double>(n);
  auto m = static_cast<std::size_t>(std::ceil(raw - 1e-9));
  return std::clamp<std::size_t>(m, 1, n);
}

PercentileBand band_of(const std::vector<double>& samples) {
  return percentile_band(samples);
}

/// P(item ranks first) / P(item within top k) across replicates for a set
/// of sample columns (each sized B). Ties break deterministically towards
/// the lower index, matching the stable descending sorts of the point
/// report.
struct RankingStability {
  std::vector<double> p_top1;
  std::vector<double> p_topk;
};

RankingStability ranking_stability(
    const std::vector<const std::vector<double>*>& columns, std::size_t B,
    std::size_t top_k) {
  RankingStability out;
  out.p_top1.assign(columns.size(), 0.0);
  out.p_topk.assign(columns.size(), 0.0);
  if (columns.empty() || B == 0) return out;
  const std::size_t k = std::min(std::max<std::size_t>(top_k, 1),
                                 columns.size());
  std::vector<std::size_t> order(columns.size());
  for (std::size_t r = 0; r < B; ++r) {
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                const double va = (*columns[a])[r];
                const double vb = (*columns[b])[r];
                if (va != vb) return va > vb;
                return a < b;
              });
    out.p_top1[order[0]] += 1.0;
    for (std::size_t i = 0; i < k; ++i) out.p_topk[order[i]] += 1.0;
  }
  const auto b = static_cast<double>(B);
  for (double& p : out.p_top1) p /= b;
  for (double& p : out.p_topk) p /= b;
  return out;
}

/// Argmax by point value with deterministic low-index tie-break.
std::size_t argmax(const std::vector<double>& values) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] > values[best]) best = i;
  }
  return best;
}

}  // namespace

BootstrapResampler::BootstrapResampler(const core::SystemModel& model,
                                       const SignalBinding& binding,
                                       std::size_t bus_signal_count)
    : model_(model), accumulator_(model, binding, bus_signal_count) {}

void BootstrapResampler::add(const InjectionRecord& record) {
  scratch_.clear();
  accumulator_.classify(record, scratch_);
  accumulator_.fold(scratch_);
  // A target with no consumer pairs contributes nothing resampleable.
  if (scratch_.empty()) return;

  const auto key = std::make_pair(record.target, record.test_case);
  const auto [it, inserted] = cell_index_.try_emplace(key, cells_.size());
  if (inserted) {
    Cell cell;
    cell.target = record.target;
    cell.test_case = record.test_case;
    cell.pair_indices.reserve(scratch_.size());
    for (const PairContribution& c : scratch_) {
      cell.pair_indices.push_back(static_cast<std::uint32_t>(c.pair_index));
    }
    PROPANE_CHECK_MSG(cell.pair_indices.size() <= 64,
                      "bootstrap cell exceeds 64 consumer pairs");
    cells_.push_back(std::move(cell));
  }
  Cell& cell = cells_[it->second];
  // Every record of a cell injects the same signal, so classify() yields
  // the same pair list; a mismatch means records from different layouts.
  PROPANE_CHECK_MSG(scratch_.size() == cell.pair_indices.size(),
                    "bootstrap cell pair layout changed between records");
  std::uint64_t mask = 0;
  for (std::size_t j = 0; j < scratch_.size(); ++j) {
    const PairContribution& c = scratch_[j];
    PROPANE_CHECK(c.pair_index == cell.pair_indices[j]);
    if (c.diverged && c.direct) {
      mask |= std::uint64_t{1} << j;
    }
  }
  cell.error_masks.push_back(mask);
}

BootstrapResult BootstrapResampler::run(
    const BootstrapOptions& options, const obs::Telemetry* telemetry) const {
  PROPANE_REQUIRE_MSG(options.replicates > 0,
                      "bootstrap needs at least one replicate");
  PROPANE_REQUIRE_MSG(accumulator_.record_count() > 0,
                      "bootstrap needs at least one journal record");
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t B = options.replicates;

  // Normalised fraction ladder; the full-size run (1.0) is always last and
  // doubles as the main bootstrap pass.
  std::vector<double> fractions;
  for (double f : options.run_fractions) {
    if (f > 0.0 && f < 1.0) fractions.push_back(f);
  }
  std::sort(fractions.begin(), fractions.end());
  fractions.erase(std::unique(fractions.begin(), fractions.end()),
                  fractions.end());
  fractions.push_back(1.0);
  // Opens the bootstrap's session in a telemetry log it shares with the
  // campaign's run and resume sessions (obs::session_starts).
  obs::emit_event(telemetry, "bootstrap.plan",
                  {{"replicates", obs::Value(B)},
                   {"fractions", obs::Value(fractions.size())},
                   {"records", obs::Value(accumulator_.record_count())},
                   {"cells", obs::Value(cells_.size())}});

  // Evaluation view of the cells: key order and sorted masks make every
  // draw a pure function of journal *content* -- shard layout, merge order
  // and record arrival order all wash out, the same invariance the
  // permeability CSV already honours. The sorted masks are split into runs
  // of equal values, so a draw only counts the group of the index it picks.
  struct EvalCell {
    const Cell* cell = nullptr;
    std::uint64_t salt = 0;
    std::vector<std::uint64_t> group_masks;  // distinct masks, ascending
    std::vector<std::uint32_t> group_of;     // sorted record index -> group
  };
  std::vector<EvalCell> eval_cells;
  eval_cells.reserve(cells_.size());
  std::size_t max_groups = 0;
  for (const auto& [key, index] : cell_index_) {
    EvalCell ec;
    ec.cell = &cells_[index];
    ec.salt = derive(key.first, key.second);
    std::vector<std::uint64_t> masks = ec.cell->error_masks;
    std::sort(masks.begin(), masks.end());
    ec.group_of.reserve(masks.size());
    for (std::size_t i = 0; i < masks.size(); ++i) {
      if (i == 0 || masks[i] != masks[i - 1]) {
        ec.group_masks.push_back(masks[i]);
      }
      ec.group_of.push_back(
          static_cast<std::uint32_t>(ec.group_masks.size() - 1));
    }
    max_groups = std::max(max_groups, ec.group_masks.size());
    eval_cells.push_back(std::move(ec));
  }

  // Point estimate and derived layout (tree/path structure is purely
  // structural -- permeability only feeds edge weights -- so every
  // replicate produces trees and path lists index-aligned with these).
  const EstimationResult point = accumulator_.finish();
  const std::size_t pair_count = point.pairs.size();
  std::vector<std::size_t> active;  // pair indices with injections
  for (std::size_t i = 0; i < pair_count; ++i) {
    if (point.pairs[i].injections > 0) active.push_back(i);
  }

  const core::PermeabilityGraph point_graph(model_, point.permeability);
  const auto point_trees =
      core::build_all_backtrack_trees(model_, point.permeability);
  const auto point_exposures =
      core::signal_error_exposures(model_, point_trees);
  struct PathSlot {
    std::uint32_t tree = 0;
    std::string description;
    bool ends_in_feedback = false;
    double point_weight = 0.0;
  };
  std::vector<PathSlot> path_slots;
  std::vector<std::size_t> paths_per_tree(point_trees.size(), 0);
  for (std::uint32_t t = 0; t < point_trees.size(); ++t) {
    for (const core::PropagationPath& path :
         core::backtrack_paths(point_trees[t])) {
      path_slots.push_back({t,
                            core::format_path(model_, point_trees[t], path),
                            path.ends_in_feedback, path.weight});
      ++paths_per_tree[t];
    }
  }

  const std::size_t module_count = model_.module_count();
  const std::size_t signal_count = point_exposures.size();

  // Per-fraction draw plan: m_c = ceil(f * n_c) draws per cell, and the
  // per-pair injection denominator those draws imply (constant across
  // replicates: resampling varies *which* records, never how many).
  struct FractionPlan {
    double fraction = 1.0;
    std::vector<std::size_t> cell_draws;  // by eval_cells index
    std::vector<std::size_t> pair_injections;
    std::size_t total_draws = 0;
  };
  std::vector<FractionPlan> plans(fractions.size());
  for (std::size_t f = 0; f < fractions.size(); ++f) {
    FractionPlan& plan = plans[f];
    plan.fraction = fractions[f];
    plan.cell_draws.resize(eval_cells.size());
    plan.pair_injections.assign(pair_count, 0);
    for (std::size_t c = 0; c < eval_cells.size(); ++c) {
      const std::size_t m =
          scaled_draws(plan.fraction, eval_cells[c].group_of.size());
      plan.cell_draws[c] = m;
      plan.total_draws += m;
      for (std::uint32_t pair : eval_cells[c].cell->pair_indices) {
        plan.pair_injections[pair] += m;
      }
    }
  }

  // Adds `count` errors to every pair of `ec` whose bit is set in `mask`.
  const auto add_errors = [](const EvalCell& ec, std::uint64_t mask,
                             std::uint32_t count,
                             std::vector<std::uint32_t>& err) {
    while (mask != 0) {
      const int j = std::countr_zero(mask);
      mask &= mask - 1;
      err[ec.cell->pair_indices[static_cast<std::size_t>(j)]] += count;
    }
  };

  // One bootstrap error-count draw: replicate r of fraction f. `counts` is
  // per-group scratch of at least max_groups entries.
  const auto resample_errors = [&](std::size_t fraction_index,
                                   std::size_t replicate,
                                   std::vector<std::uint32_t>& err,
                                   std::vector<std::uint32_t>& counts) {
    std::fill(err.begin(), err.end(), 0u);
    const FractionPlan& plan = plans[fraction_index];
    for (std::size_t c = 0; c < eval_cells.size(); ++c) {
      const EvalCell& ec = eval_cells[c];
      const std::size_t draws = plan.cell_draws[c];
      const std::size_t groups = ec.group_masks.size();
      if (groups == 1) {
        // Every draw picks the same mask, so the cell needs no stream; each
        // cell's stream is seeded on its own, so no other draw moves.
        add_errors(ec, ec.group_masks[0], static_cast<std::uint32_t>(draws),
                   err);
        continue;
      }
      Rng rng(replicate_seed(options.seed, fraction_index, replicate,
                             ec.salt));
      std::fill_n(counts.begin(), groups, 0u);
      const std::uint64_t n = ec.group_of.size();
      for (std::size_t d = 0; d < draws; ++d) {
        ++counts[ec.group_of[rng.bounded(n)]];
      }
      for (std::size_t g = 0; g < groups; ++g) {
        add_errors(ec, ec.group_masks[g], counts[g], err);
      }
    }
  };

  const auto permeability_of = [&](const std::vector<std::uint32_t>& err,
                                   const FractionPlan& plan) {
    core::SystemPermeability sp(model_);
    for (std::size_t i : active) {
      const std::size_t inj = plan.pair_injections[i];
      if (inj == 0) continue;
      const core::ArcId& id = point.pairs[i].pair;
      sp.set(id.module, id.input, id.output,
             static_cast<double>(err[i]) / static_cast<double>(inj));
    }
    return sp;
  };

  // Preallocated sample matrices; replicate r writes column slot [..][r]
  // only, so the parallel loop is race-free and scheduling-independent.
  const auto matrix = [B](std::size_t rows) {
    return std::vector<std::vector<double>>(rows, std::vector<double>(B));
  };
  auto pair_samples = matrix(active.size());
  auto mod_eq2 = matrix(module_count);
  auto mod_eq3 = matrix(module_count);
  auto mod_eq4 = matrix(module_count);
  auto mod_eq5 = matrix(module_count);
  auto signal_samples = matrix(signal_count);
  auto path_samples = matrix(path_slots.size());
  // Convergence passes only need Eq. 5 per module.
  std::vector<std::vector<std::vector<double>>> conv_eq5(fractions.size() -
                                                         1);
  for (auto& m : conv_eq5) m = matrix(module_count);

  // One bucket layout for both, so their quantiles compare.
  const std::vector<double> us_bounds = {10.0, 100.0, 1000.0, 10000.0,
                                         100000.0};
  obs::Histogram* replicate_us =
      obs::find_histogram(telemetry, "bootstrap.replicate.us", us_bounds);
  obs::Histogram* resample_us =
      obs::find_histogram(telemetry, "bootstrap.resample.us", us_bounds);

  ThreadPool pool(options.threads, telemetry);
  const std::size_t main_fraction = fractions.size() - 1;
  pool.parallel_for(0, B, [&](std::size_t r) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::uint32_t> err(pair_count);
    std::vector<std::uint32_t> counts(max_groups);
    std::chrono::steady_clock::duration resample_time{};
    const auto timed_resample = [&](std::size_t f) {
      const auto start = std::chrono::steady_clock::now();
      resample_errors(f, r, err, counts);
      resample_time += std::chrono::steady_clock::now() - start;
    };

    // Subsampled convergence passes (Eq. 5 only).
    for (std::size_t f = 0; f + 1 < fractions.size(); ++f) {
      timed_resample(f);
      const core::SystemPermeability sp = permeability_of(err, plans[f]);
      const core::PermeabilityGraph graph(model_, sp);
      for (core::ModuleId m = 0; m < module_count; ++m) {
        conv_eq5[f][m][r] = graph.nonweighted_error_exposure(m);
      }
    }

    // Full-size pass: the bootstrap proper, through the whole pipeline.
    timed_resample(main_fraction);
    const core::SystemPermeability sp =
        permeability_of(err, plans[main_fraction]);
    for (std::size_t slot = 0; slot < active.size(); ++slot) {
      const core::ArcId& id = point.pairs[active[slot]].pair;
      pair_samples[slot][r] = sp.get(id.module, id.input, id.output);
    }
    const core::PermeabilityGraph graph(model_, sp);
    for (core::ModuleId m = 0; m < module_count; ++m) {
      mod_eq2[m][r] = sp.relative_permeability(m);
      mod_eq3[m][r] = sp.nonweighted_relative_permeability(m);
      mod_eq4[m][r] = graph.error_exposure(m);  // NaN when no incoming arcs
      mod_eq5[m][r] = graph.nonweighted_error_exposure(m);
    }
    const auto trees = core::build_all_backtrack_trees(model_, sp);
    const auto exposures = core::signal_error_exposures(model_, trees);
    PROPANE_CHECK(exposures.size() == signal_count);
    for (std::size_t s = 0; s < signal_count; ++s) {
      signal_samples[s][r] = exposures[s].exposure;
    }
    std::size_t flat = 0;
    for (std::uint32_t t = 0; t < trees.size(); ++t) {
      const auto paths = core::backtrack_paths(trees[t]);
      PROPANE_CHECK(paths.size() == paths_per_tree[t]);
      for (const core::PropagationPath& path : paths) {
        path_samples[flat++][r] = path.weight;
      }
    }
    if (replicate_us != nullptr) {
      replicate_us->observe(static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
    if (resample_us != nullptr) {
      resample_us->observe(
          std::chrono::duration<double, std::micro>(resample_time).count());
    }
  });

  // Assemble the result (single-threaded; rankings re-sort per replicate).
  BootstrapResult result;
  result.replicates = B;
  result.seed = options.seed;
  result.top_k = options.top_k;
  result.record_count = accumulator_.record_count();
  result.cell_count = cells_.size();
  for (core::ModuleId m = 0; m < module_count; ++m) {
    result.module_names.push_back(model_.module_name(m));
  }

  for (std::size_t slot = 0; slot < active.size(); ++slot) {
    const PairEstimate& pe = point.pairs[active[slot]];
    PairCloud cloud;
    cloud.pair = pe.pair;
    cloud.module_name = model_.module_name(pe.pair.module);
    cloud.input_name = pe.input_name;
    cloud.output_name = pe.output_name;
    cloud.injections = pe.injections;
    cloud.errors = pe.errors;
    cloud.permeability = {pe.permeability(), band_of(pair_samples[slot])};
    result.pairs.push_back(std::move(cloud));
  }

  std::vector<const std::vector<double>*> eq5_columns;
  std::vector<const std::vector<double>*> eq3_columns;
  for (core::ModuleId m = 0; m < module_count; ++m) {
    eq5_columns.push_back(&mod_eq5[m]);
    eq3_columns.push_back(&mod_eq3[m]);
  }
  const RankingStability exposure_rank =
      ranking_stability(eq5_columns, B, options.top_k);
  const RankingStability permeability_rank =
      ranking_stability(eq3_columns, B, options.top_k);

  std::vector<double> point_eq5(module_count);
  std::vector<double> point_eq3(module_count);
  for (core::ModuleId m = 0; m < module_count; ++m) {
    ModuleCloud cloud;
    cloud.module = m;
    cloud.name = model_.module_name(m);
    cloud.relative_permeability = {
        point.permeability.relative_permeability(m), band_of(mod_eq2[m])};
    cloud.nonweighted_permeability = {
        point.permeability.nonweighted_relative_permeability(m),
        band_of(mod_eq3[m])};
    cloud.incoming_arcs = point_graph.incoming_arcs(m).size();
    if (cloud.incoming_arcs > 0) {
      cloud.exposure = {point_graph.error_exposure(m), band_of(mod_eq4[m])};
    }
    cloud.nonweighted_exposure = {point_graph.nonweighted_error_exposure(m),
                                  band_of(mod_eq5[m])};
    cloud.p_top1_exposure = exposure_rank.p_top1[m];
    cloud.p_topk_exposure = exposure_rank.p_topk[m];
    cloud.p_top1_permeability = permeability_rank.p_top1[m];
    cloud.p_topk_permeability = permeability_rank.p_topk[m];
    point_eq5[m] = cloud.nonweighted_exposure.point;
    point_eq3[m] = cloud.nonweighted_permeability.point;
    result.modules.push_back(std::move(cloud));
  }

  // Signal clouds: module-output signals only (Table 3 omits system
  // inputs); rankings run over that same subset.
  std::vector<std::size_t> signal_subset;
  for (std::size_t s = 0; s < signal_count; ++s) {
    if (point_exposures[s].signal.kind == core::SourceKind::kModuleOutput) {
      signal_subset.push_back(s);
    }
  }
  std::vector<const std::vector<double>*> signal_columns;
  for (std::size_t s : signal_subset) {
    signal_columns.push_back(&signal_samples[s]);
  }
  const RankingStability signal_rank =
      ranking_stability(signal_columns, B, options.top_k);
  for (std::size_t i = 0; i < signal_subset.size(); ++i) {
    const core::SignalExposure& pe = point_exposures[signal_subset[i]];
    SignalCloud cloud;
    cloud.name = pe.name;
    cloud.exposure = {pe.exposure, band_of(signal_samples[signal_subset[i]])};
    cloud.p_top1 = signal_rank.p_top1[i];
    cloud.p_topk = signal_rank.p_topk[i];
    result.signals.push_back(std::move(cloud));
  }
  std::stable_sort(result.signals.begin(), result.signals.end(),
                   [](const SignalCloud& a, const SignalCloud& b) {
                     return a.exposure.point > b.exposure.point;
                   });

  std::vector<const std::vector<double>*> path_columns;
  for (std::size_t p = 0; p < path_slots.size(); ++p) {
    path_columns.push_back(&path_samples[p]);
  }
  const RankingStability path_rank =
      ranking_stability(path_columns, B, options.top_k);
  for (std::size_t p = 0; p < path_slots.size(); ++p) {
    PathCloud cloud;
    cloud.tree = path_slots[p].tree;
    cloud.description = path_slots[p].description;
    cloud.ends_in_feedback = path_slots[p].ends_in_feedback;
    cloud.weight = {path_slots[p].point_weight, band_of(path_samples[p])};
    cloud.p_top1 = path_rank.p_top1[p];
    cloud.p_topk = path_rank.p_topk[p];
    result.paths.push_back(std::move(cloud));
  }
  std::stable_sort(result.paths.begin(), result.paths.end(),
                   [](const PathCloud& a, const PathCloud& b) {
                     return a.weight.point > b.weight.point;
                   });

  if (module_count > 0) {
    const std::size_t edm = argmax(point_eq5);
    result.edm_module = model_.module_name(static_cast<core::ModuleId>(edm));
    result.edm_p_top1 = exposure_rank.p_top1[edm];
    const std::size_t erm = argmax(point_eq3);
    result.erm_module = model_.module_name(static_cast<core::ModuleId>(erm));
    result.erm_p_top1 = permeability_rank.p_top1[erm];
  }

  for (std::size_t f = 0; f < fractions.size(); ++f) {
    ConvergencePoint cp;
    cp.fraction = fractions[f];
    cp.draws = plans[f].total_draws;
    const auto& samples = (f + 1 < fractions.size()) ? conv_eq5[f] : mod_eq5;
    std::vector<const std::vector<double>*> columns;
    for (core::ModuleId m = 0; m < module_count; ++m) {
      cp.module_exposure.push_back({point_eq5[m], band_of(samples[m])});
      columns.push_back(&samples[m]);
    }
    cp.module_p_top1 = ranking_stability(columns, B, 1).p_top1;
    result.convergence.push_back(std::move(cp));
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  if (obs::Counter* c = obs::find_counter(telemetry, "bootstrap.records")) {
    c->add(result.record_count);
  }
  if (obs::Counter* c = obs::find_counter(telemetry, "bootstrap.cells")) {
    c->add(result.cell_count);
  }
  if (obs::Counter* c =
          obs::find_counter(telemetry, "bootstrap.replicates")) {
    c->add(B * fractions.size());
  }
  if (obs::Gauge* g =
          obs::find_gauge(telemetry, "bootstrap.replicates_per_s")) {
    if (result.wall_seconds > 0.0) {
      g->set(static_cast<double>(B * fractions.size()) /
             result.wall_seconds);
    }
  }
  obs::emit_event(
      telemetry, "bootstrap.done",
      {{"replicates", obs::Value(B)},
       {"fractions", obs::Value(fractions.size())},
       {"records", obs::Value(result.record_count)},
       {"cells", obs::Value(result.cell_count)},
       {"paths", obs::Value(result.paths.size())},
       {"dur_us", obs::Value(static_cast<std::uint64_t>(
                      result.wall_seconds * 1e6))}});
  return result;
}

}  // namespace propane::fi
