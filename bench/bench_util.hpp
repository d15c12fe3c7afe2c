// Shared helpers for the bench binaries that regenerate the paper's tables
// and figures.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>

#include "exp/paper_experiment.hpp"

namespace propane::bench {

/// Prints the standard banner: which artefact of the paper this bench
/// regenerates and at which scale it runs.
inline void banner(const std::string& artefact,
                   const exp::ExperimentScale& scale) {
  std::printf("=== %s ===\n", artefact.c_str());
  std::printf("Hiller/Jhumka/Suri, \"An Approach for Analysing the "
              "Propagation of Data Errors in Software\", DSN 2001\n");
  std::printf("%s\n\n", exp::describe(scale).c_str());
}

/// Runs the experiment and reports the wall-clock cost.
inline exp::PaperExperiment timed_experiment(
    const exp::ExperimentScale& scale) {
  const auto t0 = std::chrono::steady_clock::now();
  exp::PaperExperiment experiment = exp::run_paper_experiment(scale);
  const auto t1 = std::chrono::steady_clock::now();
  std::printf("campaign: %zu runs in %.1f s\n\n",
              experiment.campaign.run_count(),
              std::chrono::duration<double>(t1 - t0).count());
  return experiment;
}

}  // namespace propane::bench
