// Incremental ("delta") campaigns: content-addressed result reuse.
//
// Re-running a full SWIFI campaign after a change to one module wastes the
// vast majority of the injection budget: a run whose outcome cannot have
// changed is re-executed only to reproduce a record the previous campaign
// already holds. The delta engine instead gives every injection run a
// stable *fingerprint* -- a content address over everything the run's
// outcome depends on -- and replays the cached record whenever a baseline
// campaign holds a record with the same fingerprint, executing only the
// invalidated remainder.
//
// A run fingerprint covers, canonically encoded (store/record_codec.hpp
// ByteWriter, hashed with fnv1a64):
//   * the campaign master seed and the run's derived RNG seed
//     (fi::injection_run_seed -- a pure function of seed and flat index);
//   * the workload test case;
//   * the injection: target signal, fire time, phase, error-model name;
//   * the code-version tokens of the target signal's *consumer* modules
//     (the modules whose inputs the corrupted signal drives), sorted by
//     module name.
// Consumer versions -- rather than a whole-system version -- are what make
// the reuse compositional (FastFlip-style): a record for target signal S
// contributes permeability counts only to pairs of S's consumer modules
// (fi/estimator.hpp attribution), so a change elsewhere cannot alter what
// the record contributes, and replaying cached records next to freshly
// executed ones into one complete journal estimates exactly what a cold
// run of the changed system does.
//
// This header holds only the fingerprint recipe. The engine that resolves
// runs against a baseline journal, replays the hits and executes the rest
// is store::run_delta_journaled_campaign (store/result_cache.hpp; src/store
// layers above src/fi, not below it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/system_model.hpp"
#include "fi/campaign.hpp"
#include "fi/estimator.hpp"

namespace propane::fi {

/// One module's code-version token. The token is an opaque 64-bit value
/// chosen by whoever owns the module's implementation (the arrestment
/// modules expose theirs as kVersion constants, arr::module_version_tokens);
/// any change to a module's behaviour must change its token, or stale
/// cached records will be replayed as if still valid.
struct ModuleVersion {
  std::string module;
  std::uint64_t token = 0;
};
using ModuleVersionMap = std::vector<ModuleVersion>;

/// Modules whose inputs each bus signal drives, per bus id ([bus] -> sorted
/// unique ModuleIds). Signals the binding does not cover (pure bus-level
/// signals outside the analysis model) get empty consumer lists.
std::vector<std::vector<core::ModuleId>> consumers_by_bus(
    const core::SystemModel& model, const SignalBinding& binding,
    std::size_t bus_count);

/// Fingerprint of every injection run of `config`, indexed by
/// campaign_flat_index. Deterministic in (config, model, binding,
/// versions); independent of thread count and of any other run. Modules
/// absent from `versions` hash as token 0. Never returns 0 for a run
/// (0 is reserved to mean "no fingerprint", InjectionRecord::fingerprint).
std::vector<std::uint64_t> run_fingerprints(const CampaignConfig& config,
                                            const core::SystemModel& model,
                                            const SignalBinding& binding,
                                            const ModuleVersionMap& versions);

}  // namespace propane::fi
