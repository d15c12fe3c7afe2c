// Error permeability and its module-level aggregates (Section 4.1).
//
// For input i and output k of module M, the error permeability
//     P^M_{i,k} = Pr{ error in output k | error in input i }        (Eq. 1)
// is the basic measure. From it the paper derives
//     relative permeability              P^M  = (1/(m*n)) * sum P   (Eq. 2)
//     non-weighted relative permeability P̄^M =             sum P   (Eq. 3)
// which order modules by how error-transparent they are; Eq. 3 "punishes"
// hub modules with many input/output pairs.
#pragma once

#include <cstddef>
#include <vector>

#include "core/system_model.hpp"

namespace propane::core {

/// Holds one permeability value P^M_{i,k} per (module, input, output) pair
/// of a SystemModel. Values live in [0, 1]; default 0.
///
/// Values may be assigned analytically (examples, unit tests) or estimated
/// from a fault-injection campaign (fi::PermeabilityEstimator).
class SystemPermeability {
 public:
  explicit SystemPermeability(const SystemModel& model);

  /// Assigns P^M_{i,k}; p must be within [0, 1].
  void set(ModuleId module, PortIndex input, PortIndex output, double p);
  /// Name-based convenience setter.
  void set(const SystemModel& model, std::string_view module_name,
           std::string_view input, std::string_view output, double p);

  double get(ModuleId module, PortIndex input, PortIndex output) const;

  /// Eq. 2: mean permeability over the module's m*n input/output pairs.
  double relative_permeability(ModuleId module) const;

  /// Eq. 3: sum of permeabilities over the module's input/output pairs;
  /// bounded by m*n.
  double nonweighted_relative_permeability(ModuleId module) const;

  std::size_t module_count() const { return per_module_.size(); }
  std::size_t input_count(ModuleId module) const;
  std::size_t output_count(ModuleId module) const;

 private:
  struct ModuleMatrix {
    std::size_t inputs = 0;
    std::size_t outputs = 0;
    std::vector<double> p;  // row-major [input][output]

    double& at(PortIndex input, PortIndex output);
    double at(PortIndex input, PortIndex output) const;
  };

  const ModuleMatrix& matrix(ModuleId module) const;

  std::vector<ModuleMatrix> per_module_;
};

}  // namespace propane::core
