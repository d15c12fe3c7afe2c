#include "core/permeability.hpp"

#include "common/contracts.hpp"

namespace propane::core {

double& SystemPermeability::ModuleMatrix::at(PortIndex input,
                                             PortIndex output) {
  return p[static_cast<std::size_t>(input) * outputs + output];
}

double SystemPermeability::ModuleMatrix::at(PortIndex input,
                                            PortIndex output) const {
  return p[static_cast<std::size_t>(input) * outputs + output];
}

SystemPermeability::SystemPermeability(const SystemModel& model) {
  per_module_.reserve(model.module_count());
  for (ModuleId m = 0; m < model.module_count(); ++m) {
    const ModuleInfo& info = model.module(m);
    ModuleMatrix matrix;
    matrix.inputs = info.input_count();
    matrix.outputs = info.output_count();
    matrix.p.assign(matrix.inputs * matrix.outputs, 0.0);
    per_module_.push_back(std::move(matrix));
  }
}

const SystemPermeability::ModuleMatrix& SystemPermeability::matrix(
    ModuleId module) const {
  PROPANE_REQUIRE(module < per_module_.size());
  return per_module_[module];
}

void SystemPermeability::set(ModuleId module, PortIndex input,
                             PortIndex output, double p) {
  PROPANE_REQUIRE(module < per_module_.size());
  auto& m = per_module_[module];
  PROPANE_REQUIRE(input < m.inputs);
  PROPANE_REQUIRE(output < m.outputs);
  PROPANE_REQUIRE_MSG(p >= 0.0 && p <= 1.0,
                      "permeability must be a probability in [0, 1]");
  m.at(input, output) = p;
}

void SystemPermeability::set(const SystemModel& model,
                             std::string_view module_name,
                             std::string_view input, std::string_view output,
                             double p) {
  const auto id = model.find_module(module_name);
  PROPANE_REQUIRE_MSG(id.has_value(),
                      "unknown module: " + std::string(module_name));
  const auto in = model.find_input(*id, input);
  PROPANE_REQUIRE_MSG(in.has_value(), "unknown input: " + std::string(input));
  const auto out = model.find_output(*id, output);
  PROPANE_REQUIRE_MSG(out.has_value(),
                      "unknown output: " + std::string(output));
  set(*id, *in, *out, p);
}

double SystemPermeability::get(ModuleId module, PortIndex input,
                               PortIndex output) const {
  const auto& m = matrix(module);
  PROPANE_REQUIRE(input < m.inputs);
  PROPANE_REQUIRE(output < m.outputs);
  return m.at(input, output);
}

double SystemPermeability::relative_permeability(ModuleId module) const {
  const auto& m = matrix(module);
  const std::size_t pairs = m.inputs * m.outputs;
  PROPANE_REQUIRE_MSG(pairs > 0, "module has no input/output pairs");
  return nonweighted_relative_permeability(module) /
         static_cast<double>(pairs);
}

double SystemPermeability::nonweighted_relative_permeability(
    ModuleId module) const {
  const auto& m = matrix(module);
  double sum = 0.0;
  for (double v : m.p) sum += v;
  return sum;
}

std::size_t SystemPermeability::input_count(ModuleId module) const {
  return matrix(module).inputs;
}

std::size_t SystemPermeability::output_count(ModuleId module) const {
  return matrix(module).outputs;
}

}  // namespace propane::core
