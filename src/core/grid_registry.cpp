#include "core/grid_registry.h"

#include <stdexcept>

namespace falvolt::core {

GridRegistry& GridRegistry::instance() {
  static GridRegistry registry;
  return registry;
}

void GridRegistry::add(GridDef def) {
  if (def.name.empty()) {
    throw std::logic_error("GridRegistry: grid needs a name");
  }
  if (!def.add_flags || !def.scenarios || !def.scenario_fn) {
    throw std::logic_error("GridRegistry: grid '" + def.name +
                           "' is missing a callback");
  }
  const int presentation = !def.label.empty() + !def.csv_columns.empty() +
                           static_cast<bool>(def.report) + !def.note.empty();
  if (presentation != 0 && presentation != 4) {
    throw std::logic_error("GridRegistry: grid '" + def.name +
                           "' needs all of label, csv_columns, report and "
                           "note, or none");
  }
  if (find(def.name)) {
    throw std::logic_error("GridRegistry: duplicate grid '" + def.name + "'");
  }
  defs_.push_back(std::move(def));
}

const GridDef* GridRegistry::find(const std::string& name) const {
  for (const GridDef& def : defs_) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

const GridDef& GridRegistry::get(const std::string& name) const {
  const GridDef* def = find(name);
  if (def) return *def;
  std::string known;
  for (const GridDef& d : defs_) {
    known += known.empty() ? "" : ", ";
    known += d.name;
  }
  throw std::out_of_range("GridRegistry: no grid '" + name +
                          "' (registered: " +
                          (known.empty() ? "<none>" : known) + ")");
}

std::vector<std::string> GridRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(defs_.size());
  for (const GridDef& def : defs_) out.push_back(def.name);
  return out;
}

}  // namespace falvolt::core
