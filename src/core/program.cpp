#include "core/program.hpp"

namespace pax {

PhaseId PhaseProgram::define_phase(PhaseSpec spec) {
  PAX_CHECK_MSG(spec.granules > 0, "phase must have at least one granule");
  for (const auto& p : phases_)
    PAX_CHECK_MSG(p.name != spec.name, "duplicate phase name");
  phases_.push_back(std::move(spec));
  return static_cast<PhaseId>(phases_.size() - 1);
}

PhaseId PhaseProgram::phase_by_name(const std::string& name) const {
  for (std::size_t i = 0; i < phases_.size(); ++i)
    if (phases_[i].name == name) return static_cast<PhaseId>(i);
  return kNoPhase;
}

void PhaseProgram::verify() const {
  PAX_CHECK_MSG(!nodes_.empty(), "empty program");
  bool has_halt = false;
  for (const auto& n : nodes_) {
    if (const auto* d = std::get_if<DispatchNode>(&n)) {
      PAX_CHECK_MSG(d->phase < phases_.size(), "dispatch references unknown phase");
      for (const auto& e : d->enables) {
        PAX_CHECK_MSG(phase_by_name(e.successor_name) != kNoPhase,
                      "enable clause references unknown phase");
        if (e.kind == MappingKind::kReverseIndirect)
          PAX_CHECK_MSG(e.indirection.requires_of != nullptr,
                        "reverse-indirect clause needs requires_of");
        if (e.kind == MappingKind::kForwardIndirect)
          PAX_CHECK_MSG(e.indirection.enables_of != nullptr,
                        "forward-indirect clause needs enables_of");
      }
    } else if (const auto* b = std::get_if<BranchNode>(&n)) {
      PAX_CHECK_MSG(b->selector != nullptr, "branch without selector");
      PAX_CHECK_MSG(!b->targets.empty(), "branch without targets");
      for (auto t : b->targets)
        PAX_CHECK_MSG(t < nodes_.size(), "branch target out of range");
    } else if (std::holds_alternative<HaltNode>(n)) {
      has_halt = true;
    }
  }
  PAX_CHECK_MSG(has_halt, "program has no halt node");
}

}  // namespace pax
