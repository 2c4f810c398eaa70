// bench_util.hpp — shared builders for the experiment harness.
//
// Each bench binary regenerates one quantitative claim of the paper (see
// DESIGN.md §4 and the README bench matrix). The helpers here build canonical
// two-phase programs for every mapping kind and run them on the simulator.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/executive.hpp"
#include "sim/machine.hpp"

namespace pax::bench {

/// A canonical two-phase (A then B) program with the requested enablement
/// mapping from A to B. For reverse/forward kinds, `fan` controls the number
/// of requirements per successor granule (the paper's J=1..10) / targets per
/// current granule.
struct TwoPhase {
  PhaseProgram program;
  PhaseId a = kNoPhase;
  PhaseId b = kNoPhase;
};

inline TwoPhase two_phase(GranuleId n_a, GranuleId n_b, MappingKind kind,
                          std::uint32_t fan = 4, bool stable = false,
                          bool serial_between = false,
                          bool serial_conflicts = true) {
  TwoPhase out;
  out.a = out.program.define_phase(make_phase("phaseA", n_a).writes("X"));
  out.b = out.program.define_phase(make_phase("phaseB", n_b).reads("X").writes("Y"));

  EnableClause clause;
  clause.successor_name = "phaseB";
  clause.kind = kind;
  if (kind == MappingKind::kReverseIndirect) {
    clause.indirection.requires_of = [n_a, fan](GranuleId r,
                                                std::vector<GranuleId>& need) {
      std::uint64_t s = 0x51ED2701u ^ (static_cast<std::uint64_t>(r) << 17);
      for (std::uint32_t j = 0; j < fan; ++j)
        need.push_back(static_cast<GranuleId>(splitmix64(s) % n_a));
    };
    clause.indirection.stable = stable;
  } else if (kind == MappingKind::kForwardIndirect) {
    clause.indirection.enables_of = [n_b, fan](GranuleId p,
                                               std::vector<GranuleId>& en) {
      std::uint64_t s = 0x2F0A1993u ^ (static_cast<std::uint64_t>(p) << 13);
      for (std::uint32_t j = 0; j < fan; ++j)
        en.push_back(static_cast<GranuleId>(splitmix64(s) % n_b));
    };
    clause.indirection.stable = stable;
  }

  out.program.dispatch(out.a, {clause});
  if (serial_between)
    out.program.serial("between", {}, /*sim_duration=*/200, serial_conflicts);
  out.program.dispatch(out.b);
  out.program.halt();
  return out;
}

/// Rundown window of phase-1 under a given result: [first idle-onset
/// candidate, phase completion]. We approximate the onset as `window_frac`
/// of the phase's span before its completion.
inline double rundown_utilization(const sim::SimResult& res, PhaseId phase,
                                  double window_frac = 0.15) {
  const SimTime done = res.phase_completion(phase);
  if (done == kTimeNever || done == 0) return 0.0;
  const auto span = static_cast<SimTime>(static_cast<double>(done) * window_frac);
  const SimTime from = done > span ? done - span : 0;
  if (done <= from) return 0.0;
  return res.window_utilization(from, done);
}

inline std::string fixed(double v, int prec = 2) { return Table::num(v, prec); }

inline void print_banner(const char* id, const char* claim) {
  std::printf("\n############################################################\n");
  std::printf("# %s\n# paper: %s\n", id, claim);
  std::printf("############################################################\n\n");
}

}  // namespace pax::bench
