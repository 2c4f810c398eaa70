#include "casper/pipeline.hpp"

#include <array>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace pax::casper {
namespace {

using MK = MappingKind;

struct Row {
  const char* name;
  GranuleId granules;     // before scaling
  std::uint32_t lines;    // the paper's census metric
  MK to_next;             // census class of the transition to the successor
  bool serial_after;      // null transitions carry a serial action
  bool serial_conflicts;  // conflicting => true null; else hoistable
  MK underlying;          // mapping once a non-conflicting serial is hoisted
  sim::DurationModel model;
  double spread;        // uniform half-width / bimodal long-mode extra
  double skip_p;        // conditional-execution probability
  const char* serial_name;
};

// The 22-phase CASPER cycle. Line counts reproduce the paper exactly:
//   universal 6/266, identity 9/551, null 4/262, reverse 2/78, forward 1/31.
// Identity transitions (including the two hoistable null transitions whose
// underlying mapping is identity) require equal granule counts on both sides.
constexpr std::array<Row, 22> kRows = {{
    // name                  gran  lines kind            serial conf underlying
    {"init_geometry",         768,  44, MK::kUniversal,       false, false, MK::kUniversal,       sim::DurationModel::kFixed,        0,   0.0, ""},
    {"metric_terms",          896,  61, MK::kIdentity,        false, false, MK::kIdentity,        sim::DurationModel::kUniform,      40,  0.0, ""},
    {"power_of_compression",  896,  45, MK::kUniversal,       false, false, MK::kUniversal,       sim::DurationModel::kExponential,  0,   0.0, ""},
    {"interp_matrix_rows",   1024,  61, MK::kIdentity,        false, false, MK::kIdentity,        sim::DurationModel::kUniform,      30,  0.0, ""},
    {"interp_matrix_cols",   1024,  65, MK::kNull,            true,  true,  MK::kIdentity,        sim::DurationModel::kFixed,        0,   0.0, "pivot_selection"},
    {"flux_predictor",       1024,  39, MK::kReverseIndirect, false, false, MK::kReverseIndirect, sim::DurationModel::kExponential,  0,   0.1, ""},
    {"flux_corrector",        960,  61, MK::kIdentity,        false, false, MK::kIdentity,        sim::DurationModel::kUniform,      50,  0.0, ""},
    {"artificial_viscosity",  960,  66, MK::kNull,            true,  true,  MK::kIdentity,        sim::DurationModel::kBimodal,      300, 0.0, "convergence_check"},
    {"pressure_update",       960,  61, MK::kIdentity,        false, false, MK::kIdentity,        sim::DurationModel::kUniform,      20,  0.0, ""},
    {"velocity_update",       960,  61, MK::kIdentity,        false, false, MK::kIdentity,        sim::DurationModel::kUniform,      20,  0.0, ""},
    {"energy_update",         960,  44, MK::kUniversal,       false, false, MK::kUniversal,       sim::DurationModel::kFixed,        0,   0.0, ""},
    {"turbulence_closure",    768,  61, MK::kIdentity,        false, false, MK::kIdentity,        sim::DurationModel::kExponential,  0,   0.3, ""},
    {"boundary_apply",        768,  31, MK::kForwardIndirect, false, false, MK::kForwardIndirect, sim::DurationModel::kFixed,        0,   0.25, ""},
    {"structural_loads",      640,  39, MK::kReverseIndirect, false, false, MK::kReverseIndirect, sim::DurationModel::kUniform,      60,  0.0, ""},
    {"modal_projection",      896,  61, MK::kIdentity,        false, false, MK::kIdentity,        sim::DurationModel::kUniform,      25,  0.0, ""},
    {"modal_integration",     896,  65, MK::kNull,            true,  false, MK::kUniversal,       sim::DurationModel::kFixed,        0,   0.0, "timestep_select"},
    {"displacement_expand",   768,  45, MK::kUniversal,       false, false, MK::kUniversal,       sim::DurationModel::kUniform,      35,  0.0, ""},
    {"grid_deform",          1024,  62, MK::kIdentity,        false, false, MK::kIdentity,        sim::DurationModel::kUniform,      30,  0.0, ""},
    {"grid_smooth",          1024,  62, MK::kIdentity,        false, false, MK::kIdentity,        sim::DurationModel::kUniform,      30,  0.0, ""},
    {"aero_struct_couple",   1024,  66, MK::kNull,            true,  false, MK::kUniversal,       sim::DurationModel::kExponential,  0,   0.0, "io_checkpoint"},
    {"convergence_residuals", 896,  44, MK::kUniversal,       false, false, MK::kUniversal,       sim::DurationModel::kFixed,        0,   0.0, ""},
    {"output_sample",         512,  44, MK::kUniversal,       false, false, MK::kUniversal,       sim::DurationModel::kFixed,        0,   0.5, ""},
}};

/// `prefix` followed by `i` in decimal. Appends rather than inserting the
/// number behind a literal (`"T" + std::to_string(i)`), which GCC 12 flags
/// with a false -Wrestrict in Release builds.
std::string numbered(const char* prefix, std::size_t i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

std::string transfer_array(std::size_t i) { return numbered("T", i); }
std::string private_array(std::size_t i) { return numbered("U", i); }

/// Effective mapping used for declared accesses (what the data actually
/// does, independent of any serial action in between).
MK data_mapping(const Row& r) { return r.serial_after ? r.underlying : r.to_next; }

}  // namespace

std::uint32_t CasperPipeline::total_lines() const {
  std::uint32_t t = 0;
  for (const auto& p : info) t += p.lines;
  return t;
}

GranuleId CasperPipeline::total_granules() const {
  GranuleId t = 0;
  for (const auto& p : info) t += p.granules;
  return t;
}

CasperPipeline build_casper_pipeline(const CasperOptions& opt) {
  PAX_CHECK(opt.scale >= 1 && opt.iterations >= 1);
  CasperPipeline out;
  out.options = opt;
  out.workload = sim::Workload(opt.seed);

  const std::size_t n = kRows.size();

  // --- ground-truth metadata -------------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    const Row& r = kRows[i];
    CasperPhaseInfo pi;
    pi.name = r.name;
    pi.granules = r.granules * opt.scale;
    pi.lines = r.lines;
    pi.to_next = r.to_next;
    pi.serial_after = r.serial_after;
    pi.serial_conflicts = r.serial_conflicts;
    pi.underlying = r.underlying;
    out.info.push_back(std::move(pi));
  }

  // --- phase specs with access declarations realising the census ------------
  // Transition i -> i+1 is carried by array T_i; each phase also writes a
  // private array so no phase is empty-handed. Universal transitions share
  // nothing (the successor never touches T_i).
  for (std::size_t i = 0; i < n; ++i) {
    const Row& r = kRows[i];
    const std::size_t prev = (i + n - 1) % n;
    const Row& rp = kRows[prev];
    PhaseSpec spec;
    spec.name = r.name;
    spec.granules = r.granules * opt.scale;
    spec.code_lines = r.lines;
    spec.writes(private_array(i));

    // Incoming side: read T_prev according to the previous transition's
    // data mapping.
    switch (data_mapping(rp)) {
      case MK::kUniversal:
        break;  // no shared data with the predecessor
      case MK::kIdentity:
        spec.reads(transfer_array(prev));
        break;
      case MK::kReverseIndirect:
        spec.reads(transfer_array(prev), IndexPattern::kIndirect,
                   numbered("RMAP", prev));
        break;
      case MK::kForwardIndirect:
        spec.reads(transfer_array(prev));  // successor side reads identity
        break;
      case MK::kNull:
        spec.reads(transfer_array(prev), IndexPattern::kWhole);
        break;
    }
    // Outgoing side: write T_i according to this transition's data mapping.
    switch (data_mapping(r)) {
      case MK::kUniversal:
        break;
      case MK::kIdentity:
      case MK::kReverseIndirect:
        spec.writes(transfer_array(i));
        break;
      case MK::kForwardIndirect:
        spec.writes(transfer_array(i), IndexPattern::kIndirect,
                    numbered("FMAP", i));
        break;
      case MK::kNull:
        spec.writes(transfer_array(i), IndexPattern::kWhole);
        break;
    }
    out.program.define_phase(std::move(spec));
  }

  // --- indirection maps (the paper's dynamically generated IMAPs) ------------
  // Reverse: successor granule needs 10 pseudo-random current granules
  // (paper: DO 200 J=1,10 ... A(IMAP(J,I))). Forward: current granule feeds
  // one pseudo-random successor granule (B(IMAP(I)) = A(IMAP(I))).
  auto make_reverse = [&](std::size_t i) {
    const GranuleId cur_n = kRows[i].granules * opt.scale;
    const std::uint64_t salt = opt.seed * 1000 + i;
    return IndirectionSpec{
        .requires_of =
            [cur_n, salt](GranuleId rr, std::vector<GranuleId>& need) {
              std::uint64_t s = salt ^ (0x9E3779B97F4A7C15ULL * (rr + 1));
              for (int j = 0; j < 10; ++j)
                need.push_back(
                    static_cast<GranuleId>(splitmix64(s) % cur_n));
            },
        .enables_of = nullptr};
  };
  auto make_forward = [&](std::size_t i) {
    const GranuleId succ_n = kRows[(i + 1) % n].granules * opt.scale;
    const std::uint64_t salt = opt.seed * 2000 + i;
    return IndirectionSpec{
        .requires_of = nullptr,
        .enables_of =
            [succ_n, salt](GranuleId p, std::vector<GranuleId>& en) {
              std::uint64_t s = salt ^ (0xC2B2AE3D27D4EB4FULL * (p + 1));
              en.push_back(static_cast<GranuleId>(splitmix64(s) % succ_n));
            }};
  };

  // --- program: LABEL top; 22 dispatches (+ serial actions); loop ------------
  out.program.serial("init_iter",
                     [](ProgramEnv& env) { env.set("iter", 0); }, 0,
                     /*conflicts=*/false);
  std::uint32_t top = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Row& r = kRows[i];
    const std::size_t next = (i + 1) % n;

    EnableClause clause;
    clause.successor_name = kRows[next].name;
    if (r.serial_after && r.serial_conflicts) {
      clause.kind = MK::kNull;  // overlap impossible; be explicit
    } else if (r.serial_after) {
      clause.kind = r.underlying;  // applied only when the serial is hoisted
    } else {
      clause.kind = r.to_next;
    }
    if (clause.kind == MK::kReverseIndirect) clause.indirection = make_reverse(i);
    if (clause.kind == MK::kForwardIndirect) clause.indirection = make_forward(i);

    const std::uint32_t node =
        out.program.dispatch(static_cast<PhaseId>(i), {clause});
    if (i == 0) top = node;

    if (r.serial_after) {
      // Conflicting serial actions model decisions over the phase's own
      // output; non-conflicting ones are bookkeeping (timestep selection,
      // checkpointing) that early_serial may hoist.
      out.program.serial(r.serial_name, {}, /*sim_duration=*/200,
                         r.serial_conflicts);
    }
  }
  out.program.serial("bump_iter",
                     [](ProgramEnv& env) { env.add("iter", 1); }, 0,
                     /*conflicts=*/false);
  const std::uint32_t iterations = opt.iterations;
  out.program.branch(
      "next_iter",
      [iterations](const ProgramEnv& env) {
        return env.get("iter") < static_cast<std::int64_t>(iterations)
                   ? std::size_t{0}
                   : std::size_t{1};
      },
      {top, static_cast<std::uint32_t>(out.program.size() + 1)},
      /*phase_independent=*/true);
  out.program.halt();

  // --- workload ---------------------------------------------------------------
  // Mean granule duration proportional to the phase's line count: the census
  // metric doubles as a work metric, as in the paper's lines-of-parallel-code
  // accounting.
  for (std::size_t i = 0; i < n; ++i) {
    const Row& r = kRows[i];
    sim::PhaseWorkload w;
    w.model = r.model;
    w.mean = 2.0 * r.lines;
    w.spread = r.spread;
    w.skip_probability = r.skip_p;
    w.skip_cost = 2;
    out.workload.set_phase(static_cast<PhaseId>(i), w);
  }
  return out;
}

CasperBodies make_casper_bodies(const CasperPipeline& pipe,
                                std::uint32_t work_scale) {
  CasperBodies out;
  out.buffers = std::make_shared<std::vector<std::vector<double>>>();
  out.buffers->resize(pipe.info.size());
  for (std::size_t i = 0; i < pipe.info.size(); ++i)
    (*out.buffers)[i].assign(pipe.info[i].granules, 0.0);

  for (std::size_t i = 0; i < pipe.info.size(); ++i) {
    const std::uint32_t iters = pipe.info[i].lines * work_scale;
    auto buffers = out.buffers;
    const std::size_t phase_index = i;
    out.bodies.set(static_cast<PhaseId>(i),
                   [buffers, phase_index, iters](GranuleRange r, WorkerId) {
                     auto& buf = (*buffers)[phase_index];
                     for (GranuleId g = r.lo; g < r.hi; ++g) {
                       // Small FP kernel; the result lands in the granule's
                       // slot so the work cannot be optimised away.
                       double acc = 1.0 + static_cast<double>(g);
                       for (std::uint32_t k = 0; k < iters; ++k)
                         acc = acc * 1.0000001 + 0.5;
                       buf[g] = acc;
                     }
                   });
  }
  return out;
}

}  // namespace pax::casper
