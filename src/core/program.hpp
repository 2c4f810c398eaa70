// program.hpp — PhaseProgram: the parallel control stream.
//
// Mirrors the paper's language constructs:
//   DISPATCH phase ENABLE [name/MAPPING=option ...]   -> DispatchNode
//   serial actions and decisions between phases        -> SerialNode
//   IF (...) GO TO target / preprocessable branches    -> BranchNode
//
// The executive walks this program, overlapping each dispatched phase with
// the successor its lookahead discovers (provided an ENABLE clause names it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.hpp"
#include "core/enablement.hpp"
#include "core/phase.hpp"

namespace pax {

/// Mutable integer environment shared by serial actions and branch
/// conditions (loop counters, convergence flags, ...). Keeping it explicit
/// makes programs deterministic and serialisable from the PAX language.
class ProgramEnv {
 public:
  [[nodiscard]] std::int64_t get(const std::string& name) const {
    for (const auto& [k, v] : vars_)
      if (k == name) return v;
    return 0;
  }
  void set(const std::string& name, std::int64_t value) {
    for (auto& [k, v] : vars_) {
      if (k == name) {
        v = value;
        return;
      }
    }
    vars_.emplace_back(name, value);
  }
  void add(const std::string& name, std::int64_t delta) { set(name, get(name) + delta); }

 private:
  std::vector<std::pair<std::string, std::int64_t>> vars_;
};

struct DispatchNode {
  PhaseId phase = kNoPhase;
  /// ENABLE clauses: which successor phases may be overlapped, and how. The
  /// executive verifies the named phase actually follows before overlapping
  /// (the "interlock" the paper asks for).
  std::vector<EnableClause> enables;
};

struct SerialNode {
  std::string name;
  /// Executed on the executive. May mutate the environment (loop counters,
  /// convergence decisions). Optional.
  std::function<void(ProgramEnv&)> action;
  /// Simulated duration charged in addition to the kSerialAction unit cost.
  SimTime sim_duration = 0;
  /// Whether the action conflicts with the preceding phase's data. A
  /// conflicting serial action blocks overlap (this is what makes a phase
  /// pair *null*-mapped in the census). Non-conflicting actions can be
  /// executed early under Config::early_serial — the paper's "extended
  /// effort" that lifts overlappability above 90%.
  bool conflicts_with_prev = true;
};

struct BranchNode {
  std::string name;
  /// Chooses an arm index into `targets` given the environment.
  std::function<std::size_t(const ProgramEnv&)> selector;
  /// Node indices of the arms.
  std::vector<std::uint32_t> targets;
  /// Paper: "a conditional branch that is not dependent on the computational
  /// phase separates that phase from two or more succeeding phases". When
  /// true, the executive may preprocess the branch during lookahead and
  /// overlap the appropriate arm (ENABLE/BRANCHINDEPENDENT); when false it
  /// must wait for phase completion (ENABLE/BRANCHDEPENDENT).
  bool phase_independent = false;
};

struct HaltNode {};

using ProgramNode = std::variant<DispatchNode, SerialNode, BranchNode, HaltNode>;

/// A program over a set of defined phases. Node 0 is the entry point; every
/// program must end every path with a HaltNode.
class PhaseProgram {
 public:
  /// Register a phase definition; returns its PhaseId.
  PhaseId define_phase(PhaseSpec spec);

  [[nodiscard]] const PhaseSpec& phase(PhaseId id) const {
    PAX_CHECK(id < phases_.size());
    return phases_[id];
  }
  [[nodiscard]] std::size_t phase_count() const { return phases_.size(); }
  [[nodiscard]] PhaseId phase_by_name(const std::string& name) const;

  /// Append one node (a DispatchNode, SerialNode, BranchNode or HaltNode),
  /// constructed in place as that alternative.
  template <class Node>
  std::uint32_t add(Node node) {
    nodes_.emplace_back(std::in_place_type<Node>, std::move(node));
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  // Convenience builders.
  std::uint32_t dispatch(PhaseId phase, std::vector<EnableClause> enables = {}) {
    return add(DispatchNode{phase, std::move(enables)});
  }
  std::uint32_t serial(std::string name, std::function<void(ProgramEnv&)> action = {},
                       SimTime sim_duration = 0, bool conflicts = true) {
    return add(SerialNode{std::move(name), std::move(action), sim_duration, conflicts});
  }
  std::uint32_t branch(std::string name,
                       std::function<std::size_t(const ProgramEnv&)> selector,
                       std::vector<std::uint32_t> targets,
                       bool phase_independent = false) {
    return add(BranchNode{std::move(name), std::move(selector), std::move(targets),
                          phase_independent});
  }
  std::uint32_t halt() { return add(HaltNode{}); }

  [[nodiscard]] const ProgramNode& node(std::uint32_t i) const {
    PAX_CHECK(i < nodes_.size());
    return nodes_[i];
  }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }

  /// Basic well-formedness: non-empty, all node/phase references in range,
  /// and the last reachable path ends in Halt. Aborts on violation; meant to
  /// be called once before execution.
  void verify() const;

 private:
  std::vector<PhaseSpec> phases_;
  std::vector<ProgramNode> nodes_;
};

}  // namespace pax
