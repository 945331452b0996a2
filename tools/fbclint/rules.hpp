// fbclint rules L001..L006 (see docs/STATIC-ANALYSIS.md for the rationale
// and the historical bug behind each rule).
//
//   L001 view-lifetime        temporary owning value passed to a
//                             std::span / std::string_view parameter
//   L002 hook completeness    adapter classes must forward every virtual
//                             of the interface they wrap
//   L003 registry             every policy header #included by the
//                             registry
//   L004 metrics completeness counters present in merge() and
//                             default-initialized
//   L005 determinism          no rand/time/mt19937/unordered iteration
//   L006 header hygiene       #pragma once, no `using namespace` in headers
//   L007 lock discipline      fbc:lock-level ordering, fbc:guards coverage,
//                             no blocking calls under a level-tagged lock
//   L008 wire/stat coherence  ServiceStats rows set by stats() and counted
//                             by the SERVING.md wire table; MsgType rows
//                             and metric names documented
#pragma once

#include <vector>

#include "fbclint/model.hpp"

namespace fbclint {

/// Runs every rule over the model; diagnostics are unsuppressed and
/// ordered by (path, line, rule).
[[nodiscard]] std::vector<Diagnostic> run_rules(const ProjectModel& model);

// Individual rules, exposed for targeted tests.
[[nodiscard]] std::vector<Diagnostic> rule_view_lifetime(
    const ProjectModel& model);  // L001
[[nodiscard]] std::vector<Diagnostic> rule_hook_completeness(
    const ProjectModel& model);  // L002
[[nodiscard]] std::vector<Diagnostic> rule_registry_completeness(
    const ProjectModel& model);  // L003
[[nodiscard]] std::vector<Diagnostic> rule_metrics_completeness(
    const ProjectModel& model);  // L004
[[nodiscard]] std::vector<Diagnostic> rule_determinism(
    const ProjectModel& model);  // L005
[[nodiscard]] std::vector<Diagnostic> rule_header_hygiene(
    const ProjectModel& model);  // L006
[[nodiscard]] std::vector<Diagnostic> rule_lock_discipline(
    const ProjectModel& model);  // L007
[[nodiscard]] std::vector<Diagnostic> rule_wire_coherence(
    const ProjectModel& model);  // L008

}  // namespace fbclint
