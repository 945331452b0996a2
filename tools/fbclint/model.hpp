// fbclint project model: the cross-file facts the rules consume.
//
// fbclint is not a general C++ analyzer -- it extracts exactly the facts the
// L001..L006 rules need from the lexed token streams:
//
//   * view-taking signatures      functions/constructors declared in headers
//                                 with std::span / std::string_view params
//   * owning-return functions     header declarations returning an owning
//                                 container (vector/string/...) BY VALUE --
//                                 the rvalue side of the L001 bug class
//   * class graph                 bases, override sets, wrapped-policy
//                                 members (adapter detection for L002)
//   * project anchors             registry.cpp / metrics.hpp / protocol.hpp /
//                                 server.{hpp,cpp} / ..., found by path
//                                 suffix, for the rules L003/L004/L008
//
// Everything is heuristic token matching. The contract is: precise on this
// codebase and its fixture trees (enforced by --self-test and the repo-clean
// CI gate), not on arbitrary C++.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "fbclint/lexer.hpp"

namespace fbclint {

/// One reported violation.
struct Diagnostic {
  std::string rule;  // "L001".."L006"
  std::string path;
  int line = 0;
  std::string message;
};

/// One level-annotated mutex (L007 lock model). Parsed from
/// `// fbc:lock-level(N)` / `// fbc:guards(field,...)` comments bound to
/// the mutex member declaration below them. Annotated names must be
/// unique across the project: the model is keyed by the declared
/// identifier, which is how lock sites (`lock_guard<...> l(name)`) are
/// resolved back to their level.
struct LockInfo {
  std::string name;  ///< declared identifier (member or global)
  std::string path;
  int line = 0;
  int level = -1;       ///< fbc:lock-level(N)
  int ctor_level = -1;  ///< first integer of the {N, "name"} initializer
  /// Outermost enclosing class of the declaration (nested-struct members
  /// belong to the outermost class); empty for namespace/file scope.
  std::string owner;
  std::vector<std::string> guards;  ///< fbc:guards(...) field names
};

/// Lock contracts attached to a function name (L007):
/// `fbc:requires(m)` (caller must hold m; also seeds the body walk),
/// `fbc:excludes(m)` (caller must NOT hold m), `fbc:blocking` (may block
/// indefinitely, so no level-annotated lock may be held across a call).
struct FnLockInfo {
  std::set<std::string> needs;
  std::set<std::string> excludes;
  bool blocking = false;
};

/// A class definition relevant to L002.
struct ClassInfo {
  std::string name;
  std::string path;
  int line = 0;
  std::vector<std::string> bases;
  /// Names of member functions declared with `override`.
  std::set<std::string> overrides;
  /// True when the class holds a wrapped inner policy/observer
  /// (PolicyPtr or unique_ptr<...Policy/...Observer> member) -- the
  /// adapter signature L002 keys on.
  bool wraps_inner = false;
};

/// Everything the rules need, extracted once per lint run.
struct ProjectModel {
  std::vector<SourceFile> files;

  /// Function/ctor name -> 0-based indices of view-typed parameters,
  /// unioned over all declarations sharing the name.
  std::map<std::string, std::set<std::size_t>> view_sigs;

  /// Names of functions declared (in a header) to return an owning
  /// container by value. Names that are *also* declared somewhere with
  /// a view/reference return are ambiguous and excluded: flagging every
  /// call site on a shared name would drown L001 in false positives.
  std::set<std::string> owning_returners;

  /// Names declared with a view (span/string_view) or reference/pointer
  /// return type; subtracted from owning_returners in build_model().
  std::set<std::string> view_returners;

  /// Names declared anywhere with an unordered_{map,set} type.
  std::set<std::string> unordered_vars;
  /// Names declared anywhere with an ordered/sequence container type
  /// (used to veto unordered_vars matches on reused names).
  std::set<std::string> ordered_vars;

  std::vector<ClassInfo> classes;

  /// L007 lock model: every annotated mutex, plus per-function-name lock
  /// contracts (unioned over all declarations sharing the name).
  std::vector<LockInfo> locks;
  std::map<std::string, FnLockInfo> fn_locks;

  /// Virtual hook names per interface, parsed live from the interface
  /// definitions (so a newly added hook extends L002 automatically).
  std::map<std::string, std::set<std::string>> interface_hooks;

  // Anchors (indices into files, -1 when absent from the scanned set).
  int registry_cpp = -1;  // path ends core/registry.cpp
  int metrics_hpp = -1;   // path ends cache/metrics.hpp
  int service_hpp = -1;   // path ends service/server.hpp (histogram rows)
  int protocol_hpp = -1;  // path ends service/protocol.hpp (MsgType, stats)
  int server_cpp = -1;    // path ends service/server.cpp (L008 stats/metrics)
  /// Observability headers: their merge()-owning classes (Histogram,
  /// CounterRegistry) get the same L004 merge-completeness scan as
  /// cache/metrics.hpp.
  int obs_histogram_hpp = -1;  // path ends obs/histogram.hpp
  int obs_counter_hpp = -1;    // path ends obs/counter.hpp
  /// The router translation unit, the only other file that mints obs
  /// metric names (L008 documentation scan).
  int router_cpp = -1;  // path ends cluster/router.cpp
};

/// Suppression / expectation markers parsed from comments.
/// `fbclint:ignore(L001)` suppresses rule L001 on the comment's line and
/// the line after it (`fbclint:allow(...)` is an accepted alias);
/// `fbclint:expect(L001)` declares a seeded violation for --self-test
/// with the same placement rules.
struct Markers {
  /// (path, line) -> suppressed rules. Covers the marker line and line+1.
  std::map<std::pair<std::string, int>, std::set<std::string>> ignores;
  /// Expected diagnostics (self-test): rule + anchor line.
  std::vector<Diagnostic> expects;
};

/// Builds the model from lexed files.
[[nodiscard]] ProjectModel build_model(std::vector<SourceFile> files);

/// Extracts ignore/expect markers from every file's comments.
[[nodiscard]] Markers collect_markers(const ProjectModel& model);

/// Drops diagnostics matching an ignore marker (same file, marker line or
/// the following line).
[[nodiscard]] std::vector<Diagnostic> apply_suppressions(
    std::vector<Diagnostic> diags, const Markers& markers);

// -- token helpers shared with rules.cpp ---------------------------------

/// Index of the matching closer for the opener at `open` ("(){}[]<>"),
/// or tokens.size() when unbalanced.
[[nodiscard]] std::size_t match_forward(const std::vector<Token>& tokens,
                                        std::size_t open);

/// Splits the token range (open, close) at top-level commas; returns
/// [begin, end) index pairs of each argument (empty when no tokens).
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> split_args(
    const std::vector<Token>& tokens, std::size_t open, std::size_t close);

/// True when `path` ends with `suffix` at a path-component boundary.
[[nodiscard]] bool path_ends_with(const std::string& path,
                                  const std::string& suffix);

/// Token-range of one class/struct body (ownership queries for L007).
struct ClassSpan {
  std::string name;
  std::size_t body_open = 0;   ///< index of the '{' token
  std::size_t body_close = 0;  ///< index of the matching '}' token
};

/// Every class/struct body in `file`, in token order (outer before inner).
[[nodiscard]] std::vector<ClassSpan> collect_class_spans(
    const SourceFile& file);

/// Name of the outermost class span containing token `idx`; "" when none.
[[nodiscard]] std::string outermost_class_at(
    const std::vector<ClassSpan>& spans, std::size_t idx);

}  // namespace fbclint
