#include "fbclint/rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <tuple>

namespace fbclint {

namespace {

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::Punct && t.text == text;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::Identifier && t.text == text;
}

/// True when tokens [begin, end) form exactly one call whose result is a
/// temporary: an optional `obj.` / `ns::` chain, a final identifier, and
/// an argument list closing at end-1. Returns the called name through
/// `callee`.
bool is_rvalue_call(const std::vector<Token>& toks, std::size_t begin,
                    std::size_t end, std::string* callee) {
  if (end - begin < 3) return false;
  // Find the identifier directly before the first '(' of the chunk tail.
  std::size_t i = begin;
  std::string last_ident;
  while (i < end && (toks[i].kind == TokKind::Identifier ||
                     is_punct(toks[i], "::") || is_punct(toks[i], ".") ||
                     is_punct(toks[i], "->"))) {
    if (toks[i].kind == TokKind::Identifier) last_ident = toks[i].text;
    ++i;
  }
  if (last_ident.empty() || i >= end || !is_punct(toks[i], "(")) return false;
  if (match_forward(toks, i) != end - 1) return false;
  *callee = last_ident;
  return true;
}

}  // namespace

std::vector<Diagnostic> rule_view_lifetime(const ProjectModel& model) {
  std::vector<Diagnostic> out;
  for (const SourceFile& file : model.files) {
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::Identifier) continue;
      const auto sig = model.view_sigs.find(toks[i].text);
      if (sig == model.view_sigs.end()) continue;
      // Call forms: `Name(args)` and the local-binding declaration
      // `Name var(args)` (the shape of the PR 1 bug).
      std::size_t open = 0;
      if (is_punct(toks[i + 1], "(")) {
        open = i + 1;
      } else if (toks[i + 1].kind == TokKind::Identifier &&
                 i + 2 < toks.size() && is_punct(toks[i + 2], "(")) {
        open = i + 2;
      } else {
        continue;
      }
      const std::size_t close = match_forward(toks, open);
      if (close >= toks.size()) continue;
      const auto args = split_args(toks, open, close);
      for (const std::size_t idx : sig->second) {
        if (idx >= args.size()) continue;
        const auto [b, e] = args[idx];
        // Skip the declaration site itself: a parameter list chunk names
        // a type, not an expression.
        std::string callee;
        if (!is_rvalue_call(toks, b, e, &callee)) continue;
        if (model.owning_returners.count(callee) == 0) continue;
        out.push_back(
            {"L001", file.path, toks[b].line,
             "temporary returned by '" + callee + "()' is bound to the " +
                 "view parameter #" + std::to_string(idx) + " of '" +
                 toks[i].text +
                 "'; the span/string_view dangles once the full expression "
                 "ends -- bind the result to a named local first"});
      }
    }
  }
  return out;
}

std::vector<Diagnostic> rule_hook_completeness(const ProjectModel& model) {
  std::vector<Diagnostic> out;
  if (model.interface_hooks.empty()) return out;
  for (const ClassInfo& cls : model.classes) {
    if (!cls.wraps_inner) continue;
    for (const std::string& base : cls.bases) {
      const auto hooks = model.interface_hooks.find(base);
      if (hooks == model.interface_hooks.end()) continue;
      for (const std::string& hook : hooks->second) {
        if (cls.overrides.count(hook) > 0) continue;
        out.push_back({"L002", cls.path, cls.line,
                       "adapter '" + cls.name + "' wraps an inner " + base +
                           " but does not forward the virtual hook '" + hook +
                           "'; events will silently stop propagating"});
      }
    }
  }
  return out;
}

std::vector<Diagnostic> rule_registry_completeness(const ProjectModel& model) {
  std::vector<Diagnostic> out;
  if (model.registry_cpp < 0) return out;
  const SourceFile& registry =
      model.files[static_cast<std::size_t>(model.registry_cpp)];

  // Every policy header must be #included by the registry.
  for (const SourceFile& file : model.files) {
    if (!file.is_header() ||
        file.path.find("/policies/") == std::string::npos)
      continue;
    const std::size_t slash = file.path.rfind('/');
    const std::string rel = "policies/" + file.path.substr(slash + 1);
    bool included = false;
    for (const Token& d : registry.directives)
      if (d.text.find("include") != std::string::npos &&
          d.text.find(rel) != std::string::npos)
        included = true;
    if (!included)
      out.push_back({"L003", file.path, 1,
                     "policy header '" + rel +
                         "' is not #included by core/registry.cpp; the "
                         "policy cannot be constructed by name"});
  }
  return out;
}

namespace {

/// L004 merge-completeness scan of one metrics-bearing header: every
/// data member of a merge()-owning class must appear in the merge body,
/// and scalar members need a default member initializer.
void check_merge_completeness(const ProjectModel& model, int file_index,
                              std::vector<Diagnostic>* out) {
  if (file_index < 0) return;
  const SourceFile& hpp = model.files[static_cast<std::size_t>(file_index)];
  const auto& toks = hpp.tokens;

  constexpr std::array kScalar = {
      "int",    "long",     "unsigned", "short",    "char",   "bool",
      "double", "float",    "size_t",   "int8_t",   "int16_t", "int32_t",
      "int64_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t", "Bytes",
  };

  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!(is_ident(toks[i], "class") || is_ident(toks[i], "struct")) ||
        toks[i + 1].kind != TokKind::Identifier)
      continue;
    if (i > 0 && is_ident(toks[i - 1], "enum")) continue;
    const std::string cls = toks[i + 1].text;
    std::size_t j = i + 2;
    while (j < toks.size() && !is_punct(toks[j], "{") && !is_punct(toks[j], ";"))
      ++j;
    if (j >= toks.size() || !is_punct(toks[j], "{")) continue;
    const std::size_t body_open = j;
    const std::size_t body_close = match_forward(toks, body_open);
    if (body_close >= toks.size()) continue;

    // Find merge()'s body: inline in the class, or out-of-line
    // `Cls::merge` in any scanned file.
    std::vector<Token> merge_body;
    for (std::size_t k = body_open + 1; k + 1 < body_close; ++k) {
      if (!is_ident(toks[k], "merge") || !is_punct(toks[k + 1], "(")) continue;
      const std::size_t close = match_forward(toks, k + 1);
      for (std::size_t m = close; m < std::min(close + 4, body_close); ++m) {
        if (is_punct(toks[m], "{")) {
          const std::size_t end = match_forward(toks, m);
          merge_body.assign(toks.begin() + static_cast<std::ptrdiff_t>(m),
                            toks.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(end, body_close)));
          break;
        }
        if (is_punct(toks[m], ";")) break;
      }
      if (!merge_body.empty()) break;
    }
    if (merge_body.empty()) {
      for (const SourceFile& file : model.files) {
        const auto& ft = file.tokens;
        for (std::size_t k = 0; k + 3 < ft.size(); ++k) {
          if (is_ident(ft[k], cls.c_str()) && is_punct(ft[k + 1], "::") &&
              is_ident(ft[k + 2], "merge") && is_punct(ft[k + 3], "(")) {
            const std::size_t close = match_forward(ft, k + 3);
            // Skip cv/noexcept qualifiers between ')' and the body.
            for (std::size_t m = close + 1;
                 m < std::min(close + 4, ft.size()); ++m) {
              if (is_punct(ft[m], ";")) break;
              if (!is_punct(ft[m], "{")) continue;
              const std::size_t end = match_forward(ft, m);
              if (end < ft.size())
                merge_body.assign(
                    ft.begin() + static_cast<std::ptrdiff_t>(m),
                    ft.begin() + static_cast<std::ptrdiff_t>(end));
              break;
            }
          }
        }
      }
    }
    if (merge_body.empty()) continue;  // not an aggregating counter class

    std::set<std::string> merged;
    for (const Token& t : merge_body)
      if (t.kind == TokKind::Identifier) merged.insert(t.text);

    // Walk data-member statements of the class body.
    std::size_t stmt_begin = body_open + 1;
    int depth = 0;
    bool has_paren = false;
    for (std::size_t k = body_open + 1; k < body_close; ++k) {
      if (is_punct(toks[k], "{")) ++depth;
      if (is_punct(toks[k], "}")) --depth;
      if (depth > 0) continue;
      if (is_punct(toks[k], "(")) has_paren = true;
      if (is_punct(toks[k], ":") && k > stmt_begin &&
          (is_ident(toks[k - 1], "public") || is_ident(toks[k - 1], "private") ||
           is_ident(toks[k - 1], "protected"))) {
        stmt_begin = k + 1;
        has_paren = false;
        continue;
      }
      if (!is_punct(toks[k], ";")) continue;
      if (!has_paren) {
        std::size_t name_idx = 0;
        bool has_init = false;
        bool scalar = false;
        bool templated = false;
        for (std::size_t m = stmt_begin; m < k; ++m) {
          if (is_punct(toks[m], "=")) {
            has_init = true;
            break;
          }
          // A '<' means the scalar name is a template argument (e.g.
          // map<string, uint64_t>), not the member's own type.
          if (is_punct(toks[m], "<")) templated = true;
          if (toks[m].kind == TokKind::Identifier) {
            name_idx = m;
            for (const char* s : kScalar)
              if (toks[m].text == s && !templated) scalar = true;
          }
        }
        if (name_idx != 0 && !is_ident(toks[stmt_begin], "using") &&
            !is_ident(toks[stmt_begin], "friend") &&
            !is_ident(toks[stmt_begin], "enum") &&
            !is_ident(toks[stmt_begin], "static")) {
          const std::string& member = toks[name_idx].text;
          if (merged.count(member) == 0)
            out->push_back({"L004", hpp.path, toks[name_idx].line,
                            "counter '" + member + "' of " + cls +
                                " is missing from " + cls +
                                "::merge(); multi-seed aggregation would "
                                "silently drop it"});
          if (scalar && !has_init)
            out->push_back({"L004", hpp.path, toks[name_idx].line,
                            "counter '" + member + "' of " + cls +
                                " has no default member initializer; a "
                                "fresh metrics object would start from "
                                "garbage"});
        }
      }
      stmt_begin = k + 1;
      has_paren = false;
    }
  }
}

}  // namespace

std::vector<Diagnostic> rule_metrics_completeness(const ProjectModel& model) {
  std::vector<Diagnostic> out;
  // The cache accounting plus the obs distribution containers.
  for (const int anchor :
       {model.metrics_hpp, model.obs_histogram_hpp, model.obs_counter_hpp})
    check_merge_completeness(model, anchor, &out);
  return out;
}

std::vector<Diagnostic> rule_determinism(const ProjectModel& model) {
  std::vector<Diagnostic> out;
  constexpr std::array kBanned = {
      "rand",          "srand",       "random_device",
      "mt19937",       "mt19937_64",  "default_random_engine",
      "minstd_rand",   "minstd_rand0", "random_shuffle",
  };
  for (const SourceFile& file : model.files) {
    if (file.path.find("util/rng.") != std::string::npos) continue;
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::Identifier) continue;
      for (const char* banned : kBanned) {
        if (toks[i].text != banned) continue;
        out.push_back({"L005", file.path, toks[i].line,
                       "'" + toks[i].text +
                           "' breaks seed-reproducibility; use util/rng "
                           "(SplitMix64 / Xoshiro256**) instead"});
      }
      // time(nullptr) / time(NULL) / time(0)-style wall-clock seeds.
      if (is_ident(toks[i], "time") && i + 1 < toks.size() &&
          is_punct(toks[i + 1], "(")) {
        const std::size_t close = match_forward(toks, i + 1);
        if (close == i + 3 &&
            (is_ident(toks[i + 2], "nullptr") || is_ident(toks[i + 2], "NULL") ||
             toks[i + 2].text == "0")) {
          out.push_back({"L005", file.path, toks[i].line,
                         "wall-clock seed 'time(...)' breaks "
                         "seed-reproducibility; derive seeds from the "
                         "run's configured seed"});
        }
      }
      // Range-for over an unordered container: iteration order is
      // implementation-defined, so any order-dependent accumulation is
      // non-deterministic across platforms.
      if (is_ident(toks[i], "for") && i + 1 < toks.size() &&
          is_punct(toks[i + 1], "(")) {
        const std::size_t close = match_forward(toks, i + 1);
        if (close >= toks.size()) continue;
        int paren = 0, bracket = 0, brace = 0;
        std::size_t colon = 0;
        for (std::size_t k = i + 2; k < close; ++k) {
          if (is_punct(toks[k], "(")) ++paren;
          if (is_punct(toks[k], ")")) --paren;
          if (is_punct(toks[k], "[")) ++bracket;
          if (is_punct(toks[k], "]")) --bracket;
          if (is_punct(toks[k], "{")) ++brace;
          if (is_punct(toks[k], "}")) --brace;
          if (paren == 0 && bracket == 0 && brace == 0 &&
              is_punct(toks[k], ":")) {
            colon = k;
            break;
          }
        }
        if (colon == 0) continue;
        std::string range_var;
        for (std::size_t k = colon + 1; k < close; ++k)
          if (toks[k].kind == TokKind::Identifier) range_var = toks[k].text;
        if (!range_var.empty() && model.unordered_vars.count(range_var) > 0 &&
            model.ordered_vars.count(range_var) == 0) {
          out.push_back(
              {"L005", file.path, toks[i].line,
               "range-for over unordered container '" + range_var +
                   "': iteration order is implementation-defined; iterate "
                   "a sorted copy or justify with fbclint:ignore(L005)"});
        }
      }
    }
  }
  return out;
}

std::vector<Diagnostic> rule_header_hygiene(const ProjectModel& model) {
  std::vector<Diagnostic> out;
  for (const SourceFile& file : model.files) {
    if (!file.is_header()) continue;
    bool pragma_once = false;
    for (const Token& d : file.directives)
      if (d.text.find("pragma") != std::string::npos &&
          d.text.find("once") != std::string::npos)
        pragma_once = true;
    if (!pragma_once)
      out.push_back({"L006", file.path, 1,
                     "header is missing '#pragma once'"});
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (is_ident(toks[i], "using") && is_ident(toks[i + 1], "namespace"))
        out.push_back({"L006", file.path, toks[i].line,
                       "'using namespace' in a header leaks into every "
                       "includer"});
    }
  }
  return out;
}

namespace {

// ---- L007 lock discipline ----------------------------------------------

/// One function definition body found in a file.
struct FnBody {
  std::string name;       ///< unqualified function name
  std::string owner;      ///< `Cls` of `Cls::name`, or enclosing class
  bool is_ctor_dtor = false;
  std::size_t name_idx = 0;
  std::size_t body_open = 0;   ///< '{' token index
  std::size_t body_close = 0;  ///< matching '}' token index
};

bool is_fn_keyword(const std::string& text) {
  static const std::set<std::string> kKeywords = {
      "if",       "for",     "while",    "switch",        "catch",
      "return",   "sizeof",  "alignof",  "decltype",      "noexcept",
      "static_assert", "assert", "throw", "new",          "delete",
      "co_await", "co_return", "co_yield", "alignas",     "typeid",
  };
  return kKeywords.count(text) > 0;
}

/// Collects function-definition bodies: `name(params) quals? init-list? {`.
/// Heuristic: calls are skipped because an expression (not a body or a
/// recognized qualifier) follows their ')'.
std::vector<FnBody> collect_fn_bodies(const SourceFile& file) {
  std::vector<FnBody> out;
  const auto& toks = file.tokens;
  const std::vector<ClassSpan> spans = collect_class_spans(file);
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Identifier || !is_punct(toks[i + 1], "(") ||
        is_fn_keyword(toks[i].text))
      continue;
    const std::size_t params_close = match_forward(toks, i + 1);
    if (params_close >= toks.size()) continue;

    // Scan from ')' to the body '{', accepting only qualifier tokens, a
    // trailing return type, or a constructor initializer list; anything
    // else means this was a call or a plain declaration.
    std::size_t j = params_close + 1;
    std::size_t body_open = 0;
    while (j < toks.size()) {
      if (is_punct(toks[j], "{")) {
        body_open = j;
        break;
      }
      if (is_punct(toks[j], ";")) break;  // declaration
      if (is_ident(toks[j], "const") || is_ident(toks[j], "override") ||
          is_ident(toks[j], "final") || is_ident(toks[j], "mutable") ||
          is_ident(toks[j], "try")) {
        ++j;
        continue;
      }
      if (is_ident(toks[j], "noexcept")) {
        ++j;
        if (j < toks.size() && is_punct(toks[j], "("))
          j = match_forward(toks, j) + 1;
        continue;
      }
      if (is_punct(toks[j], "->")) {
        // Trailing return type: skip to the body or terminator.
        ++j;
        while (j < toks.size() && !is_punct(toks[j], "{") &&
               !is_punct(toks[j], ";")) {
          if (is_punct(toks[j], "("))
            j = match_forward(toks, j) + 1;
          else
            ++j;
        }
        continue;
      }
      if (is_punct(toks[j], ":")) {
        // Constructor initializer list: `ident(...)` / `ident{...}`
        // entries separated by commas, then the body brace.
        ++j;
        bool parsed = true;
        while (j < toks.size()) {
          while (j < toks.size() && (toks[j].kind == TokKind::Identifier ||
                                     is_punct(toks[j], "::")))
            ++j;
          if (j >= toks.size() ||
              (!is_punct(toks[j], "(") && !is_punct(toks[j], "{"))) {
            parsed = false;
            break;
          }
          j = match_forward(toks, j) + 1;
          if (j < toks.size() && is_punct(toks[j], ",")) {
            ++j;
            continue;
          }
          break;
        }
        if (!parsed) break;
        continue;
      }
      break;  // expression context: a call, not a definition
    }
    if (body_open == 0) continue;
    const std::size_t body_close = match_forward(toks, body_open);
    if (body_close >= toks.size()) continue;

    FnBody fn;
    fn.name = toks[i].text;
    fn.name_idx = i;
    fn.body_open = body_open;
    fn.body_close = body_close;
    if (i >= 2 && is_punct(toks[i - 1], "::") &&
        toks[i - 2].kind == TokKind::Identifier) {
      fn.owner = toks[i - 2].text;
      fn.is_ctor_dtor = fn.owner == fn.name;
    } else {
      fn.owner = outermost_class_at(spans, i);
      // Inline members: name == innermost class is still a constructor;
      // checking against every enclosing span covers nested types.
      for (const ClassSpan& span : spans)
        if (span.body_open < i && i < span.body_close &&
            span.name == fn.name)
          fn.is_ctor_dtor = true;
    }
    if (i >= 1 && is_punct(toks[i - 1], "~")) fn.is_ctor_dtor = true;
    out.push_back(fn);
  }
  return out;
}

/// Calls that can block indefinitely even without an fbc:blocking
/// annotation. wait/wait_for/wait_until get the condition-variable
/// treatment (the guard passed as first argument counts as released).
bool is_builtin_blocking(const std::string& name) {
  static const std::set<std::string> kBlocking = {
      "sleep_for", "sleep_until", "send",        "recv",
      "accept",    "connect",     "poll",        "submit",
      "parallel_for", "wait", "wait_for",
      "wait_until",
  };
  return kBlocking.count(name) > 0;
}

bool is_cv_wait(const std::string& name) {
  return name == "wait" || name == "wait_for" || name == "wait_until";
}

/// One held lock during the body walk.
struct Held {
  const LockInfo* info = nullptr;
  std::string var;  ///< guard variable, empty for fbc:requires seeds
  int depth = 0;    ///< brace depth at acquisition (0 = whole body)
};

std::string level_str(const LockInfo& info) {
  return info.level >= 0 ? " (level " + std::to_string(info.level) + ")" : "";
}

/// Walks one function body tracking RAII guards, reporting ordering,
/// blocking-call, requires and excludes violations.
void walk_body(const SourceFile& file, const FnBody& fn,
               const std::map<std::string, const LockInfo*>& locks_by_name,
               const std::map<std::string, FnLockInfo>& fn_locks,
               std::vector<Diagnostic>* out) {
  const auto& toks = file.tokens;
  std::vector<Held> held;
  // Guard variables seen in this body with their mutex and declaration
  // depth, kept across var.unlock() so a later var.lock() re-acquires.
  std::map<std::string, std::pair<const LockInfo*, int>> guard_vars;

  const auto fn_info = fn_locks.find(fn.name);
  if (fn_info != fn_locks.end()) {
    for (const std::string& needed : fn_info->second.needs) {
      const auto it = locks_by_name.find(needed);
      if (it != locks_by_name.end()) held.push_back({it->second, "", 0});
    }
  }

  const auto check_order = [&](const LockInfo& acquiring, int line) {
    if (acquiring.level < 0) return;
    for (const Held& h : held) {
      if (h.info->level < 0 || h.info->level < acquiring.level) continue;
      out->push_back(
          {"L007", file.path, line,
           "lock '" + acquiring.name + "'" + level_str(acquiring) +
               " acquired while holding '" + h.info->name + "'" +
               level_str(*h.info) +
               "; lock levels must strictly increase (docs/SERVING.md "
               "lock hierarchy)"});
    }
  };

  int depth = 0;
  for (std::size_t k = fn.body_open + 1; k < fn.body_close; ++k) {
    if (is_punct(toks[k], "{")) ++depth;
    if (is_punct(toks[k], "}")) {
      --depth;
      std::erase_if(held, [&](const Held& h) {
        return !h.var.empty() && h.depth > depth;
      });
      continue;
    }
    if (toks[k].kind != TokKind::Identifier) continue;
    const std::string& name = toks[k].text;

    // RAII acquisition: lock_guard/unique_lock/scoped_lock, with or
    // without explicit template arguments (CTAD), binding a variable to
    // one or more mutexes.
    if (name == "lock_guard" || name == "unique_lock" ||
        name == "scoped_lock") {
      std::size_t j = k + 1;
      if (j < fn.body_close && is_punct(toks[j], "<"))
        j = match_forward(toks, j) + 1;
      if (j + 1 >= fn.body_close || toks[j].kind != TokKind::Identifier ||
          !is_punct(toks[j + 1], "("))
        continue;
      const std::string var = toks[j].text;
      const std::size_t open = j + 1;
      const std::size_t close = match_forward(toks, open);
      if (close >= fn.body_close) continue;
      std::size_t bound = 0;
      for (const auto& [abegin, aend] : split_args(toks, open, close)) {
        std::string lock_name;
        for (std::size_t m = abegin; m < aend; ++m)
          if (toks[m].kind == TokKind::Identifier) lock_name = toks[m].text;
        const auto it = locks_by_name.find(lock_name);
        if (it == locks_by_name.end()) continue;
        check_order(*it->second, toks[k].line);
        held.push_back({it->second, var, depth});
        ++bound;
      }
      // Single-mutex guards may unlock()/lock() later; remember the
      // mutex and the declaration depth (the guard outlives any inner
      // scope the relock happens in).
      if (bound == 1) guard_vars[var] = {held.back().info, depth};
      k = close;
      continue;
    }

    // Guard-variable relock/unlock: `var.unlock()` drops the mutex,
    // `var.lock()` re-acquires it (re-checked against what is now held).
    if (k + 3 < fn.body_close && is_punct(toks[k + 1], ".") &&
        (is_ident(toks[k + 2], "unlock") || is_ident(toks[k + 2], "lock")) &&
        is_punct(toks[k + 3], "(")) {
      const auto gv = guard_vars.find(name);
      if (gv != guard_vars.end()) {
        std::size_t live = held.size();
        for (std::size_t h = held.size(); h-- > 0;)
          if (held[h].var == name) live = h;
        if (is_ident(toks[k + 2], "unlock")) {
          if (live < held.size())
            held.erase(held.begin() + static_cast<std::ptrdiff_t>(live));
        } else if (live == held.size()) {
          check_order(*gv->second.first, toks[k].line);
          held.push_back({gv->second.first, name, gv->second.second});
        }
        k += 3;
        continue;
      }
    }

    // Call sites: `name(` possibly behind `obj.` / `ns::`.
    if (k + 1 >= fn.body_close || !is_punct(toks[k + 1], "(")) continue;
    const auto callee = fn_locks.find(name);
    const bool has_needs =
        callee != fn_locks.end() && !callee->second.needs.empty();
    if (held.empty() && !has_needs) continue;

    const bool annotated_blocking =
        callee != fn_locks.end() && callee->second.blocking;

    // Condition-variable waits release the guard they are handed for the
    // duration of the wait; every *other* held lock is still a bug.
    std::string released_var;
    if (is_cv_wait(name) && k >= 1 && is_punct(toks[k - 1], ".")) {
      const std::size_t close = match_forward(toks, k + 1);
      const auto args = split_args(toks, k + 1, close);
      if (!args.empty()) {
        std::string first_arg;
        for (std::size_t m = args[0].first; m < args[0].second; ++m)
          if (toks[m].kind == TokKind::Identifier) first_arg = toks[m].text;
        for (const Held& h : held)
          if (!h.var.empty() && h.var == first_arg) released_var = first_arg;
      }
    }

    if (annotated_blocking || is_builtin_blocking(name)) {
      for (const Held& h : held) {
        if (h.info->level < 0) continue;
        if (!released_var.empty() && h.var == released_var) continue;
        out->push_back(
            {"L007", file.path, toks[k].line,
             "blocking call '" + name + "' while holding '" + h.info->name +
                 "'" + level_str(*h.info) +
                 "; release the lock first (or justify with "
                 "fbclint:ignore(L007))"});
      }
    }
    if (callee != fn_locks.end()) {
      for (const std::string& excluded : callee->second.excludes) {
        for (const Held& h : held)
          if (h.info->name == excluded)
            out->push_back(
                {"L007", file.path, toks[k].line,
                 "call to '" + name + "' while holding '" + excluded +
                     "', which it declares fbc:excludes(" + excluded + ")"});
      }
      for (const std::string& needed : callee->second.needs) {
        if (locks_by_name.count(needed) == 0) continue;
        bool have = false;
        for (const Held& h : held)
          if (h.info->name == needed) have = true;
        if (!have)
          out->push_back(
              {"L007", file.path, toks[k].line,
               "call to '" + name + "' which declares fbc:requires(" +
                   needed + "), but '" + needed + "' is not held here"});
      }
    }
  }
}

}  // namespace

std::vector<Diagnostic> rule_lock_discipline(const ProjectModel& model) {
  std::vector<Diagnostic> out;
  if (model.locks.empty()) return out;

  // Configuration sanity: names must be unique (lock sites resolve by
  // identifier) and the annotation must agree with the runtime level the
  // OrderedMutex constructor bakes in.
  std::map<std::string, const LockInfo*> locks_by_name;
  for (const LockInfo& lock : model.locks) {
    const auto [it, inserted] = locks_by_name.emplace(lock.name, &lock);
    if (!inserted)
      out.push_back(
          {"L007", lock.path, lock.line,
           "annotated mutex name '" + lock.name + "' is also declared at " +
               it->second->path + ":" + std::to_string(it->second->line) +
               "; annotated lock names must be unique so lock sites "
               "resolve unambiguously"});
    if (lock.level >= 0 && lock.ctor_level >= 0 &&
        lock.level != lock.ctor_level)
      out.push_back(
          {"L007", lock.path, lock.line,
           "mutex '" + lock.name + "' is annotated fbc:lock-level(" +
               std::to_string(lock.level) + ") but its initializer says " +
               std::to_string(lock.ctor_level) +
               "; the static and runtime hierarchies have drifted"});
  }

  // (a) ordering + (c) blocking/requires/excludes: walk every function
  // definition tracking held locks.
  std::vector<std::pair<const SourceFile*, FnBody>> all_bodies;
  for (const SourceFile& file : model.files)
    for (const FnBody& fn : collect_fn_bodies(file))
      all_bodies.emplace_back(&file, fn);
  for (const auto& [file, fn] : all_bodies)
    walk_body(*file, fn, locks_by_name, model.fn_locks, &out);

  // (b) guard coverage: a method of the owning class that touches a
  // guarded field but never names the guarding mutex (and is not
  // fbc:requires-exempt, a constructor, or a destructor) is running
  // unsynchronized. File-scope mutexes guard their file's functions.
  for (const LockInfo& lock : model.locks) {
    if (lock.guards.empty()) continue;
    for (const auto& [file, fn] : all_bodies) {
      if (lock.owner.empty() ? file->path != lock.path
                             : fn.owner != lock.owner)
        continue;
      if (fn.is_ctor_dtor) continue;
      const auto fl = model.fn_locks.find(fn.name);
      if (fl != model.fn_locks.end() && fl->second.needs.count(lock.name) > 0)
        continue;
      bool mentions_lock = false;
      std::string touched;
      for (std::size_t k = fn.body_open + 1; k < fn.body_close; ++k) {
        if (file->tokens[k].kind != TokKind::Identifier) continue;
        if (file->tokens[k].text == lock.name) mentions_lock = true;
        if (touched.empty())
          for (const std::string& field : lock.guards)
            if (file->tokens[k].text == field) touched = field;
      }
      if (!touched.empty() && !mentions_lock)
        out.push_back(
            {"L007", file->path, file->tokens[fn.name_idx].line,
             "'" + fn.name + "' touches '" + touched + "' (guarded by '" +
                 lock.name + "' per fbc:guards) without taking '" +
                 lock.name + "' and without an fbc:requires(" + lock.name +
                 ") contract"});
    }
  }
  return out;
}

namespace {

// ---- L008 wire/stat coherence ------------------------------------------

/// Reads a file into `out`; false when unreadable.
bool read_text_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

/// One X(...) row of an X-macro list: the first token of each argument.
using MacroRow = std::vector<Token>;

/// The rows of the X-macro list `#define name(X) X(...) X(...) ...` in
/// `file`, each token carrying the line its row sits on; false when
/// `file` does not define `name`. `define_line` gets the #define's line.
bool macro_rows(const SourceFile& file, const std::string& name,
                std::vector<MacroRow>* rows, int* define_line) {
  for (const Token& d : file.directives) {
    std::istringstream head(d.text.substr(1));
    std::string keyword, macro;
    head >> keyword >> macro;
    if (keyword != "define" || !macro.starts_with(name + "(")) continue;
    *define_line = d.line;
    // The body keeps its continuation line breaks, so its lines count
    // from the #define's.
    const SourceFile body =
        lex_file(file.path, d.text.substr(d.text.find(')') + 1));
    const auto& toks = body.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::Identifier || !is_punct(toks[i + 1], "("))
        continue;
      const std::size_t close = match_forward(toks, i + 1);
      if (close >= toks.size()) break;
      MacroRow row;
      for (const auto& [b, e] : split_args(toks, i + 1, close)) {
        Token arg = toks[b];
        arg.line += d.line - 1;
        row.push_back(std::move(arg));
      }
      rows->push_back(std::move(row));
      i = close;
    }
    return true;
  }
  return false;
}

/// Identifiers inside the body of out-of-line `Cls::method` in `file`.
bool method_body_idents(const SourceFile& file, const char* cls,
                        const char* method, std::set<std::string>* out) {
  const auto& toks = file.tokens;
  bool found = false;
  for (std::size_t k = 0; k + 3 < toks.size(); ++k) {
    if (!is_ident(toks[k], cls) || !is_punct(toks[k + 1], "::") ||
        !is_ident(toks[k + 2], method) || !is_punct(toks[k + 3], "("))
      continue;
    const std::size_t close = match_forward(toks, k + 3);
    for (std::size_t m = close + 1; m < std::min(close + 4, toks.size());
         ++m) {
      if (is_punct(toks[m], ";")) break;
      if (!is_punct(toks[m], "{")) continue;
      const std::size_t end = match_forward(toks, m);
      for (std::size_t t = m; t < end && t < toks.size(); ++t)
        if (toks[t].kind == TokKind::Identifier) out->insert(toks[t].text);
      found = true;
      break;
    }
  }
  return found;
}

/// Standalone integers in `line` at or after byte `from` (digit runs not
/// adjacent to letters/underscore, so the 64 of "u64" does not count).
std::vector<int> standalone_ints(const std::string& line, std::size_t from) {
  std::vector<int> out;
  for (std::size_t i = from; i < line.size();) {
    if (std::isdigit(static_cast<unsigned char>(line[i])) == 0) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[j])) != 0)
      ++j;
    const bool led = i > 0 && (std::isalnum(static_cast<unsigned char>(
                                   line[i - 1])) != 0 ||
                               line[i - 1] == '_');
    const bool trailed =
        j < line.size() && (std::isalpha(static_cast<unsigned char>(
                                line[j])) != 0 ||
                            line[j] == '_');
    if (!led && !trailed)
      out.push_back(std::atoi(line.substr(i, j - i).c_str()));
    i = j;
  }
  return out;
}

/// "a-z0-9_." with at least one interior dot: the shape of every obs
/// counter/histogram name ("acquire.ok", "admit.batch_size", ...).
bool is_metric_literal(const std::string& text) {
  if (text.size() < 3 || text.front() == '.' || text.back() == '.')
    return false;
  bool dot = false;
  for (const char c : text) {
    if (c == '.') {
      dot = true;
      continue;
    }
    if ((c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_')
      return false;
  }
  return dot;
}

std::string strip_spaces(std::string s) {
  std::erase(s, ' ');
  return s;
}

}  // namespace

std::vector<Diagnostic> rule_wire_coherence(const ProjectModel& model) {
  std::vector<Diagnostic> out;
  if (model.protocol_hpp < 0) return out;
  const SourceFile& proto_hpp =
      model.files[static_cast<std::size_t>(model.protocol_hpp)];

  // The docs live next to the source tree: strip the src/ suffix off the
  // server.hpp anchor to find the tree root (works for the repo gate run
  // from the repo root and for absolute-path fixture trees alike).
  std::string docs_root;
  bool have_root = false;
  if (model.service_hpp >= 0) {
    const std::string& anchor =
        model.files[static_cast<std::size_t>(model.service_hpp)].path;
    const std::string suffix = "src/service/server.hpp";
    if (anchor.size() >= suffix.size() &&
        anchor.ends_with(suffix)) {
      docs_root = anchor.substr(0, anchor.size() - suffix.size());
      have_root = true;
    }
  }
  std::string serving_md;
  std::string observability_md;
  std::string cluster_md;
  bool have_serving = false;
  if (have_root) {
    have_serving = read_text_file(docs_root + "docs/SERVING.md", &serving_md);
    if (!have_serving)
      out.push_back(
          {"L008",
           model.files[static_cast<std::size_t>(model.service_hpp)].path, 1,
           "docs/SERVING.md is missing or unreadable; the wire table "
           "cannot be checked against the protocol structs"});
    read_text_file(docs_root + "docs/OBSERVABILITY.md", &observability_md);
    read_text_file(docs_root + "docs/CLUSTER.md", &cluster_md);
  }
  std::vector<std::string> serving_lines;
  {
    std::size_t start = 0;
    while (start <= serving_md.size()) {
      std::size_t nl = serving_md.find('\n', start);
      if (nl == std::string::npos) nl = serving_md.size();
      serving_lines.push_back(serving_md.substr(start, nl - start));
      start = nl + 1;
    }
  }

  // (a) Every FBC_SERVICE_STATS_FIELDS row must be assigned by
  // BundleServer::stats(), and the SERVING.md StatsReply row must count
  // the rows.
  std::vector<MacroRow> stats_rows;
  int stats_line = 0;
  if (macro_rows(proto_hpp, "FBC_SERVICE_STATS_FIELDS", &stats_rows,
                 &stats_line)) {
    if (model.server_cpp >= 0) {
      const SourceFile& server_cpp =
          model.files[static_cast<std::size_t>(model.server_cpp)];
      std::set<std::string> stats_idents;
      if (method_body_idents(server_cpp, "BundleServer", "stats",
                             &stats_idents)) {
        for (const MacroRow& row : stats_rows)
          if (row.size() > 1 && stats_idents.count(row[1].text) == 0)
            out.push_back({"L008", proto_hpp.path, row[1].line,
                           "ServiceStats field '" + row[1].text +
                               "' is never assigned by "
                               "BundleServer::stats(); it goes over the "
                               "wire as a stale zero"});
      }
    }
    if (have_serving) {
      bool row_found = false;
      bool count_ok = false;
      for (const std::string& line : serving_lines) {
        const std::size_t at = line.find("StatsReply");
        if (at == std::string::npos || line.find('|') == std::string::npos)
          continue;
        row_found = true;
        for (const int n : standalone_ints(line, at))
          if (n == static_cast<int>(stats_rows.size())) count_ok = true;
      }
      if (!row_found)
        out.push_back({"L008", proto_hpp.path, stats_line,
                       "docs/SERVING.md wire table has no StatsReply row "
                       "documenting the ServiceStats payload"});
      else if (!count_ok)
        out.push_back({"L008", proto_hpp.path, stats_line,
                       "docs/SERVING.md documents a StatsReply field count "
                       "that is not " +
                           std::to_string(stats_rows.size()) +
                           "; ServiceStats and the wire table have "
                           "drifted"});
    }
  }

  // (b) Every explicitly numbered MsgType enumerator needs its
  // `| value | Name |` row in the SERVING.md wire table.
  if (have_serving) {
    std::vector<std::string> stripped;
    stripped.reserve(serving_lines.size());
    for (const std::string& line : serving_lines)
      stripped.push_back(strip_spaces(line));
    const auto& toks = proto_hpp.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!is_ident(toks[i], "enum") || !is_ident(toks[i + 1], "class") ||
          !is_ident(toks[i + 2], "MsgType"))
        continue;
      std::size_t open = i + 3;
      while (open < toks.size() && !is_punct(toks[open], "{") &&
             !is_punct(toks[open], ";"))
        ++open;
      if (open >= toks.size() || !is_punct(toks[open], "{")) break;
      const std::size_t close = match_forward(toks, open);
      for (std::size_t k = open + 1; k + 2 < close; ++k) {
        if (toks[k].kind != TokKind::Identifier ||
            !(is_punct(toks[k - 1], "{") || is_punct(toks[k - 1], ",")) ||
            !is_punct(toks[k + 1], "=") ||
            toks[k + 2].kind != TokKind::Number)
          continue;
        const std::string row = "|" + toks[k + 2].text + "|" + toks[k].text;
        bool documented = false;
        for (const std::string& line : stripped)
          if (line.find(row) != std::string::npos) documented = true;
        if (!documented)
          out.push_back({"L008", proto_hpp.path, toks[k].line,
                         "MsgType::" + toks[k].text + " (= " +
                             toks[k + 2].text +
                             ") has no '| " + toks[k + 2].text + " | " +
                             toks[k].text +
                             " |' row in the docs/SERVING.md wire table"});
      }
      break;
    }
  }

  // (c) Every metric name must be documented: the metric-shaped string
  // literals of server.cpp and the cluster router (the files that mint
  // counter names) and the names of BundleServer's histogram rows.
  const auto check_documented = [&](const std::string& path,
                                    const Token& name) {
    if (serving_md.find(name.text) == std::string::npos &&
        observability_md.find(name.text) == std::string::npos &&
        cluster_md.find(name.text) == std::string::npos)
      out.push_back({"L008", path, name.line,
                     "metric name \"" + name.text +
                         "\" is not documented in docs/OBSERVABILITY.md, "
                         "docs/SERVING.md or docs/CLUSTER.md; every "
                         "exported counter and histogram must be "
                         "discoverable"});
  };
  if (have_serving) {
    for (const int minting : {model.server_cpp, model.router_cpp}) {
      if (minting < 0) continue;
      const SourceFile& file = model.files[static_cast<std::size_t>(minting)];
      for (const Token& t : file.tokens)
        if (t.kind == TokKind::String && is_metric_literal(t.text))
          check_documented(file.path, t);
    }
    const SourceFile& server_hpp =
        model.files[static_cast<std::size_t>(model.service_hpp)];
    std::vector<MacroRow> histogram_rows;
    int histogram_line = 0;
    if (macro_rows(server_hpp, "FBC_SERVER_HISTOGRAMS", &histogram_rows,
                   &histogram_line))
      for (const MacroRow& row : histogram_rows)
        if (row.size() > 1) check_documented(server_hpp.path, row[1]);
  }
  return out;
}

std::vector<Diagnostic> run_rules(const ProjectModel& model) {
  std::vector<Diagnostic> out;
  for (auto* rule :
       {rule_view_lifetime, rule_hook_completeness, rule_registry_completeness,
        rule_metrics_completeness, rule_determinism, rule_header_hygiene,
        rule_lock_discipline, rule_wire_coherence}) {
    std::vector<Diagnostic> diags = rule(model);
    out.insert(out.end(), std::make_move_iterator(diags.begin()),
               std::make_move_iterator(diags.end()));
  }
  std::sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
    return std::tie(a.path, a.line, a.rule, a.message) <
           std::tie(b.path, b.line, b.rule, b.message);
  });
  return out;
}

}  // namespace fbclint
