#include "fbclint/model.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>

namespace fbclint {

namespace {

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::Punct && t.text == text;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::Identifier && t.text == text;
}

constexpr std::array kOwningContainers = {
    "vector", "string", "deque", "array", "list",
    "map",    "set",    "multimap", "multiset",
};

constexpr std::array kOrderedContainers = {
    "vector", "map", "set", "deque", "array", "list", "span", "multimap",
    "multiset",
};

constexpr std::array kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

/// True when the argument chunk looks like a *parameter declaration*
/// rather than a call argument: templated type, or >= 2 identifiers in a
/// row somewhere, and no nested call parentheses.
bool chunk_is_param_like(const std::vector<Token>& toks, std::size_t begin,
                         std::size_t end) {
  if (begin >= end) return false;
  bool has_template = false;
  bool has_two_idents = false;
  for (std::size_t i = begin; i < end; ++i) {
    if (is_punct(toks[i], "(")) return false;
    if (is_punct(toks[i], "<")) has_template = true;
    if (i + 1 < end && toks[i].kind == TokKind::Identifier &&
        toks[i + 1].kind == TokKind::Identifier)
      has_two_idents = true;
  }
  if (end - begin == 1 && is_ident(toks[begin], "void")) return true;
  return has_template || has_two_idents;
}

/// True when the chunk names a view type (std::span<...> / string_view).
bool chunk_is_view_param(const std::vector<Token>& toks, std::size_t begin,
                         std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (is_punct(toks[i], "(")) return false;  // not a plain parameter
    if (is_ident(toks[i], "string_view")) return true;
    if (is_ident(toks[i], "span") && i + 1 < end && is_punct(toks[i + 1], "<"))
      return true;
  }
  return false;
}

/// Classification of an `identifier (` site.
enum class ParenSite { Call, Declaration };

ParenSite classify(const std::vector<Token>& toks, std::size_t name_idx,
                   std::size_t open, std::size_t close) {
  // Context before the name: a declaration is preceded by its return type
  // or -- for constructors -- by a statement/scope boundary such as
  // `public:`. Anything else (member access, operators, ...) is a call.
  bool type_context = false;
  if (name_idx > 0) {
    const Token& prev = toks[name_idx - 1];
    type_context = prev.kind == TokKind::Identifier || is_punct(prev, ">") ||
                   is_punct(prev, "&") || is_punct(prev, "*") ||
                   is_punct(prev, "]");
    const bool boundary_context = is_punct(prev, ";") || is_punct(prev, "{") ||
                                  is_punct(prev, "}") || is_punct(prev, ":");
    if (!type_context && !boundary_context) return ParenSite::Call;
    if (is_ident(prev, "return") || is_ident(prev, "co_return") ||
        is_ident(prev, "case") || is_ident(prev, "throw") ||
        is_ident(prev, "if") || is_ident(prev, "while") ||
        is_ident(prev, "switch") || is_ident(prev, "for") ||
        is_ident(prev, "new") || is_ident(prev, "delete") ||
        is_ident(prev, "co_await") || is_ident(prev, "co_yield"))
      return ParenSite::Call;
  }
  const auto args = split_args(toks, open, close);
  if (args.empty()) {
    // Empty parameter list: declarations are followed by a cv/ref
    // qualifier, a body, or a trailing return -- or, for a free-function
    // declaration preceded by its return type (`std::vector<int> make();`),
    // directly by the semicolon.
    if (close + 1 >= toks.size()) return ParenSite::Call;
    const Token& next = toks[close + 1];
    if (is_ident(next, "const") || is_ident(next, "noexcept") ||
        is_ident(next, "override") || is_ident(next, "final") ||
        is_punct(next, "{") || is_punct(next, "->"))
      return ParenSite::Declaration;
    if (type_context && is_punct(next, ";")) return ParenSite::Declaration;
    return ParenSite::Call;
  }
  for (const auto& [b, e] : args)
    if (!chunk_is_param_like(toks, b, e)) return ParenSite::Call;
  return ParenSite::Declaration;
}

/// Return-type tokens preceding a declaration name: walk back to the last
/// statement/scope separator. Returns [begin, name_idx).
std::size_t return_type_begin(const std::vector<Token>& toks,
                              std::size_t name_idx) {
  std::size_t b = name_idx;
  while (b > 0) {
    const Token& t = toks[b - 1];
    if (t.kind == TokKind::Punct &&
        (t.text == ";" || t.text == "{" || t.text == "}" || t.text == "," ||
         t.text == "(" || t.text == ")" || t.text == ":"))
      break;
    --b;
    if (name_idx - b > 24) break;  // runaway guard
  }
  return b;
}

bool type_is_owning_value(const std::vector<Token>& toks, std::size_t begin,
                          std::size_t end) {
  bool owning = false;
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "&") || is_punct(t, "*")) return false;
    if (is_ident(t, "span") || is_ident(t, "string_view")) return false;
    if (is_ident(t, "virtual") || is_ident(t, "static") ||
        is_ident(t, "explicit") || is_ident(t, "nodiscard") ||
        is_ident(t, "constexpr") || is_ident(t, "inline") ||
        is_ident(t, "friend") || is_ident(t, "typename") ||
        is_ident(t, "using"))
      continue;
    for (const char* c : kOwningContainers)
      if (is_ident(t, c)) owning = true;
  }
  return owning;
}

bool type_is_view_like(const std::vector<Token>& toks, std::size_t begin,
                       std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "&") || is_punct(t, "*")) return true;
    if (is_ident(t, "span") || is_ident(t, "string_view")) return true;
  }
  return false;
}

void collect_signatures(const SourceFile& file, ProjectModel& model) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Identifier || !is_punct(toks[i + 1], "("))
      continue;
    const std::size_t open = i + 1;
    const std::size_t close = match_forward(toks, open);
    if (close >= toks.size()) continue;
    if (classify(toks, i, open, close) != ParenSite::Declaration) continue;
    // Destructors are never interesting.
    if (i > 0 && is_punct(toks[i - 1], "~")) continue;

    const auto args = split_args(toks, open, close);
    std::set<std::size_t>* view_slot = nullptr;
    for (std::size_t a = 0; a < args.size(); ++a) {
      if (chunk_is_view_param(toks, args[a].first, args[a].second)) {
        if (view_slot == nullptr) view_slot = &model.view_sigs[toks[i].text];
        view_slot->insert(a);
      }
    }
    const std::size_t rt_begin = return_type_begin(toks, i);
    if (type_is_owning_value(toks, rt_begin, i))
      model.owning_returners.insert(toks[i].text);
    else if (type_is_view_like(toks, rt_begin, i))
      model.view_returners.insert(toks[i].text);
  }
}

void collect_container_vars(const SourceFile& file, ProjectModel& model) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Identifier || !is_punct(toks[i + 1], "<"))
      continue;
    bool unordered = false;
    bool ordered = false;
    for (const char* c : kUnorderedContainers)
      if (toks[i].text == c) unordered = true;
    for (const char* c : kOrderedContainers)
      if (toks[i].text == c) ordered = true;
    if (!unordered && !ordered) continue;
    const std::size_t close = match_forward(toks, i + 1);
    if (close + 1 >= toks.size()) continue;
    std::size_t j = close + 1;
    while (j < toks.size() && (is_punct(toks[j], "&") || is_punct(toks[j], "*")))
      ++j;
    if (j < toks.size() && toks[j].kind == TokKind::Identifier) {
      if (unordered) model.unordered_vars.insert(toks[j].text);
      if (ordered) model.ordered_vars.insert(toks[j].text);
    }
  }
}

void collect_classes(const SourceFile& file, ProjectModel& model) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!(is_ident(toks[i], "class") || is_ident(toks[i], "struct"))) continue;
    // `enum class` is not a class.
    if (i > 0 && is_ident(toks[i - 1], "enum")) continue;
    std::size_t j = i + 1;
    if (j >= toks.size() || toks[j].kind != TokKind::Identifier) continue;
    ClassInfo info;
    info.name = toks[j].text;
    info.path = file.path;
    info.line = toks[i].line;
    ++j;
    if (j < toks.size() && is_ident(toks[j], "final")) ++j;
    // Base clause, up to the opening brace.
    bool has_bases = j < toks.size() && is_punct(toks[j], ":");
    if (has_bases) {
      ++j;
      int angle = 0;
      while (j < toks.size() && !is_punct(toks[j], "{") &&
             !is_punct(toks[j], ";")) {
        if (is_punct(toks[j], "<")) ++angle;
        if (is_punct(toks[j], ">")) --angle;
        if (angle == 0 && toks[j].kind == TokKind::Identifier &&
            !is_ident(toks[j], "public") && !is_ident(toks[j], "private") &&
            !is_ident(toks[j], "protected") && !is_ident(toks[j], "virtual"))
          info.bases.push_back(toks[j].text);
        ++j;
      }
    }
    if (j >= toks.size() || !is_punct(toks[j], "{")) continue;  // fwd decl
    const std::size_t body_open = j;
    const std::size_t body_close = match_forward(toks, body_open);
    if (body_close >= toks.size()) continue;

    const bool is_interface = info.name == "ReplacementPolicy" ||
                              info.name == "SimulationObserver";
    std::set<std::string>* hooks =
        is_interface ? &model.interface_hooks[info.name] : nullptr;

    for (std::size_t k = body_open + 1; k < body_close; ++k) {
      // Wrapped inner policy/observer member?
      if (is_ident(toks[k], "PolicyPtr")) info.wraps_inner = true;
      if (is_ident(toks[k], "unique_ptr")) {
        for (std::size_t m = k + 1; m < std::min(k + 10, body_close); ++m) {
          if (toks[m].kind == TokKind::Identifier &&
              (toks[m].text.ends_with("Policy") ||
               toks[m].text.ends_with("Observer")))
            info.wraps_inner = true;
        }
      }
      // Virtual hook declarations (interface classes only).
      if (hooks != nullptr && is_ident(toks[k], "virtual")) {
        for (std::size_t m = k + 1; m + 1 < body_close && m < k + 24; ++m) {
          if (is_punct(toks[m], ";") || is_punct(toks[m], "{")) break;
          if (toks[m].kind == TokKind::Identifier &&
              is_punct(toks[m + 1], "(") && !is_punct(toks[m - 1], "~")) {
            hooks->insert(toks[m].text);
            break;
          }
        }
      }
      // Overridden members.
      if (toks[k].kind == TokKind::Identifier && k + 1 < body_close &&
          is_punct(toks[k + 1], "(")) {
        const std::size_t close = match_forward(toks, k + 1);
        for (std::size_t m = close + 1;
             m < std::min(close + 6, body_close); ++m) {
          if (is_punct(toks[m], ";") || is_punct(toks[m], "{")) break;
          if (is_ident(toks[m], "override")) {
            info.overrides.insert(toks[k].text);
            break;
          }
        }
      }
    }
    model.classes.push_back(std::move(info));
  }
}

/// Parses one "name(arg, arg)" style fbc: annotation out of a comment;
/// returns the comma-split, space-stripped args of every occurrence.
std::vector<std::string> fbc_annotation_args(const std::string& text,
                                             const char* keyword) {
  std::vector<std::string> out;
  const std::string needle = std::string("fbc:") + keyword + "(";
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    const std::size_t open = pos + needle.size() - 1;
    const std::size_t close = text.find(')', open);
    if (close == std::string::npos) break;
    std::string inner = text.substr(open + 1, close - open - 1);
    std::size_t start = 0;
    while (start <= inner.size()) {
      std::size_t comma = inner.find(',', start);
      if (comma == std::string::npos) comma = inner.size();
      std::string arg = inner.substr(start, comma - start);
      std::erase(arg, ' ');
      if (!arg.empty()) out.push_back(arg);
      start = comma + 1;
    }
    pos = close;
  }
  return out;
}

/// Index of the first token on the first code-bearing line at or after
/// `line`, or tokens.size(). Because it returns the *next* line that has
/// any token at all, stacked annotation comments (which carry no tokens)
/// all bind to the same following declaration.
std::size_t first_token_at_or_after(const std::vector<Token>& toks,
                                    int line) {
  for (std::size_t i = 0; i < toks.size(); ++i)
    if (toks[i].line >= line) return i;
  return toks.size();
}

/// How far an annotation comment may sit above its declaration (allows a
/// block of stacked fbc: comment lines, not an arbitrary gap).
constexpr int kMaxAnnotationGap = 8;

/// Binds lock / function annotations in `file` into the model.
void collect_lock_annotations(const SourceFile& file, ProjectModel& model) {
  const auto& toks = file.tokens;
  const std::vector<ClassSpan> spans = collect_class_spans(file);
  for (const Token& comment : file.comments) {
    const bool has_level = comment.text.find("fbc:lock-level(") !=
                           std::string::npos;
    const bool has_guards = comment.text.find("fbc:guards(") !=
                            std::string::npos;
    const bool has_needs = comment.text.find("fbc:requires(") !=
                           std::string::npos;
    const bool has_excludes = comment.text.find("fbc:excludes(") !=
                              std::string::npos;
    const bool has_blocking = comment.text.find("fbc:blocking") !=
                              std::string::npos;
    if (!has_level && !has_guards && !has_needs && !has_excludes &&
        !has_blocking)
      continue;

    const std::size_t bind = first_token_at_or_after(toks, comment.line);
    if (bind >= toks.size() ||
        toks[bind].line - comment.line > kMaxAnnotationGap)
      continue;

    if (has_level || has_guards) {
      // Mutex member declaration: name is the last identifier before the
      // initializer / terminator of the declaration statement.
      std::size_t name_idx = 0;
      std::size_t stop = bind;
      for (std::size_t i = bind; i < toks.size(); ++i) {
        if (is_punct(toks[i], "{") || is_punct(toks[i], "=") ||
            is_punct(toks[i], ";") || is_punct(toks[i], "(")) {
          stop = i;
          break;
        }
        if (toks[i].kind == TokKind::Identifier) name_idx = i;
      }
      if (name_idx == 0) continue;
      LockInfo* info = nullptr;
      for (LockInfo& existing : model.locks)
        if (existing.path == file.path &&
            existing.line == toks[name_idx].line &&
            existing.name == toks[name_idx].text)
          info = &existing;
      if (info == nullptr) {
        model.locks.push_back({});
        info = &model.locks.back();
        info->name = toks[name_idx].text;
        info->path = file.path;
        info->line = toks[name_idx].line;
        info->owner = outermost_class_at(spans, name_idx);
      }
      for (const std::string& arg :
           fbc_annotation_args(comment.text, "lock-level")) {
        char* end = nullptr;
        const long level = std::strtol(arg.c_str(), &end, 10);
        if (end != nullptr && *end == '\0')
          info->level = static_cast<int>(level);
      }
      for (const std::string& arg :
           fbc_annotation_args(comment.text, "guards"))
        info->guards.push_back(arg);
      // Constructor level literal: first number inside the {N, ...} or
      // (N, ...) initializer, cross-checked against the annotation.
      if ((is_punct(toks[stop], "{") || is_punct(toks[stop], "(")) &&
          stop + 1 < toks.size() && toks[stop + 1].kind == TokKind::Number)
        info->ctor_level =
            static_cast<int>(std::strtol(toks[stop + 1].text.c_str(),
                                         nullptr, 10));
    }

    if (has_needs || has_excludes || has_blocking) {
      // Function declaration: name is the identifier directly before the
      // first '(' after the bind point.
      std::string fn_name;
      const std::size_t limit = std::min(toks.size(), bind + 48);
      for (std::size_t i = bind + 1; i < limit; ++i) {
        if (is_punct(toks[i], ";") || is_punct(toks[i], "{")) break;
        if (is_punct(toks[i], "(") &&
            toks[i - 1].kind == TokKind::Identifier) {
          fn_name = toks[i - 1].text;
          break;
        }
      }
      if (fn_name.empty()) continue;
      FnLockInfo& info = model.fn_locks[fn_name];
      for (const std::string& arg :
           fbc_annotation_args(comment.text, "requires"))
        info.needs.insert(arg);
      for (const std::string& arg :
           fbc_annotation_args(comment.text, "excludes"))
        info.excludes.insert(arg);
      if (has_blocking) info.blocking = true;
    }
  }
}

}  // namespace

std::vector<ClassSpan> collect_class_spans(const SourceFile& file) {
  std::vector<ClassSpan> out;
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!(is_ident(toks[i], "class") || is_ident(toks[i], "struct"))) continue;
    if (i > 0 && is_ident(toks[i - 1], "enum")) continue;
    std::size_t j = i + 1;
    if (j >= toks.size() || toks[j].kind != TokKind::Identifier) continue;
    const std::string name = toks[j].text;
    ++j;
    if (j < toks.size() && is_ident(toks[j], "final")) ++j;
    if (j < toks.size() && is_punct(toks[j], ":")) {
      int angle = 0;
      ++j;
      while (j < toks.size() && !is_punct(toks[j], "{") &&
             !is_punct(toks[j], ";")) {
        if (is_punct(toks[j], "<")) ++angle;
        if (is_punct(toks[j], ">")) --angle;
        ++j;
      }
    }
    if (j >= toks.size() || !is_punct(toks[j], "{")) continue;  // fwd decl
    const std::size_t body_close = match_forward(toks, j);
    if (body_close >= toks.size()) continue;
    out.push_back({name, j, body_close});
  }
  return out;
}

std::string outermost_class_at(const std::vector<ClassSpan>& spans,
                               std::size_t idx) {
  for (const ClassSpan& span : spans)
    if (span.body_open < idx && idx < span.body_close) return span.name;
  return {};
}

std::size_t match_forward(const std::vector<Token>& tokens, std::size_t open) {
  if (open >= tokens.size() || tokens[open].kind != TokKind::Punct)
    return tokens.size();
  const std::string& o = tokens[open].text;
  std::string c;
  if (o == "(") c = ")";
  else if (o == "{") c = "}";
  else if (o == "[") c = "]";
  else if (o == "<") c = ">";
  else return tokens.size();
  int depth = 0;
  const std::size_t limit =
      o == "<" ? std::min(tokens.size(), open + 200) : tokens.size();
  for (std::size_t i = open; i < limit; ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokKind::Punct) continue;
    if (t.text == o) ++depth;
    if (t.text == c && --depth == 0) return i;
    if (o == "<" && t.text == ">>") {
      depth -= 2;
      if (depth <= 0) return i;
    }
    // A template argument list never crosses these.
    if (o == "<" && (t.text == ";" || t.text == "{")) return tokens.size();
  }
  return tokens.size();
}

std::vector<std::pair<std::size_t, std::size_t>> split_args(
    const std::vector<Token>& tokens, std::size_t open, std::size_t close) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (open + 1 >= close) return out;
  std::size_t begin = open + 1;
  int paren = 0, brace = 0, bracket = 0, angle = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    const Token& t = tokens[i];
    if (t.kind == TokKind::Punct) {
      if (t.text == "(") ++paren;
      if (t.text == ")") --paren;
      if (t.text == "{") ++brace;
      if (t.text == "}") --brace;
      if (t.text == "[") ++bracket;
      if (t.text == "]") --bracket;
      if (t.text == "<") ++angle;
      if (t.text == ">" && angle > 0) --angle;
      if (t.text == ">>" && angle > 0) angle = std::max(0, angle - 2);
      if (t.text == "," && paren == 0 && brace == 0 && bracket == 0 &&
          angle == 0) {
        out.emplace_back(begin, i);
        begin = i + 1;
      }
    }
  }
  out.emplace_back(begin, close);
  return out;
}

bool path_ends_with(const std::string& path, const std::string& suffix) {
  if (!path.ends_with(suffix)) return false;
  if (path.size() == suffix.size()) return true;
  const char before = path[path.size() - suffix.size() - 1];
  return before == '/' || before == '\\';
}

ProjectModel build_model(std::vector<SourceFile> files) {
  ProjectModel model;
  model.files = std::move(files);
  for (std::size_t i = 0; i < model.files.size(); ++i) {
    const SourceFile& f = model.files[i];
    if (f.is_header()) collect_signatures(f, model);
    collect_container_vars(f, model);
    collect_classes(f, model);
    collect_lock_annotations(f, model);
    if (path_ends_with(f.path, "core/registry.cpp"))
      model.registry_cpp = static_cast<int>(i);
    if (path_ends_with(f.path, "cache/metrics.hpp"))
      model.metrics_hpp = static_cast<int>(i);
    if (path_ends_with(f.path, "service/server.hpp"))
      model.service_hpp = static_cast<int>(i);
    if (path_ends_with(f.path, "service/protocol.hpp"))
      model.protocol_hpp = static_cast<int>(i);
    if (path_ends_with(f.path, "service/server.cpp"))
      model.server_cpp = static_cast<int>(i);
    if (path_ends_with(f.path, "obs/histogram.hpp"))
      model.obs_histogram_hpp = static_cast<int>(i);
    if (path_ends_with(f.path, "obs/counter.hpp"))
      model.obs_counter_hpp = static_cast<int>(i);
    if (path_ends_with(f.path, "cluster/router.cpp"))
      model.router_cpp = static_cast<int>(i);
  }
  for (const std::string& name : model.view_returners)
    model.owning_returners.erase(name);
  return model;
}

namespace {

/// Parses "fbclint:ignore(L001,L002)"-style markers out of one comment.
void parse_marker(const std::string& text, const char* keyword,
                  std::vector<std::string>* rules) {
  const std::string needle = std::string("fbclint:") + keyword + "(";
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    const std::size_t open = pos + needle.size() - 1;
    const std::size_t close = text.find(')', open);
    if (close == std::string::npos) break;
    std::string inner = text.substr(open + 1, close - open - 1);
    std::size_t start = 0;
    while (start <= inner.size()) {
      std::size_t comma = inner.find(',', start);
      if (comma == std::string::npos) comma = inner.size();
      std::string rule = inner.substr(start, comma - start);
      std::erase(rule, ' ');
      if (!rule.empty()) rules->push_back(rule);
      start = comma + 1;
    }
    pos = close;
  }
}

}  // namespace

Markers collect_markers(const ProjectModel& model) {
  Markers out;
  for (const SourceFile& file : model.files) {
    for (const Token& comment : file.comments) {
      std::vector<std::string> ignored;
      parse_marker(comment.text, "ignore", &ignored);
      parse_marker(comment.text, "allow", &ignored);
      for (const std::string& rule : ignored)
        out.ignores[{file.path, comment.line}].insert(rule);
      std::vector<std::string> expected;
      parse_marker(comment.text, "expect", &expected);
      for (const std::string& rule : expected)
        out.expects.push_back({rule, file.path, comment.line, "seeded"});
    }
  }
  return out;
}

std::vector<Diagnostic> apply_suppressions(std::vector<Diagnostic> diags,
                                           const Markers& markers) {
  std::erase_if(diags, [&](const Diagnostic& d) {
    for (int delta = 0; delta <= 1; ++delta) {
      const auto it = markers.ignores.find({d.path, d.line - delta});
      if (it != markers.ignores.end() && it->second.count(d.rule) > 0)
        return true;
    }
    return false;
  });
  return diags;
}

}  // namespace fbclint
