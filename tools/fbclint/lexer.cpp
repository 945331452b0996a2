#include "fbclint/lexer.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace fbclint {

bool SourceFile::is_header() const {
  return path.size() >= 4 && (path.ends_with(".hpp") || path.ends_with(".h"));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("fbclint: cannot read " + path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Multi-character punctuators the rules care to keep whole. Everything
/// else is emitted one character at a time.
constexpr const char* kPuncts[] = {
    "->*", "<<=", ">>=", "...", "::", "->", "<<", ">>", "<=", ">=",
    "==",  "!=",  "&&",  "||", "+=", "-=", "*=", "/=", "%=", "&=",
    "|=",  "^=",  "++",  "--",
};

}  // namespace

SourceFile lex_file(std::string path, const std::string& content) {
  SourceFile out;
  out.path = std::move(path);
  const std::size_t n = content.size();
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;  // only whitespace so far on this line

  auto peek = [&](std::size_t off) -> char {
    return i + off < n ? content[i + off] : '\0';
  };

  while (i < n) {
    const char c = content[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor directive: consume the logical line (with \-continuations).
    if (c == '#' && at_line_start) {
      const int start_line = line;
      std::string text;
      while (i < n && content[i] != '\n') {
        if (content[i] == '\\' && peek(1) == '\n') {
          text += '\n';  // keeps the line of each continued row
          i += 2;
          ++line;
          continue;
        }
        text += content[i];
        ++i;
      }
      out.directives.push_back({TokKind::Directive, text, start_line});
      at_line_start = true;
      continue;
    }
    at_line_start = false;
    // Line comment.
    if (c == '/' && peek(1) == '/') {
      const int start_line = line;
      std::size_t j = i + 2;
      while (j < n && content[j] != '\n') ++j;
      out.comments.push_back(
          {TokKind::Comment, content.substr(i + 2, j - i - 2), start_line});
      i = j;
      continue;
    }
    // Block comment.
    if (c == '/' && peek(1) == '*') {
      const int start_line = line;
      std::size_t j = i + 2;
      std::string text;
      while (j + 1 < n && !(content[j] == '*' && content[j + 1] == '/')) {
        if (content[j] == '\n') ++line;
        text += content[j];
        ++j;
      }
      out.comments.push_back({TokKind::Comment, text, start_line});
      i = (j + 1 < n) ? j + 2 : n;
      continue;
    }
    // Raw string literal (enough for R"(...)" and R"delim(...)delim").
    if (c == 'R' && peek(1) == '"') {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && content[j] != '(') delim += content[j++];
      const std::string closer = ")" + delim + "\"";
      const std::size_t body = j + 1;
      const std::size_t end = content.find(closer, body);
      const std::size_t stop = end == std::string::npos ? n : end;
      out.tokens.push_back(
          {TokKind::String, content.substr(body, stop - body), line});
      for (std::size_t k = i; k < stop && k < n; ++k)
        if (content[k] == '\n') ++line;
      i = end == std::string::npos ? n : end + closer.size();
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      std::string text;
      while (j < n && content[j] != quote) {
        if (content[j] == '\\' && j + 1 < n) {
          text += content[j];
          text += content[j + 1];
          j += 2;
          continue;
        }
        if (content[j] == '\n') ++line;  // unterminated; keep going
        text += content[j];
        ++j;
      }
      out.tokens.push_back(
          {quote == '"' ? TokKind::String : TokKind::CharLit, text, line});
      i = j < n ? j + 1 : n;
      continue;
    }
    // Identifier / keyword.
    if (is_ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && is_ident_char(content[j])) ++j;
      out.tokens.push_back(
          {TokKind::Identifier, content.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Number (loose: consumes ident chars, '.' and exponent signs).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i + 1;
      while (j < n && (is_ident_char(content[j]) || content[j] == '.' ||
                       ((content[j] == '+' || content[j] == '-') &&
                        (content[j - 1] == 'e' || content[j - 1] == 'E' ||
                         content[j - 1] == 'p' || content[j - 1] == 'P'))))
        ++j;
      out.tokens.push_back({TokKind::Number, content.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuation: longest known multi-char first.
    std::string matched;
    for (const char* p : kPuncts) {
      const std::size_t len = std::char_traits<char>::length(p);
      if (content.compare(i, len, p) == 0) {
        matched = p;
        break;
      }
    }
    if (matched.empty()) matched = std::string(1, c);
    out.tokens.push_back({TokKind::Punct, matched, line});
    i += matched.size();
  }
  out.line_count = line;
  return out;
}

}  // namespace fbclint
