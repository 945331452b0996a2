// fbclint lexer: a minimal, dependency-free C++ tokenizer.
//
// fbclint's rules work over token streams, not an AST. The lexer therefore
// only needs to be good enough to (a) never mis-tokenize the constructs the
// rules inspect (identifiers, punctuation, string literals, comments,
// preprocessor directives) and (b) carry accurate line numbers so
// diagnostics and `fbclint:ignore(...)` / `fbclint:expect(...)` markers can
// be matched to source lines. It understands line/block comments, ordinary
// and raw string literals, char literals, and treats each preprocessor
// directive as one token spanning its (possibly continued) logical line;
// the token's text keeps a line break at each continuation.
#pragma once

#include <string>
#include <vector>

namespace fbclint {

enum class TokKind {
  Identifier,  // identifiers and keywords
  Number,
  String,     // "..." or R"(...)" (text excludes quotes)
  CharLit,    // '...'
  Punct,      // one operator/punctuator, multi-char ones kept together
  Directive,  // whole preprocessor line, text includes the '#'
  Comment,    // text excludes the // or /* */ markers
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;  // 1-based line of the token's first character
};

/// One lexed translation unit.
struct SourceFile {
  std::string path;
  std::vector<Token> tokens;      // code tokens (no comments/directives)
  std::vector<Token> comments;    // comment tokens, in order
  std::vector<Token> directives;  // preprocessor directives, in order
  int line_count = 0;

  [[nodiscard]] bool is_header() const;
};

/// Lexes `content` (the bytes of the file at `path`).
[[nodiscard]] SourceFile lex_file(std::string path, const std::string& content);

/// Reads a whole file; throws std::runtime_error when unreadable.
[[nodiscard]] std::string read_file(const std::string& path);

}  // namespace fbclint
