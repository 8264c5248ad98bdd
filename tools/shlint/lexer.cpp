#include "shlint/lexer.h"

#include <cctype>
#include <cstddef>

namespace sh::lint {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

namespace {

/// True when a `'` at position i opens a character literal rather than
/// separating digits (1'000'000).
bool opens_char_literal(std::string_view text, std::size_t i) {
  if (i == 0) return true;
  const char prev = text[i - 1];
  return !(std::isalnum(static_cast<unsigned char>(prev)) != 0 || prev == '_');
}

/// If the `"` at position i closes a raw-string prefix (R", u8R", LR", ...),
/// return the prefix length scanned backwards, else 0.
std::size_t raw_prefix_len(std::string_view text, std::size_t i) {
  if (i == 0 || text[i - 1] != 'R') return 0;
  std::size_t start = i - 1;
  // Optional encoding prefix before the R: u8, u, U, L.
  if (start >= 2 && text[start - 2] == 'u' && text[start - 1] == '8') {
    start -= 2;
  } else if (start >= 1 && (text[start - 1] == 'u' || text[start - 1] == 'U' ||
                            text[start - 1] == 'L')) {
    start -= 1;
  }
  // The prefix must begin a token: no identifier character before it.
  if (start > 0 && is_ident_char(text[start - 1])) return 0;
  return i - start;
}

/// Valid in a raw-string delimiter: any character except parens, backslash
/// and whitespace ([lex.string]); at most 16 of them.  A `"` after an `R`
/// that is *not* followed by a well-formed `delim(` — the stringized-macro
/// case, `STR(R"...)` — is an ordinary string, and treating it as raw used
/// to swallow newlines and desynchronize every later line number.
bool valid_raw_delim_char(char c) {
  return c != '(' && c != ')' && c != '\\' && c != ' ' && c != '\t' &&
         c != '\n' && c != '\r' && c != '"';
}

/// True when the code collected for the current line so far is exactly a
/// `#include` directive head, i.e. the `"` that follows opens an include
/// path rather than an ordinary string literal.
bool is_include_head(std::string_view code_line) {
  std::size_t i = 0;
  while (i < code_line.size() &&
         (code_line[i] == ' ' || code_line[i] == '\t')) {
    ++i;
  }
  if (i >= code_line.size() || code_line[i] != '#') return false;
  ++i;
  while (i < code_line.size() &&
         (code_line[i] == ' ' || code_line[i] == '\t')) {
    ++i;
  }
  static constexpr std::string_view kInclude = "include";
  if (code_line.substr(i, kInclude.size()) != kInclude) return false;
  i += kInclude.size();
  while (i < code_line.size() &&
         (code_line[i] == ' ' || code_line[i] == '\t')) {
    ++i;
  }
  return i == code_line.size();
}

}  // namespace

FileScan scan_source(std::string_view text) {
  FileScan out;
  std::string code_line;
  std::string comment_line;

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kRawString,
    kChar,
  };
  State state = State::kCode;
  std::string raw_delim;  // For kRawString: the `)delim"` terminator.
  bool in_include = false;     // Current kString is an include path.
  std::string include_path;    // Accumulates that path.

  auto flush_line = [&] {
    out.code.push_back(code_line);
    out.comments.push_back(comment_line);
    code_line.clear();
    comment_line.clear();
  };

  const std::size_t n = text.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = text[i];
    if (c == '\n') {
      if (state == State::kLineComment) {
        // A backslash spliced to the newline continues the comment onto
        // the next physical line ([lex.phases] p2 runs before comment
        // recognition); without this the next line would be lexed as code.
        const bool spliced =
            (i >= 1 && text[i - 1] == '\\') ||
            (i >= 2 && text[i - 1] == '\r' && text[i - 2] == '\\');
        if (!spliced) state = State::kCode;
      }
      flush_line();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
          state = State::kLineComment;
          code_line += "  ";
          ++i;
        } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
          state = State::kBlockComment;
          code_line += "  ";
          ++i;
        } else if (c == '"') {
          // A well-formed raw-string head is `R"delim(` with a delimiter
          // of at most 16 valid characters; anything else (including the
          // stringized `R"` a macro body can produce) lexes as an
          // ordinary string so the scan never jumps across newlines.
          std::size_t prefix_delim_end = std::string::npos;
          if (raw_prefix_len(text, i) > 0) {
            std::size_t j = i + 1;
            while (j < n && j - i <= 16 && valid_raw_delim_char(text[j])) ++j;
            if (j < n && text[j] == '(') prefix_delim_end = j;
          }
          if (prefix_delim_end != std::string::npos) {
            // R"delim( ... )delim"
            const std::size_t j = prefix_delim_end;
            raw_delim.clear();
            raw_delim.reserve(j - i + 1);
            raw_delim += ')';
            raw_delim.append(text.substr(i + 1, j - i - 1));
            raw_delim += '"';
            state = State::kRawString;
            // Keep the opening delimiter in the code view.
            code_line.append(text.substr(i, j - i + 1));
            i = j;
          } else {
            state = State::kString;
            in_include = is_include_head(code_line);
            include_path.clear();
            code_line += '"';
          }
        } else if (c == '\'' && opens_char_literal(text, i)) {
          state = State::kChar;
          code_line += '\'';
        } else {
          code_line += c;
        }
        break;
      case State::kLineComment:
        comment_line += c;
        code_line += ' ';
        break;
      case State::kBlockComment:
        if (c == '*' && i + 1 < n && text[i + 1] == '/') {
          state = State::kCode;
          code_line += "  ";
          ++i;
        } else {
          comment_line += c;
          code_line += ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && i + 1 < n) {
          code_line += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          code_line += '"';
          if (in_include) {
            out.includes.push_back(IncludeRef{
                include_path, static_cast<int>(out.code.size()) + 1});
            in_include = false;
          }
        } else {
          if (in_include) include_path += c;
          code_line += ' ';
        }
        break;
      case State::kRawString:
        if (c == ')' && text.substr(i, raw_delim.size()) == raw_delim) {
          state = State::kCode;
          code_line.append(raw_delim);
          i += raw_delim.size() - 1;
        } else {
          code_line += ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && i + 1 < n) {
          code_line += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          code_line += '\'';
        } else {
          code_line += ' ';
        }
        break;
    }
  }
  flush_line();  // Final line (even when the file lacks a trailing newline).
  return out;
}

std::vector<TokenRef> qualified_identifiers(const FileScan& scan) {
  std::vector<TokenRef> tokens;
  for (int ln = 0; ln < scan.line_count(); ++ln) {
    const std::string& line = scan.code[static_cast<std::size_t>(ln)];
    std::size_t i = 0;
    while (i < line.size()) {
      // Leading `::` marks a global-qualified name.
      bool global_q = false;
      std::size_t start = i;
      if (line[i] == ':' && i + 1 < line.size() && line[i + 1] == ':' &&
          i + 2 < line.size() && is_ident_start(line[i + 2])) {
        // Only a *leading* `::`: a preceding identifier char means this is
        // the middle of a qualified name we already consumed.
        if (i > 0 && is_ident_char(line[i - 1])) {
          i += 2;
          continue;
        }
        global_q = true;
        i += 2;
      } else if (!is_ident_start(line[i])) {
        ++i;
        continue;
      }

      TokenRef tok;
      tok.global_qualified = global_q;
      tok.line = ln + 1;
      tok.column = static_cast<int>(start) + 1;

      // Member access: previous significant char is `.` or `->`.
      std::size_t p = start;
      while (p > 0 && line[p - 1] == ' ') --p;
      if (p > 0 && line[p - 1] == '.') {
        tok.member_access = true;
      } else if (p > 1 && line[p - 2] == '-' && line[p - 1] == '>') {
        tok.member_access = true;
      }

      // Consume segment[::segment]* .
      while (i < line.size() && is_ident_start(line[i])) {
        if (!tok.text.empty()) tok.text += "::";
        while (i < line.size() && is_ident_char(line[i])) tok.text += line[i++];
        if (i + 1 < line.size() && line[i] == ':' && line[i + 1] == ':' &&
            i + 2 < line.size() && is_ident_start(line[i + 2])) {
          i += 2;
        } else {
          break;
        }
      }

      std::size_t q = i;
      while (q < line.size() && line[q] == ' ') ++q;
      tok.followed_by_call = q < line.size() && line[q] == '(';
      tokens.push_back(std::move(tok));
    }
  }
  return tokens;
}

FlatView flatten(const FileScan& scan) {
  FlatView f;
  for (int ln = 0; ln < scan.line_count(); ++ln) {
    f.line_offset.push_back(f.text.size());
    const std::string& l = scan.code[static_cast<std::size_t>(ln)];
    f.text += l;
    f.text += '\n';
    f.line.insert(f.line.end(), l.size() + 1, ln + 1);
  }
  return f;
}

std::size_t match_forward(std::string_view s, std::size_t open, char oc,
                          char cc) {
  int depth = 0;
  for (std::size_t i = open; i < s.size(); ++i) {
    if (s[i] == oc) ++depth;
    if (s[i] == cc && --depth == 0) return i + 1;
  }
  return std::string_view::npos;
}

std::size_t skip_ws(std::string_view s, std::size_t i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t')) ++i;
  return i;
}

std::vector<std::string> split_segments(std::string_view qualified) {
  std::vector<std::string> segs;
  std::size_t pos = 0;
  while (pos <= qualified.size()) {
    const std::size_t next = qualified.find("::", pos);
    if (next == std::string_view::npos) {
      segs.emplace_back(qualified.substr(pos));
      break;
    }
    segs.emplace_back(qualified.substr(pos, next - pos));
    pos = next + 2;
  }
  return segs;
}

}  // namespace sh::lint
