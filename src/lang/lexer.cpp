#include "lang/lexer.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "support/bitvector.h"

namespace hlsav::lang {

namespace {

struct Keyword {
  TokKind kind;
  std::uint64_t width;  // only for int/uint types
};

const std::unordered_map<std::string_view, Keyword>& keyword_map() {
  static const std::unordered_map<std::string_view, Keyword> kMap = {
      {"void", {TokKind::kKwVoid, 0}},
      {"if", {TokKind::kKwIf, 0}},
      {"else", {TokKind::kKwElse, 0}},
      {"for", {TokKind::kKwFor, 0}},
      {"while", {TokKind::kKwWhile, 0}},
      {"do", {TokKind::kKwDo, 0}},
      {"return", {TokKind::kKwReturn, 0}},
      {"const", {TokKind::kKwConst, 0}},
      {"assert", {TokKind::kKwAssert, 0}},
      {"extern", {TokKind::kKwExtern, 0}},
      {"break", {TokKind::kKwBreak, 0}},
      {"continue", {TokKind::kKwContinue, 0}},
      {"stream_in", {TokKind::kKwStreamIn, 0}},
      {"stream_out", {TokKind::kKwStreamOut, 0}},
      {"char", {TokKind::kKwIntType, 8}},
      {"int", {TokKind::kKwIntType, 32}},
      {"long", {TokKind::kKwIntType, 64}},
      {"bool", {TokKind::kKwUintType, 1}},
  };
  return kMap;
}

// Parses "int17" / "uint5" style spellings; returns width or 0.
std::uint64_t sized_int_width(std::string_view name, bool& is_signed) {
  std::string_view digits;
  if (name.size() > 3 && name.substr(0, 3) == "int") {
    is_signed = true;
    digits = name.substr(3);
  } else if (name.size() > 4 && name.substr(0, 4) == "uint") {
    is_signed = false;
    digits = name.substr(4);
  } else {
    return 0;
  }
  std::uint64_t w = 0;
  for (char c : digits) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return 0;
    w = w * 10 + static_cast<std::uint64_t>(c - '0');
    if (w > BitVector::kMaxWidth) return 0;
  }
  return w >= 1 ? w : 0;
}

}  // namespace

std::string_view tok_kind_name(TokKind k) {
  switch (k) {
    case TokKind::kEof: return "end of file";
    case TokKind::kIdentifier: return "identifier";
    case TokKind::kIntLiteral: return "integer literal";
    case TokKind::kPragma: return "#pragma";
    case TokKind::kKwVoid: return "'void'";
    case TokKind::kKwIf: return "'if'";
    case TokKind::kKwElse: return "'else'";
    case TokKind::kKwFor: return "'for'";
    case TokKind::kKwWhile: return "'while'";
    case TokKind::kKwDo: return "'do'";
    case TokKind::kKwReturn: return "'return'";
    case TokKind::kKwConst: return "'const'";
    case TokKind::kKwAssert: return "'assert'";
    case TokKind::kKwExtern: return "'extern'";
    case TokKind::kKwBreak: return "'break'";
    case TokKind::kKwContinue: return "'continue'";
    case TokKind::kKwStreamIn: return "'stream_in'";
    case TokKind::kKwStreamOut: return "'stream_out'";
    case TokKind::kKwIntType: return "signed integer type";
    case TokKind::kKwUintType: return "unsigned integer type";
    case TokKind::kLParen: return "'('";
    case TokKind::kRParen: return "')'";
    case TokKind::kLBrace: return "'{'";
    case TokKind::kRBrace: return "'}'";
    case TokKind::kLBracket: return "'['";
    case TokKind::kRBracket: return "']'";
    case TokKind::kComma: return "','";
    case TokKind::kSemicolon: return "';'";
    case TokKind::kLess: return "'<'";
    case TokKind::kGreater: return "'>'";
    case TokKind::kAssign: return "'='";
    case TokKind::kPlus: return "'+'";
    case TokKind::kMinus: return "'-'";
    case TokKind::kStar: return "'*'";
    case TokKind::kSlash: return "'/'";
    case TokKind::kPercent: return "'%'";
    case TokKind::kAmp: return "'&'";
    case TokKind::kPipe: return "'|'";
    case TokKind::kCaret: return "'^'";
    case TokKind::kTilde: return "'~'";
    case TokKind::kBang: return "'!'";
    case TokKind::kShl: return "'<<'";
    case TokKind::kShr: return "'>>'";
    case TokKind::kLessEq: return "'<='";
    case TokKind::kGreaterEq: return "'>='";
    case TokKind::kEqEq: return "'=='";
    case TokKind::kBangEq: return "'!='";
    case TokKind::kAmpAmp: return "'&&'";
    case TokKind::kPipePipe: return "'||'";
    case TokKind::kPlusAssign: return "'+='";
    case TokKind::kMinusAssign: return "'-='";
    case TokKind::kStarAssign: return "'*='";
    case TokKind::kSlashAssign: return "'/='";
    case TokKind::kPercentAssign: return "'%='";
    case TokKind::kAmpAssign: return "'&='";
    case TokKind::kPipeAssign: return "'|='";
    case TokKind::kCaretAssign: return "'^='";
    case TokKind::kShlAssign: return "'<<='";
    case TokKind::kShrAssign: return "'>>='";
    case TokKind::kPlusPlus: return "'++'";
    case TokKind::kMinusMinus: return "'--'";
    case TokKind::kQuestion: return "'?'";
    case TokKind::kColon: return "':'";
    case TokKind::kDot: return "'.'";
  }
  return "?";
}

Lexer::Lexer(const SourceManager& sm, FileId file, DiagnosticEngine& diags)
    : sm_(sm), file_(file), diags_(diags), text_(sm.text(file)) {}

char Lexer::peek(std::size_t ahead) const {
  return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
}

char Lexer::advance() {
  char c = peek();
  if (c == '\0') return c;
  ++pos_;
  if (c == '\n') {
    ++line_;
    col_ = 1;
  } else {
    ++col_;
  }
  return c;
}

bool Lexer::match(char c) {
  if (peek() != c) return false;
  advance();
  return true;
}

void Lexer::skip_whitespace_and_comments() {
  while (true) {
    char c = peek();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance();
    } else if (c == '/' && peek(1) == '/') {
      while (peek() != '\n' && peek() != '\0') advance();
    } else if (c == '/' && peek(1) == '*') {
      advance();
      advance();
      while (!(peek() == '*' && peek(1) == '/')) {
        if (peek() == '\0') {
          diags_.error(loc(), "unterminated block comment");
          return;
        }
        advance();
      }
      advance();
      advance();
    } else {
      return;
    }
  }
}

Token Lexer::make(TokKind k, SourceLoc l) const {
  Token t;
  t.kind = k;
  t.loc = l;
  return t;
}

Token Lexer::lex_identifier_or_keyword(SourceLoc start) {
  std::size_t begin = pos_;
  while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_') advance();
  std::string_view name = text_.substr(begin, pos_ - begin);

  if (auto it = keyword_map().find(name); it != keyword_map().end()) {
    Token t = make(it->second.kind, start);
    t.value = it->second.width;
    t.text = std::string(name);
    return t;
  }
  bool is_signed = true;
  if (std::uint64_t w = sized_int_width(name, is_signed); w != 0) {
    Token t = make(is_signed ? TokKind::kKwIntType : TokKind::kKwUintType, start);
    t.value = w;
    t.text = std::string(name);
    return t;
  }
  Token t = make(TokKind::kIdentifier, start);
  t.text = std::string(name);
  return t;
}

Token Lexer::lex_number(SourceLoc start) {
  std::size_t begin = pos_;
  std::uint64_t value = 0;
  bool overflow = false;
  // Accumulate with explicit overflow detection: an over-wide literal
  // must surface as a diagnostic, never wrap silently into a different
  // (valid-looking) constant.
  auto accumulate = [&](std::uint64_t base, std::uint64_t digit) {
    if (value > (UINT64_MAX - digit) / base) {
      overflow = true;
      return;
    }
    value = value * base + digit;
  };
  if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
    advance();
    advance();
    while (std::isxdigit(static_cast<unsigned char>(peek()))) {
      char c = advance();
      std::uint64_t digit = std::isdigit(static_cast<unsigned char>(c))
                                ? static_cast<std::uint64_t>(c - '0')
                                : static_cast<std::uint64_t>(std::tolower(c) - 'a' + 10);
      accumulate(16, digit);
    }
  } else {
    while (std::isdigit(static_cast<unsigned char>(peek()))) {
      accumulate(10, static_cast<std::uint64_t>(advance() - '0'));
    }
  }
  Token t = make(TokKind::kIntLiteral, start);
  t.value = value;
  t.value_signed = true;
  // Suffixes: u/U marks unsigned; l/L accepted and ignored.
  while (peek() == 'u' || peek() == 'U' || peek() == 'l' || peek() == 'L') {
    char c = advance();
    if (c == 'u' || c == 'U') t.value_signed = false;
  }
  t.text = std::string(text_.substr(begin, pos_ - begin));
  if (overflow) {
    diags_.error_range(start, static_cast<std::uint32_t>(t.text.size()),
                       "integer literal '" + t.text + "' does not fit in 64 bits");
    t.value = 0;
  }
  return t;
}

Token Lexer::lex_char_literal(SourceLoc start) {
  advance();  // opening quote
  char c = advance();
  if (c == '\\') {
    char esc = advance();
    switch (esc) {
      case 'n': c = '\n'; break;
      case 't': c = '\t'; break;
      case 'r': c = '\r'; break;
      case '0': c = '\0'; break;
      case '\\': c = '\\'; break;
      case '\'': c = '\''; break;
      default:
        diags_.error(start, "unknown escape sequence in character literal");
        c = esc;
    }
  }
  if (!match('\'')) diags_.error(loc(), "expected closing ' in character literal");
  Token t = make(TokKind::kIntLiteral, start);
  t.value = static_cast<unsigned char>(c);
  return t;
}

Token Lexer::lex_pragma(SourceLoc start) {
  std::size_t begin = pos_;
  while (peek() != '\n' && peek() != '\0') advance();
  Token t = make(TokKind::kPragma, start);
  t.text = std::string(text_.substr(begin, pos_ - begin));
  return t;
}

Token Lexer::next() {
  while (true) {
    skip_whitespace_and_comments();
    std::size_t start_offset = pos_;
    std::optional<Token> t = next_impl();
    if (!t.has_value()) continue;  // bad character: reported, skipped
    t->offset = start_offset;
    return *t;
  }
}

std::optional<Token> Lexer::next_impl() {
  SourceLoc start = loc();
  char c = peek();
  if (c == '\0') return make(TokKind::kEof, start);
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
    return lex_identifier_or_keyword(start);
  }
  if (std::isdigit(static_cast<unsigned char>(c))) return lex_number(start);
  if (c == '\'') return lex_char_literal(start);
  if (c == '#') {
    advance();
    return lex_pragma(start);
  }

  advance();
  switch (c) {
    case '(': return make(TokKind::kLParen, start);
    case ')': return make(TokKind::kRParen, start);
    case '{': return make(TokKind::kLBrace, start);
    case '}': return make(TokKind::kRBrace, start);
    case '[': return make(TokKind::kLBracket, start);
    case ']': return make(TokKind::kRBracket, start);
    case ',': return make(TokKind::kComma, start);
    case ';': return make(TokKind::kSemicolon, start);
    case '?': return make(TokKind::kQuestion, start);
    case ':': return make(TokKind::kColon, start);
    case '.': return make(TokKind::kDot, start);
    case '~': return make(TokKind::kTilde, start);
    case '+':
      if (match('+')) return make(TokKind::kPlusPlus, start);
      if (match('=')) return make(TokKind::kPlusAssign, start);
      return make(TokKind::kPlus, start);
    case '-':
      if (match('-')) return make(TokKind::kMinusMinus, start);
      if (match('=')) return make(TokKind::kMinusAssign, start);
      return make(TokKind::kMinus, start);
    case '*':
      if (match('=')) return make(TokKind::kStarAssign, start);
      return make(TokKind::kStar, start);
    case '/':
      if (match('=')) return make(TokKind::kSlashAssign, start);
      return make(TokKind::kSlash, start);
    case '%':
      if (match('=')) return make(TokKind::kPercentAssign, start);
      return make(TokKind::kPercent, start);
    case '&':
      if (match('&')) return make(TokKind::kAmpAmp, start);
      if (match('=')) return make(TokKind::kAmpAssign, start);
      return make(TokKind::kAmp, start);
    case '|':
      if (match('|')) return make(TokKind::kPipePipe, start);
      if (match('=')) return make(TokKind::kPipeAssign, start);
      return make(TokKind::kPipe, start);
    case '^':
      if (match('=')) return make(TokKind::kCaretAssign, start);
      return make(TokKind::kCaret, start);
    case '!':
      if (match('=')) return make(TokKind::kBangEq, start);
      return make(TokKind::kBang, start);
    case '=':
      if (match('=')) return make(TokKind::kEqEq, start);
      return make(TokKind::kAssign, start);
    case '<':
      if (match('<')) {
        if (match('=')) return make(TokKind::kShlAssign, start);
        return make(TokKind::kShl, start);
      }
      if (match('=')) return make(TokKind::kLessEq, start);
      return make(TokKind::kLess, start);
    case '>':
      if (match('>')) {
        if (match('=')) return make(TokKind::kShrAssign, start);
        return make(TokKind::kShr, start);
      }
      if (match('=')) return make(TokKind::kGreaterEq, start);
      return make(TokKind::kGreater, start);
    default:
      // Unprintable bytes (fuzzed / binary input) render as hex.
      if (std::isprint(static_cast<unsigned char>(c)) != 0) {
        diags_.error(start, std::string("unexpected character '") + c + "'");
      } else {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\x%02x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        diags_.error(start, std::string("unexpected character '") + buf + "'");
      }
      return std::nullopt;
  }
}

std::vector<Token> Lexer::lex_all() {
  std::vector<Token> out;
  while (true) {
    Token t = next();
    bool done = t.is(TokKind::kEof);
    out.push_back(std::move(t));
    if (done) return out;
  }
}

}  // namespace hlsav::lang
