#include "lang/parser.h"

#include "lang/lexer.h"
#include "support/str.h"

namespace hlsav::lang {

Parser::Parser(const SourceManager& sm, FileId file, DiagnosticEngine& diags)
    : sm_(sm), file_(file), diags_(diags) {
  Lexer lexer(sm, file, diags);
  tokens_ = lexer.lex_all();
}

const Token& Parser::peek(std::size_t ahead) const {
  std::size_t i = pos_ + ahead;
  return i < tokens_.size() ? tokens_[i] : tokens_.back();
}

const Token& Parser::consume() {
  const Token& t = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool Parser::accept(TokKind k) {
  if (!at(k)) return false;
  consume();
  return true;
}

const Token& Parser::expect(TokKind k, const char* what) {
  if (!at(k)) {
    fail(cur(), std::string("expected ") + std::string(tok_kind_name(k)) + " " + what + ", found " +
                    std::string(tok_kind_name(cur().kind)));
  }
  return consume();
}

void Parser::fail(const Token& tok, std::string message) {
  diags_.error(tok.loc, std::move(message));
  throw ParseError{};
}

void Parser::sync_to_toplevel() {
  // Skip to the next top-level construct: a type keyword following a '}'
  // or the end of file. Good enough for reporting multiple errors.
  int depth = 0;
  while (!at(TokKind::kEof)) {
    if (at(TokKind::kLBrace)) ++depth;
    if (at(TokKind::kRBrace)) {
      consume();
      if (--depth <= 0) return;
      continue;
    }
    consume();
  }
}

void Parser::sync_to_stmt() {
  // Statement-level panic recovery: skip to just past the next ';' at
  // this nesting depth, or stop before the enclosing '}' -- so one bad
  // statement costs one diagnostic, not the rest of the function.
  int depth = 0;
  while (!at(TokKind::kEof)) {
    switch (cur().kind) {
      case TokKind::kSemicolon:
        consume();
        if (depth <= 0) return;
        break;
      case TokKind::kLBrace:
        ++depth;
        consume();
        break;
      case TokKind::kRBrace:
        if (depth <= 0) return;  // parse_block owns this one
        --depth;
        consume();
        break;
      default:
        consume();
        break;
    }
  }
}

// Returns the raw source between the start of token begin_tok and the
// start of token end_tok (exclusive), trimmed. end_tok is the index of
// the first token *after* the region of interest.
std::string Parser::source_between(std::size_t begin_tok, std::size_t end_tok) const {
  if (begin_tok >= end_tok || end_tok >= tokens_.size()) return {};
  std::size_t lo = tokens_[begin_tok].offset;
  std::size_t hi = tokens_[end_tok].offset;
  std::string_view text = sm_.text(file_);
  if (hi > text.size() || lo >= hi) return {};
  return std::string(trim(text.substr(lo, hi - lo)));
}

// ------------------------------------------------------------ Program --

std::unique_ptr<Program> Parser::parse_program() {
  auto prog = std::make_unique<Program>();
  prog->file = file_;
  while (!at(TokKind::kEof)) {
    try {
      if (at(TokKind::kPragma)) {
        consume();  // top-level pragmas are ignored
        continue;
      }
      bool is_extern = accept(TokKind::kKwExtern);
      prog->functions.push_back(parse_function(is_extern));
    } catch (const ParseError&) {
      sync_to_toplevel();
    }
  }
  return prog;
}

Type Parser::parse_int_type() {
  if (at(TokKind::kKwIntType) || at(TokKind::kKwUintType)) {
    bool is_signed = at(TokKind::kKwIntType);
    const Token& t = consume();
    return Type::int_type(static_cast<unsigned>(t.value), is_signed);
  }
  fail(cur(), "expected integer type");
}

Param Parser::parse_param() {
  Param p;
  p.loc = cur().loc;
  if (at(TokKind::kKwStreamIn) || at(TokKind::kKwStreamOut)) {
    StreamDir dir = at(TokKind::kKwStreamIn) ? StreamDir::kIn : StreamDir::kOut;
    consume();
    expect(TokKind::kLess, "after stream type");
    const Token& w = expect(TokKind::kIntLiteral, "stream element width");
    if (w.value < 1 || w.value > BitVector::kMaxWidth) {
      fail(w, "stream width must be in 1.." + std::to_string(BitVector::kMaxWidth));
    }
    expect(TokKind::kGreater, "after stream width");
    p.type = Type::stream_type(static_cast<unsigned>(w.value), dir);
  } else {
    p.type = parse_int_type();
  }
  p.name = expect(TokKind::kIdentifier, "parameter name").text;
  return p;
}

std::unique_ptr<Function> Parser::parse_function(bool is_extern) {
  auto fn = std::make_unique<Function>();
  fn->loc = cur().loc;
  fn->is_extern_hdl = is_extern;
  if (accept(TokKind::kKwVoid)) {
    fn->return_type = Type::void_type();
  } else {
    fn->return_type = parse_int_type();
  }
  fn->name = expect(TokKind::kIdentifier, "function name").text;
  expect(TokKind::kLParen, "after function name");
  if (!at(TokKind::kRParen)) {
    do {
      fn->params.push_back(parse_param());
    } while (accept(TokKind::kComma));
  }
  expect(TokKind::kRParen, "after parameter list");
  if (is_extern) {
    expect(TokKind::kSemicolon, "after extern declaration");
  } else {
    expect(TokKind::kLBrace, "to open function body");
    fn->body = parse_block();
  }
  return fn;
}

// --------------------------------------------------------- Statements --

// Assumes the opening '{' was already consumed; consumes the closing '}'.
std::vector<StmtPtr> Parser::parse_block() {
  std::vector<StmtPtr> body;
  while (!at(TokKind::kRBrace)) {
    if (at(TokKind::kEof)) fail(cur(), "unexpected end of file inside block");
    try {
      body.push_back(parse_stmt());
    } catch (const ParseError&) {
      sync_to_stmt();
    }
  }
  consume();  // '}'
  return body;
}

Pragmas Parser::parse_pragmas() {
  Pragmas p;
  while (at(TokKind::kPragma)) {
    const Token& t = consume();
    std::vector<std::string> words;
    for (const std::string& w : split(t.text, ' ')) {
      if (!w.empty()) words.push_back(w);
    }
    if (words.size() >= 2 && words[0] == "pragma" && to_lower(words[1]) == "hls") {
      for (std::size_t i = 2; i < words.size(); ++i) {
        std::string w = to_lower(words[i]);
        if (w == "pipeline") {
          p.pipeline = true;
        } else if (w == "replicate") {
          p.replicate = true;
        } else {
          diags_.warning(t.loc, "unknown HLS pragma directive '" + words[i] + "'");
        }
      }
    }
    // Non-HLS pragmas are silently ignored, matching C compilers.
  }
  return p;
}

StmtPtr Parser::parse_stmt() {
  Pragmas pragmas = parse_pragmas();
  StmtPtr s = parse_stmt_no_pragma();
  if (pragmas.pipeline) s->pragmas.pipeline = true;
  if (pragmas.replicate) s->pragmas.replicate = true;
  return s;
}

StmtPtr Parser::parse_stmt_no_pragma() {
  switch (cur().kind) {
    case TokKind::kLBrace: {
      SourceLoc loc = consume().loc;
      return make_block(loc, parse_block());
    }
    case TokKind::kKwConst:
    case TokKind::kKwIntType:
    case TokKind::kKwUintType:
      return parse_decl();
    case TokKind::kKwIf:
      return parse_if();
    case TokKind::kKwWhile:
      return parse_while();
    case TokKind::kKwDo:
      return parse_do_while();
    case TokKind::kKwFor:
      return parse_for();
    case TokKind::kKwAssert:
      return parse_assert();
    case TokKind::kKwReturn: {
      SourceLoc loc = consume().loc;
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::kReturn;
      s->loc = loc;
      if (!at(TokKind::kSemicolon)) s->rhs = parse_expr();
      expect(TokKind::kSemicolon, "after return");
      return s;
    }
    case TokKind::kKwBreak: {
      SourceLoc loc = consume().loc;
      expect(TokKind::kSemicolon, "after break");
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::kBreak;
      s->loc = loc;
      return s;
    }
    case TokKind::kKwContinue: {
      SourceLoc loc = consume().loc;
      expect(TokKind::kSemicolon, "after continue");
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::kContinue;
      s->loc = loc;
      return s;
    }
    default: {
      StmtPtr s = parse_simple_stmt();
      expect(TokKind::kSemicolon, "after statement");
      return s;
    }
  }
}

StmtPtr Parser::parse_decl() {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kDecl;
  s->loc = cur().loc;
  s->decl_is_const = accept(TokKind::kKwConst);
  Type elem = parse_int_type();
  s->decl_name = expect(TokKind::kIdentifier, "variable name").text;
  if (accept(TokKind::kLBracket)) {
    const Token& sz = expect(TokKind::kIntLiteral, "array size");
    if (sz.value == 0) fail(sz, "array size must be positive");
    expect(TokKind::kRBracket, "after array size");
    s->decl_type = Type::array_type(elem.width(), elem.is_signed(), sz.value);
  } else {
    s->decl_type = elem;
  }
  if (accept(TokKind::kAssign)) {
    if (accept(TokKind::kLBrace)) {
      if (!s->decl_type.is_array()) fail(cur(), "brace initializer requires an array");
      do {
        s->decl_init.push_back(parse_expr());
      } while (accept(TokKind::kComma));
      expect(TokKind::kRBrace, "after array initializer");
    } else {
      if (s->decl_type.is_array()) fail(cur(), "array initializer must be brace-enclosed");
      s->decl_init.push_back(parse_expr());
    }
  }
  expect(TokKind::kSemicolon, "after declaration");
  return s;
}

StmtPtr Parser::parse_if() {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kIf;
  s->loc = consume().loc;  // 'if'
  expect(TokKind::kLParen, "after if");
  s->cond = parse_expr();
  expect(TokKind::kRParen, "after if condition");
  s->body.push_back(parse_stmt());
  if (accept(TokKind::kKwElse)) s->else_body.push_back(parse_stmt());
  return s;
}

StmtPtr Parser::parse_do_while() {
  // Desugared to `while (1) { body; if (!cond) break; }` -- a bottom-
  // test loop without duplicating the body (declarations are function-
  // scoped, so cloning would redeclare).
  SourceLoc loc = consume().loc;  // 'do'
  StmtPtr body = parse_stmt();
  expect(TokKind::kKwWhile, "after do body");
  expect(TokKind::kLParen, "after while");
  ExprPtr cond = parse_expr();
  SourceLoc cond_loc = cond->loc;
  expect(TokKind::kRParen, "after do-while condition");
  expect(TokKind::kSemicolon, "after do-while");

  auto brk = std::make_unique<Stmt>();
  brk->kind = StmtKind::kBreak;
  brk->loc = cond_loc;
  auto exit_if = std::make_unique<Stmt>();
  exit_if->kind = StmtKind::kIf;
  exit_if->loc = cond_loc;
  exit_if->cond = make_unary(cond_loc, UnaryOp::kLogicalNot, std::move(cond));
  exit_if->body.push_back(std::move(brk));

  auto loop = std::make_unique<Stmt>();
  loop->kind = StmtKind::kWhile;
  loop->loc = loc;
  loop->cond = make_int_lit(loc, BitVector::from_bool(true));
  loop->body.push_back(std::move(body));
  loop->body.push_back(std::move(exit_if));
  return loop;
}

StmtPtr Parser::parse_while() {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kWhile;
  s->loc = consume().loc;  // 'while'
  expect(TokKind::kLParen, "after while");
  s->cond = parse_expr();
  expect(TokKind::kRParen, "after while condition");
  s->body.push_back(parse_stmt());
  return s;
}

StmtPtr Parser::parse_for() {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kFor;
  s->loc = consume().loc;  // 'for'
  expect(TokKind::kLParen, "after for");
  if (!at(TokKind::kSemicolon)) {
    if (at(TokKind::kKwIntType) || at(TokKind::kKwUintType) || at(TokKind::kKwConst)) {
      s->for_init = parse_decl();  // consumes its ';'
    } else {
      s->for_init = parse_simple_stmt();
      expect(TokKind::kSemicolon, "after for initializer");
    }
  } else {
    consume();
  }
  if (!at(TokKind::kSemicolon)) s->cond = parse_expr();
  expect(TokKind::kSemicolon, "after for condition");
  if (!at(TokKind::kRParen)) s->for_step = parse_simple_stmt();
  expect(TokKind::kRParen, "after for step");
  s->body.push_back(parse_stmt());
  return s;
}

StmtPtr Parser::parse_assert() {
  SourceLoc loc = consume().loc;  // 'assert'
  expect(TokKind::kLParen, "after assert");
  std::size_t cond_begin = pos_;
  ExprPtr cond = parse_expr();
  std::size_t cond_end = pos_;
  expect(TokKind::kRParen, "after assert condition");
  expect(TokKind::kSemicolon, "after assert");
  StmtPtr s = make_assert(loc, std::move(cond), source_between(cond_begin, cond_end));
  return s;
}

StmtPtr Parser::parse_simple_stmt() {
  if (at(TokKind::kIdentifier) && cur().text == "assert_cycles") {
    // Timing assertion (the paper's §6 future-work extension): checks
    // that no more than N cycles elapsed since the previous marker in
    // the same process (or process start).
    SourceLoc loc = consume().loc;
    expect(TokKind::kLParen, "after assert_cycles");
    std::size_t begin = pos_;
    ExprPtr bound = parse_expr();
    std::size_t end = pos_;
    expect(TokKind::kRParen, "after assert_cycles bound");
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kAssertCycles;
    s->loc = loc;
    s->cond = std::move(bound);
    s->assert_text = source_between(begin, end);
    return s;
  }
  if (at(TokKind::kIdentifier) && cur().text == "stream_write") {
    SourceLoc loc = consume().loc;
    expect(TokKind::kLParen, "after stream_write");
    std::string stream = expect(TokKind::kIdentifier, "stream name").text;
    expect(TokKind::kComma, "after stream name");
    ExprPtr value = parse_expr();
    expect(TokKind::kRParen, "after stream_write value");
    return make_stream_write(loc, std::move(stream), std::move(value));
  }

  // lvalue op= expr | lvalue++ | lvalue--
  if (!at(TokKind::kIdentifier)) fail(cur(), "expected statement");
  LValue lhs;
  lhs.loc = cur().loc;
  lhs.name = consume().text;
  if (accept(TokKind::kLBracket)) {
    lhs.index = parse_expr();
    expect(TokKind::kRBracket, "after array index");
  }

  auto lhs_as_expr = [&]() -> ExprPtr {
    if (lhs.index) return make_array_index(lhs.loc, lhs.name, lhs.index->clone());
    return make_var_ref(lhs.loc, lhs.name);
  };

  auto compound = [&](BinaryOp op) -> StmtPtr {
    SourceLoc loc = consume().loc;
    ExprPtr rhs = parse_expr();
    return make_assign(loc, std::move(lhs), make_binary(loc, op, lhs_as_expr(), std::move(rhs)));
  };

  switch (cur().kind) {
    case TokKind::kAssign: {
      SourceLoc loc = consume().loc;
      return make_assign(loc, std::move(lhs), parse_expr());
    }
    case TokKind::kPlusAssign: return compound(BinaryOp::kAdd);
    case TokKind::kMinusAssign: return compound(BinaryOp::kSub);
    case TokKind::kStarAssign: return compound(BinaryOp::kMul);
    case TokKind::kSlashAssign: return compound(BinaryOp::kDiv);
    case TokKind::kPercentAssign: return compound(BinaryOp::kRem);
    case TokKind::kAmpAssign: return compound(BinaryOp::kAnd);
    case TokKind::kPipeAssign: return compound(BinaryOp::kOr);
    case TokKind::kCaretAssign: return compound(BinaryOp::kXor);
    case TokKind::kShlAssign: return compound(BinaryOp::kShl);
    case TokKind::kShrAssign: return compound(BinaryOp::kShr);
    case TokKind::kPlusPlus: {
      SourceLoc loc = consume().loc;
      return make_assign(loc, std::move(lhs),
                         make_binary(loc, BinaryOp::kAdd, lhs_as_expr(),
                                     make_int_lit(loc, BitVector::from_u64(32, 1))));
    }
    case TokKind::kMinusMinus: {
      SourceLoc loc = consume().loc;
      return make_assign(loc, std::move(lhs),
                         make_binary(loc, BinaryOp::kSub, lhs_as_expr(),
                                     make_int_lit(loc, BitVector::from_u64(32, 1))));
    }
    default:
      fail(cur(), "expected assignment operator");
  }
}

// -------------------------------------------------------- Expressions --

namespace {
// Binary operator precedence, C-like. Higher binds tighter.
int binary_prec(TokKind k) {
  switch (k) {
    case TokKind::kStar:
    case TokKind::kSlash:
    case TokKind::kPercent: return 10;
    case TokKind::kPlus:
    case TokKind::kMinus: return 9;
    case TokKind::kShl:
    case TokKind::kShr: return 8;
    case TokKind::kLess:
    case TokKind::kLessEq:
    case TokKind::kGreater:
    case TokKind::kGreaterEq: return 7;
    case TokKind::kEqEq:
    case TokKind::kBangEq: return 6;
    case TokKind::kAmp: return 5;
    case TokKind::kCaret: return 4;
    case TokKind::kPipe: return 3;
    case TokKind::kAmpAmp: return 2;
    case TokKind::kPipePipe: return 1;
    default: return 0;
  }
}

BinaryOp binary_op_for(TokKind k) {
  switch (k) {
    case TokKind::kStar: return BinaryOp::kMul;
    case TokKind::kSlash: return BinaryOp::kDiv;
    case TokKind::kPercent: return BinaryOp::kRem;
    case TokKind::kPlus: return BinaryOp::kAdd;
    case TokKind::kMinus: return BinaryOp::kSub;
    case TokKind::kShl: return BinaryOp::kShl;
    case TokKind::kShr: return BinaryOp::kShr;
    case TokKind::kLess: return BinaryOp::kLt;
    case TokKind::kLessEq: return BinaryOp::kLe;
    case TokKind::kGreater: return BinaryOp::kGt;
    case TokKind::kGreaterEq: return BinaryOp::kGe;
    case TokKind::kEqEq: return BinaryOp::kEq;
    case TokKind::kBangEq: return BinaryOp::kNe;
    case TokKind::kAmp: return BinaryOp::kAnd;
    case TokKind::kCaret: return BinaryOp::kXor;
    case TokKind::kPipe: return BinaryOp::kOr;
    case TokKind::kAmpAmp: return BinaryOp::kLogicalAnd;
    case TokKind::kPipePipe: return BinaryOp::kLogicalOr;
    default: HLSAV_UNREACHABLE("not a binary operator token");
  }
}
}  // namespace

ExprPtr Parser::parse_expr() { return parse_ternary(); }

ExprPtr Parser::parse_ternary() {
  ExprPtr cond = parse_binary(1);
  if (!at(TokKind::kQuestion)) return cond;
  // Lower `c ? a : b` to ((c && a-part) | ...)? No: represent as a select
  // via two binaries is lossy. HLS-C keeps ?: out of the language; error.
  fail(cur(), "the ?: operator is not supported in HLS-C; use if/else");
}

ExprPtr Parser::parse_binary(int min_prec) {
  ExprPtr lhs = parse_unary();
  while (true) {
    int prec = binary_prec(cur().kind);
    if (prec == 0 || prec < min_prec) return lhs;
    TokKind op_tok = cur().kind;
    SourceLoc loc = consume().loc;
    ExprPtr rhs = parse_binary(prec + 1);
    lhs = make_binary(loc, binary_op_for(op_tok), std::move(lhs), std::move(rhs));
  }
}

ExprPtr Parser::parse_unary() {
  SourceLoc loc = cur().loc;
  if (accept(TokKind::kMinus)) return make_unary(loc, UnaryOp::kNeg, parse_unary());
  if (accept(TokKind::kTilde)) return make_unary(loc, UnaryOp::kNot, parse_unary());
  if (accept(TokKind::kBang)) return make_unary(loc, UnaryOp::kLogicalNot, parse_unary());
  if (accept(TokKind::kPlus)) return parse_unary();
  return parse_primary();
}

ExprPtr Parser::parse_primary() {
  const Token& t = cur();
  switch (t.kind) {
    case TokKind::kIntLiteral: {
      consume();
      // Literals carry a natural width of 32 unless the value needs more.
      unsigned width = 32;
      if (t.value > 0xffffffffull) width = 64;
      return make_int_lit(t.loc, BitVector::from_u64(width, t.value), t.value_signed);
    }
    case TokKind::kLParen: {
      consume();
      ExprPtr e = parse_expr();
      expect(TokKind::kRParen, "to close parenthesized expression");
      return e;
    }
    case TokKind::kIdentifier: {
      consume();
      if (t.text == "stream_read") {
        expect(TokKind::kLParen, "after stream_read");
        std::string stream = expect(TokKind::kIdentifier, "stream name").text;
        expect(TokKind::kRParen, "after stream name");
        return make_stream_read(t.loc, std::move(stream));
      }
      if (at(TokKind::kLParen)) {
        consume();
        std::vector<ExprPtr> args;
        if (!at(TokKind::kRParen)) {
          do {
            args.push_back(parse_expr());
          } while (accept(TokKind::kComma));
        }
        expect(TokKind::kRParen, "after call arguments");
        return make_call(t.loc, t.text, std::move(args));
      }
      if (at(TokKind::kLBracket)) {
        consume();
        ExprPtr index = parse_expr();
        expect(TokKind::kRBracket, "after array index");
        return make_array_index(t.loc, t.text, std::move(index));
      }
      return make_var_ref(t.loc, t.text);
    }
    default:
      fail(t, "expected expression, found " + std::string(tok_kind_name(t.kind)));
  }
}

std::unique_ptr<Program> parse_source(SourceManager& sm, DiagnosticEngine& diags,
                                      std::string name, std::string text) {
  FileId file = sm.add_buffer(std::move(name), std::move(text));
  Parser parser(sm, file, diags);
  return parser.parse_program();
}

}  // namespace hlsav::lang
