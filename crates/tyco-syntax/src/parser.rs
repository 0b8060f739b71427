//! Recursive-descent parser for the DiTyCO concrete syntax.
//!
//! Grammar notes:
//! * `P | Q` is n-ary and has the lowest precedence.
//! * Object (`x?{…}` / `x?(ỹ)=P`), `if`, `def`, `let` and `import` bodies are
//!   *greedy*: they extend as far right as possible; use parentheses to
//!   delimit them.
//! * `new x1 … xn [in] P` accepts whitespace- or comma-separated binders; a
//!   lower-case identifier followed by `!` or `?` starts the body (matching
//!   the paper's `new a (r.p!l[v a] | a?(y) = P)` style).
//! * Located identifiers `s.x` / `s.X` are accepted so pretty-printed
//!   translated programs re-parse (source programs never need them).

use crate::ast::*;
use crate::lexer::{unescape, LexError, Lexer, Spanned};
use crate::pos::{Pos, Span};
use crate::token::Tok;
use std::fmt;

/// A parse (or lex) error with source location.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            span: Span::new(e.pos, e.pos),
        }
    }
}

/// The deepest AST the parser builds: no path from the root of a parsed
/// program to a leaf passes through more nodes than this. Source text is
/// outside input, and every pass behind the parser recurses over the
/// tree, so the bound is what keeps arbitrary input from overflowing a
/// stack; deeper input is an ordinary `nesting too deep` error.
const MAX_DEPTH: usize = 4096;

/// Parse a complete source program (a single process).
pub fn parse_program(src: &str) -> Result<Proc, ParseError> {
    let mut p = Parser::new(src);
    let proc = p.parse_par().and_then(|proc| p.expect_eof().map(|()| proc));
    p.finish(proc)
}

/// Parse a single expression (used by tests and the REPL-style shell).
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(src);
    let e = p
        .parse_expr_prec(0)
        .and_then(|e| p.expect_eof().map(|()| e));
    p.finish(e)
}

/// A recursive-descent parser pulling tokens from the lexer as it goes:
/// the current token and at most one more are held at a time.
struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Spanned<'a>,
    /// The token after `tok`, once [`Parser::peek`] has read it.
    ahead: Option<Spanned<'a>>,
    /// The first lex error. The token stream ends there: every later
    /// token reads as end of input.
    lex_error: Option<LexError>,
    /// Nodes (and brackets) enclosing the one being parsed.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        let mut p = Parser {
            lexer: Lexer::new(src),
            tok: Spanned {
                tok: Tok::Eof,
                span: Span::default(),
            },
            ahead: None,
            lex_error: None,
            depth: 0,
        };
        p.bump();
        p
    }

    /// Read the next token into `t`; after a lex error, end of input.
    fn lex(lexer: &mut Lexer<'a>, lex_error: &mut Option<LexError>, t: &mut Spanned<'a>) {
        if lex_error.is_none() {
            match lexer.read(t) {
                Ok(()) => return,
                Err(e) => *lex_error = Some(e),
            }
        }
        t.tok = Tok::Eof;
    }

    /// The outcome of a parse. A lex error anywhere in the text wins over
    /// the parse's own result, as if the whole text had been lexed first:
    /// after a parse error the rest of the text is lexed to find one.
    fn finish<T>(mut self, parsed: Result<T, ParseError>) -> Result<T, ParseError> {
        if parsed.is_err() {
            while self.lex_error.is_none() && self.tok.tok != Tok::Eof {
                self.bump();
            }
        }
        match self.lex_error {
            Some(e) => Err(e.into()),
            None => parsed,
        }
    }

    /// Refuse a node whose subtree of `height` nodes, hanging below the
    /// `self.depth` constructs that enclose it, would pass [`MAX_DEPTH`].
    fn check_depth(&self, height: usize) -> Result<(), ParseError> {
        if self.depth + height > MAX_DEPTH {
            Err(self.err(format!("nesting too deep (more than {MAX_DEPTH} levels)")))
        } else {
            Ok(())
        }
    }

    fn cur(&self) -> &Tok<'a> {
        &self.tok.tok
    }

    /// The token after the current one.
    fn peek(&mut self) -> &Tok<'a> {
        if self.ahead.is_none() {
            let mut t = self.tok;
            Parser::lex(&mut self.lexer, &mut self.lex_error, &mut t);
            self.ahead = Some(t);
        }
        &self.ahead.as_ref().expect("just read").tok
    }

    fn span(&self) -> Span {
        self.tok.span
    }

    fn pos(&self) -> Pos {
        self.span().start
    }

    /// Move to the next token; at the end of input, stay there.
    fn bump(&mut self) {
        match self.ahead.take() {
            Some(t) => self.tok = t,
            None => Parser::lex(&mut self.lexer, &mut self.lex_error, &mut self.tok),
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            span: self.span(),
        }
    }

    fn expect(&mut self, tok: Tok<'_>) -> Result<(), ParseError> {
        if *self.cur() == tok {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                tok.describe(),
                self.cur().describe()
            )))
        }
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if *self.cur() == Tok::Eof {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected end of input, found {}",
                self.cur().describe()
            )))
        }
    }

    fn lower_id(&mut self, what: &str) -> Result<Ident, ParseError> {
        match *self.cur() {
            Tok::LowerId(s) => {
                self.bump();
                Ok(s.to_string())
            }
            other => Err(self.err(format!("expected {what}, found {}", other.describe()))),
        }
    }

    fn upper_id(&mut self, what: &str) -> Result<Ident, ParseError> {
        match *self.cur() {
            Tok::UpperId(s) => {
                self.bump();
                Ok(s.to_string())
            }
            other => Err(self.err(format!("expected {what}, found {}", other.describe()))),
        }
    }

    // ---- processes -------------------------------------------------------

    /// `P | Q | …`
    fn parse_par(&mut self) -> Result<Proc, ParseError> {
        let mut parts = vec![self.parse_prefix()?];
        while *self.cur() == Tok::Bar {
            self.bump();
            parts.push(self.parse_prefix()?);
        }
        Ok(Proc::par(parts))
    }

    /// A single prefixed process (no top-level `|`). Every level of
    /// process nesting, brackets included, recurses through here.
    fn parse_prefix(&mut self) -> Result<Proc, ParseError> {
        self.check_depth(1)?;
        self.depth += 1;
        let p = self.parse_prefix_at_depth();
        self.depth -= 1;
        p
    }

    fn parse_prefix_at_depth(&mut self) -> Result<Proc, ParseError> {
        let start = self.pos();
        match *self.cur() {
            Tok::Int(0) => {
                self.bump();
                Ok(Proc::Nil)
            }
            Tok::LParen => {
                self.bump();
                let p = self.parse_par()?;
                self.expect(Tok::RParen)?;
                Ok(p)
            }
            Tok::KwNew => {
                self.bump();
                self.parse_new_tail(start, false)
            }
            Tok::KwDef => {
                self.bump();
                self.parse_def_tail(start, false)
            }
            Tok::KwExport => {
                self.bump();
                match self.cur() {
                    Tok::KwNew => {
                        self.bump();
                        self.parse_new_tail(start, true)
                    }
                    Tok::KwDef => {
                        self.bump();
                        self.parse_def_tail(start, true)
                    }
                    other => Err(self.err(format!(
                        "expected `new` or `def` after `export`, found {}",
                        other.describe()
                    ))),
                }
            }
            Tok::KwImport => {
                self.bump();
                self.parse_import_tail(start)
            }
            Tok::KwIf => {
                self.bump();
                let cond = self.parse_expr_prec(0)?;
                self.expect(Tok::KwThen)?;
                let then_branch = Box::new(self.parse_par()?);
                self.expect(Tok::KwElse)?;
                let else_branch = Box::new(self.parse_par()?);
                let span = Span::new(start, self.pos());
                Ok(Proc::If {
                    cond,
                    then_branch,
                    else_branch,
                    span,
                })
            }
            Tok::KwPrint | Tok::KwPrintln => {
                let newline = *self.cur() == Tok::KwPrintln;
                self.bump();
                self.expect(Tok::LParen)?;
                let args = self.parse_expr_list(Tok::RParen)?;
                let span = Span::new(start, self.pos());
                Ok(Proc::Print {
                    args,
                    newline,
                    span,
                })
            }
            Tok::KwLet => {
                self.bump();
                let binder = self.lower_id("binder name")?;
                self.expect(Tok::Assign)?;
                let target = self.parse_name_ref()?;
                self.expect(Tok::Bang)?;
                let label = self.parse_label()?;
                self.expect(Tok::LBracket)?;
                let args = self.parse_expr_list(Tok::RBracket)?;
                self.expect(Tok::KwIn)?;
                let body = Box::new(self.parse_par()?);
                let span = Span::new(start, self.pos());
                Ok(Proc::Let {
                    binder,
                    target,
                    label,
                    args,
                    body,
                    span,
                })
            }
            Tok::UpperId(_) => self.parse_inst(None, start),
            Tok::LowerId(_) => self.parse_named_prefix(start),
            other => Err(self.err(format!("expected a process, found {}", other.describe()))),
        }
    }

    /// After having consumed `new` (or `export new`).
    ///
    /// Scope rule: `new x̃ P` binds tightly (one prefixed process; use
    /// parentheses for a wider body), while `new x̃ in P` is greedy and
    /// extends as far right as possible. This matches the paper's usage,
    /// e.g. `new x Cell[x,9] | new y Cell[y,true]` is a parallel pair.
    fn parse_new_tail(&mut self, start: Pos, export: bool) -> Result<Proc, ParseError> {
        let mut binders: Vec<Ident> = Vec::new();
        let mut explicit_in = false;
        loop {
            match *self.cur() {
                Tok::KwIn if !binders.is_empty() => {
                    self.bump();
                    explicit_in = true;
                    break;
                }
                Tok::LowerId(x) => {
                    // An identifier followed by `!`, `?` or `.` starts the
                    // body (message/object on that name) once we already
                    // have at least one binder.
                    if !binders.is_empty()
                        && matches!(self.peek(), Tok::Bang | Tok::Query | Tok::Dot)
                    {
                        break;
                    }
                    self.bump();
                    binders.push(x.to_string());
                    if *self.cur() == Tok::Comma {
                        self.bump();
                    }
                }
                _ if binders.is_empty() => {
                    return Err(self.err(format!(
                        "expected at least one name after `new`, found {}",
                        self.cur().describe()
                    )));
                }
                _ => break,
            }
        }
        let body = Box::new(if explicit_in {
            self.parse_par()?
        } else {
            self.parse_prefix()?
        });
        let span = Span::new(start, self.pos());
        Ok(if export {
            Proc::ExportNew {
                binders,
                body,
                span,
            }
        } else {
            Proc::New {
                binders,
                body,
                span,
            }
        })
    }

    /// After having consumed `def` (or `export def`).
    fn parse_def_tail(&mut self, start: Pos, export: bool) -> Result<Proc, ParseError> {
        let mut defs = Vec::new();
        loop {
            let dstart = self.pos();
            let name = self.upper_id("class name")?;
            self.expect(Tok::LParen)?;
            let params = self.parse_param_list(Tok::RParen)?;
            self.expect(Tok::Assign)?;
            let body = self.parse_par()?;
            defs.push(ClassDef {
                name,
                params,
                body,
                span: Span::new(dstart, self.pos()),
            });
            if *self.cur() == Tok::KwAnd {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(Tok::KwIn)?;
        let body = Box::new(self.parse_par()?);
        let span = Span::new(start, self.pos());
        Ok(if export {
            Proc::ExportDef { defs, body, span }
        } else {
            Proc::Def { defs, body, span }
        })
    }

    /// After having consumed `import`.
    fn parse_import_tail(&mut self, start: Pos) -> Result<Proc, ParseError> {
        match *self.cur() {
            Tok::LowerId(name) => {
                self.bump();
                self.expect(Tok::KwFrom)?;
                let site = self.lower_id("site name")?;
                self.expect(Tok::KwIn)?;
                let body = Box::new(self.parse_par()?);
                let span = Span::new(start, self.pos());
                Ok(Proc::ImportName {
                    name: name.to_string(),
                    site,
                    body,
                    span,
                })
            }
            Tok::UpperId(class) => {
                self.bump();
                self.expect(Tok::KwFrom)?;
                let site = self.lower_id("site name")?;
                self.expect(Tok::KwIn)?;
                let body = Box::new(self.parse_par()?);
                let span = Span::new(start, self.pos());
                Ok(Proc::ImportClass {
                    class: class.to_string(),
                    site,
                    body,
                    span,
                })
            }
            other => Err(self.err(format!(
                "expected a name or class variable after `import`, found {}",
                other.describe()
            ))),
        }
    }

    /// Processes starting with a lower-case identifier: messages, objects,
    /// located instantiation (`s.X[…]`).
    fn parse_named_prefix(&mut self, start: Pos) -> Result<Proc, ParseError> {
        // Possibly-located subject.
        let first = self.lower_id("name")?;
        let target = if *self.cur() == Tok::Dot {
            self.bump();
            match *self.cur() {
                Tok::LowerId(x) => {
                    self.bump();
                    NameRef::located(first, x)
                }
                Tok::UpperId(_) => {
                    // `s.X[…]` — located instantiation.
                    return self.parse_inst(Some(first), start);
                }
                other => {
                    return Err(self.err(format!(
                        "expected identifier after `.`, found {}",
                        other.describe()
                    )));
                }
            }
        } else {
            NameRef::Plain(first)
        };
        match *self.cur() {
            Tok::Bang => {
                self.bump();
                let (label, args) = self.parse_msg_tail()?;
                let span = Span::new(start, self.pos());
                Ok(Proc::Msg {
                    target,
                    label,
                    args,
                    span,
                })
            }
            Tok::Query => {
                self.bump();
                self.parse_obj_tail(target, start)
            }
            other => Err(self.err(format!(
                "expected `!` or `?` after name, found {}",
                other.describe()
            ))),
        }
    }

    /// `l[args]` or `[args]` (val sugar) after `x!`.
    fn parse_msg_tail(&mut self) -> Result<(Ident, Vec<Expr>), ParseError> {
        let label = if *self.cur() == Tok::LBracket {
            VAL_LABEL.to_string()
        } else {
            self.parse_label()?
        };
        self.expect(Tok::LBracket)?;
        let args = self.parse_expr_list(Tok::RBracket)?;
        Ok((label, args))
    }

    /// `{ l1(ỹ)=P1, … }` or `(ỹ) = P` (val sugar) after `x?`.
    fn parse_obj_tail(&mut self, target: NameRef, start: Pos) -> Result<Proc, ParseError> {
        match *self.cur() {
            Tok::LBrace => {
                self.bump();
                let mut methods = Vec::new();
                if *self.cur() != Tok::RBrace {
                    loop {
                        let mstart = self.pos();
                        let label = self.parse_label()?;
                        self.expect(Tok::LParen)?;
                        let params = self.parse_param_list(Tok::RParen)?;
                        self.expect(Tok::Assign)?;
                        let body = self.parse_par()?;
                        methods.push(Method {
                            label,
                            params,
                            body,
                            span: Span::new(mstart, self.pos()),
                        });
                        if *self.cur() == Tok::Comma {
                            self.bump();
                            // Allow a trailing comma before `}`.
                            if *self.cur() == Tok::RBrace {
                                break;
                            }
                        } else {
                            break;
                        }
                    }
                }
                self.expect(Tok::RBrace)?;
                let span = Span::new(start, self.pos());
                Ok(Proc::Obj {
                    target,
                    methods,
                    span,
                })
            }
            Tok::LParen => {
                self.bump();
                let params = self.parse_param_list(Tok::RParen)?;
                self.expect(Tok::Assign)?;
                let body = self.parse_par()?;
                let span = Span::new(start, self.pos());
                Ok(Proc::Obj {
                    target,
                    methods: vec![Method {
                        label: VAL_LABEL.to_string(),
                        params,
                        body,
                        span,
                    }],
                    span,
                })
            }
            other => Err(self.err(format!(
                "expected `{{` or `(` after `?`, found {}",
                other.describe()
            ))),
        }
    }

    /// `X[args]` — `site` is set for `s.X[args]`.
    fn parse_inst(&mut self, site: Option<Ident>, start: Pos) -> Result<Proc, ParseError> {
        let name = self.upper_id("class name")?;
        let class = match site {
            Some(s) => ClassRef::Located(s, name),
            None => ClassRef::Plain(name),
        };
        self.expect(Tok::LBracket)?;
        let args = self.parse_expr_list(Tok::RBracket)?;
        let span = Span::new(start, self.pos());
        Ok(Proc::Inst { class, args, span })
    }

    fn parse_label(&mut self) -> Result<Ident, ParseError> {
        self.lower_id("method label")
    }

    /// Comma-separated lower-case parameters up to (and consuming) `close`.
    fn parse_param_list(&mut self, close: Tok) -> Result<Vec<Ident>, ParseError> {
        let mut params = Vec::new();
        if *self.cur() != close {
            loop {
                params.push(self.lower_id("parameter")?);
                if *self.cur() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(close)?;
        Ok(params)
    }

    /// Comma-separated expressions up to (and consuming) `close`.
    fn parse_expr_list(&mut self, close: Tok) -> Result<Vec<Expr>, ParseError> {
        let mut args = Vec::new();
        if *self.cur() != close {
            loop {
                args.push(self.parse_expr_prec(0)?);
                if *self.cur() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(close)?;
        Ok(args)
    }

    // ---- expressions -----------------------------------------------------

    fn parse_name_ref(&mut self) -> Result<NameRef, ParseError> {
        let first = self.lower_id("name")?;
        if *self.cur() == Tok::Dot {
            self.bump();
            let second = self.lower_id("name after `.`")?;
            Ok(NameRef::located(first, second))
        } else {
            Ok(NameRef::Plain(first))
        }
    }

    fn parse_expr_prec(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        Ok(self.parse_expr_height(min_prec)?.0)
    }

    /// Precedence-climbing expression parser; returns the expression with
    /// its height in nodes. A left-deep operator chain grows in the loop
    /// below, not by recursion, so the height is checked where each node
    /// is built.
    fn parse_expr_height(&mut self, min_prec: u8) -> Result<(Expr, usize), ParseError> {
        let (mut lhs, mut height) = self.parse_expr_atom()?;
        loop {
            let op = match self.cur() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                Tok::StarOp => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Mod,
                Tok::Caret => BinOp::Concat,
                Tok::EqEq => BinOp::Eq,
                Tok::NotEq => BinOp::Ne,
                Tok::Lt => BinOp::Lt,
                Tok::Le => BinOp::Le,
                Tok::Gt => BinOp::Gt,
                Tok::Ge => BinOp::Ge,
                Tok::AndAnd => BinOp::And,
                Tok::OrOr => BinOp::Or,
                _ => break,
            };
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.bump();
            let (rhs, rhs_height) = self.parse_expr_height(prec + 1)?;
            height = 1 + height.max(rhs_height);
            self.check_depth(height)?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok((lhs, height))
    }

    /// An operand with its height. Every level of expression nesting,
    /// brackets included, recurses through here.
    fn parse_expr_atom(&mut self) -> Result<(Expr, usize), ParseError> {
        self.check_depth(1)?;
        self.depth += 1;
        let e = self.parse_expr_atom_at_depth();
        self.depth -= 1;
        e
    }

    fn parse_expr_atom_at_depth(&mut self) -> Result<(Expr, usize), ParseError> {
        let lit = |p: &mut Parser, l: Lit| {
            p.bump();
            Ok((Expr::Lit(l), 1))
        };
        match *self.cur() {
            Tok::Int(i) => lit(self, Lit::Int(i)),
            Tok::Float(x) => lit(self, Lit::Float(x)),
            Tok::Str(s) => lit(self, Lit::Str(unescape(s))),
            Tok::KwTrue => lit(self, Lit::Bool(true)),
            Tok::KwFalse => lit(self, Lit::Bool(false)),
            Tok::KwUnit => lit(self, Lit::Unit),
            Tok::Minus => {
                self.bump();
                // Fold negative numeric literals so `-5` is `Lit(-5)` and
                // printing is stable.
                match *self.cur() {
                    Tok::Int(i) => lit(self, Lit::Int(-i)),
                    Tok::Float(x) => lit(self, Lit::Float(-x)),
                    _ => {
                        let (e, height) = self.parse_expr_atom()?;
                        Ok((Expr::Un(UnOp::Neg, Box::new(e)), height + 1))
                    }
                }
            }
            Tok::KwNot => {
                self.bump();
                let (e, height) = self.parse_expr_atom()?;
                Ok((Expr::Un(UnOp::Not, Box::new(e)), height + 1))
            }
            Tok::LParen => {
                self.bump();
                let e = self.parse_expr_height(0)?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::LowerId(_) => {
                let r = self.parse_name_ref()?;
                Ok((Expr::Name(r), 1))
            }
            other => Err(self.err(format!(
                "expected an expression, found {}",
                other.describe()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(src: &str) -> Proc {
        parse_program(src).unwrap_or_else(|e| panic!("parse failed for {src:?}: {e}"))
    }

    #[test]
    fn parses_nil_and_parens() {
        assert_eq!(p("0"), Proc::Nil);
        assert_eq!(p("(0 | 0)"), Proc::Nil);
    }

    #[test]
    fn parses_message_with_label() {
        match p("x!read[r, 1 + 2]") {
            Proc::Msg {
                target,
                label,
                args,
                ..
            } => {
                assert_eq!(target, NameRef::Plain("x".into()));
                assert_eq!(label, "read");
                assert_eq!(args.len(), 2);
                assert!(matches!(args[1], Expr::Bin(BinOp::Add, _)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_val_sugar_message() {
        match p("x![9]") {
            Proc::Msg { label, .. } => assert_eq!(label, VAL_LABEL),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_object_with_methods() {
        let src = "self?{ read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }";
        match p(src) {
            Proc::Obj { methods, .. } => {
                assert_eq!(methods.len(), 2);
                assert_eq!(methods[0].label, "read");
                assert_eq!(methods[0].params, vec!["r".to_string()]);
                assert!(matches!(methods[0].body, Proc::Par(_)));
                assert_eq!(methods[1].label, "write");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_object_val_sugar() {
        match p("z?(w) = print(w)") {
            Proc::Obj { methods, .. } => {
                assert_eq!(methods.len(), 1);
                assert_eq!(methods[0].label, VAL_LABEL);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_new_with_body_heuristic() {
        // `new x y x![1]` — x and y binders, body is the message on x.
        match p("new x y x![1]") {
            Proc::New { binders, body, .. } => {
                assert_eq!(binders, vec!["x".to_string(), "y".to_string()]);
                assert!(matches!(*body, Proc::Msg { .. }));
            }
            other => panic!("unexpected: {other:?}"),
        }
        // `in` always terminates the binder list.
        match p("new x in x![1]") {
            Proc::New { binders, .. } => assert_eq!(binders, vec!["x".to_string()]),
            other => panic!("unexpected: {other:?}"),
        }
        // Parenthesized body.
        match p("new r (x![r] | r?(v) = print(v))") {
            Proc::New { binders, body, .. } => {
                assert_eq!(binders, vec!["r".to_string()]);
                assert!(matches!(*body, Proc::Par(_)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_cell_example_from_paper() {
        let src = r#"
            def Cell(self, v) =
                self ? {
                    read(r) = r![v] | Cell[self, v],
                    write(u) = Cell[self, u]
                }
            in new x Cell[x, 9] | new y Cell[y, true]
        "#;
        match p(src) {
            Proc::Def { defs, body, .. } => {
                assert_eq!(defs.len(), 1);
                assert_eq!(defs[0].name, "Cell");
                assert_eq!(defs[0].params, vec!["self".to_string(), "v".to_string()]);
                assert!(matches!(*body, Proc::Par(_)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_def_and_mutual() {
        let src = "def X(a) = Y[a] and Y(b) = X[b] in X[z]";
        match p(src) {
            Proc::Def { defs, .. } => {
                assert_eq!(defs.len(), 2);
                assert_eq!(defs[1].name, "Y");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_export_import() {
        match p("export new appletserver in AppletServer[appletserver]") {
            Proc::ExportNew { binders, .. } => {
                assert_eq!(binders, vec!["appletserver".to_string()]);
            }
            other => panic!("unexpected: {other:?}"),
        }
        match p("import appletserver from server in new p appletserver!applet[p] | p![9]") {
            Proc::ImportName { name, site, .. } => {
                assert_eq!(name, "appletserver");
                assert_eq!(site, "server");
            }
            other => panic!("unexpected: {other:?}"),
        }
        match p("import Applet from server in Applet[v]") {
            Proc::ImportClass { class, site, .. } => {
                assert_eq!(class, "Applet");
                assert_eq!(site, "server");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_located_identifiers() {
        match p("server.p!val[v, a]") {
            Proc::Msg { target, .. } => {
                assert_eq!(target, NameRef::located("server", "p"));
            }
            other => panic!("unexpected: {other:?}"),
        }
        match p("server.Applet[v]") {
            Proc::Inst { class, .. } => {
                assert_eq!(class, ClassRef::Located("server".into(), "Applet".into()));
            }
            other => panic!("unexpected: {other:?}"),
        }
        match p("new a s.x?(y) = a![y]") {
            Proc::New { body, .. } => {
                assert!(matches!(
                    *body,
                    Proc::Obj {
                        target: NameRef::Located(..),
                        ..
                    }
                ));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_let_sugar() {
        let src = "let data = database!newChunk[] in print(data)";
        match p(src) {
            Proc::Let {
                binder,
                target,
                label,
                args,
                ..
            } => {
                assert_eq!(binder, "data");
                assert_eq!(target, NameRef::Plain("database".into()));
                assert_eq!(label, "newChunk");
                assert!(args.is_empty());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_if_and_print() {
        let src = "if n > 0 then print(n) else println(\"done\")";
        match p(src) {
            Proc::If { cond, .. } => assert!(matches!(cond, Expr::Bin(BinOp::Gt, _))),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("1 + 2 * 3 == 7 && true").unwrap();
        // ((1 + (2*3)) == 7) && true
        match e {
            Expr::Bin(BinOp::And, ab) => match ab.0 {
                Expr::Bin(BinOp::Eq, ab2) => {
                    assert!(matches!(ab2.0, Expr::Bin(BinOp::Add, _)));
                }
                other => panic!("unexpected: {other:?}"),
            },
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn error_messages_have_positions() {
        let e = parse_program("new").unwrap_err();
        assert!(e.message.contains("expected at least one name"));
        let e = parse_program("x!").unwrap_err();
        assert!(e.span.start.line >= 1);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_program("0 0").is_err());
    }

    #[test]
    fn greedy_object_body_consumes_parallel() {
        // a?(y) = P | Q attaches Q to the method body.
        match p("a?(y) = print(y) | b![1]") {
            Proc::Obj { methods, .. } => {
                assert!(matches!(methods[0].body, Proc::Par(_)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn depth_bound_counts_heights_not_only_brackets() {
        // A test thread's 2 MiB stack is smaller than the bound assumes.
        let on_big_stack = std::thread::Builder::new().stack_size(256 << 20);
        let check = || {
            let ok = |src: &str| parse_program(src).map(|_| ());
            let chain = |terms: usize| format!("1{}", " + 1".repeat(terms - 1));
            // One `print` above the expression: its height may be MAX - 1.
            ok(&format!("print({})", chain(MAX_DEPTH - 1))).unwrap();
            let e = ok(&format!("print({})", chain(MAX_DEPTH))).unwrap_err();
            assert!(e.message.contains("nesting too deep"), "{e}");
            assert_eq!(e.span.start.line, 1);
            // A bracketed chain that a second chain pushes further down:
            // neither is too deep alone, their sum is.
            let pushed = |m: usize| format!("print(({}){})", chain(3000), " + 1".repeat(m));
            ok(&pushed(MAX_DEPTH - 1 - 3000)).unwrap();
            assert!(ok(&pushed(MAX_DEPTH - 3000)).is_err());
            // Unary prefixes are nodes too.
            let nots = |n: usize| format!("print({}true)", "not ".repeat(n));
            ok(&nots(MAX_DEPTH - 2)).unwrap();
            assert!(ok(&nots(MAX_DEPTH - 1)).is_err());
            // Brackets build no node but cost a level each.
            let parens = |n: usize| format!("{}0{}", "(".repeat(n), ")".repeat(n));
            ok(&parens(MAX_DEPTH - 1)).unwrap();
            assert!(ok(&parens(MAX_DEPTH)).is_err());
        };
        on_big_stack.spawn(check).unwrap().join().unwrap();
    }
}
