//! Hand-written lexer for the DiTyCO concrete syntax.
//!
//! Comments: `//` to end of line and nestable `/* … */`.

use crate::pos::{Pos, Span};
use crate::token::Tok;
use std::fmt;

/// A token with its source span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spanned<'a> {
    pub tok: Tok<'a>,
    pub span: Span,
}

/// A lexical error.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    pub message: String,
    pub pos: Pos,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize `src` completely; the final token is always [`Tok::Eof`].
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>, LexError> {
    let mut lexer = Lexer::new(src);
    let mut out = Vec::new();
    loop {
        let t = lexer.next_token()?;
        out.push(t);
        if t.tok == Tok::Eof {
            return Ok(out);
        }
    }
}

/// The value of a string literal's text (see [`Tok::Str`]).
pub fn unescape(raw: &str) -> String {
    if !raw.contains('\\') {
        return raw.to_string();
    }
    let mut s = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        s.push(match c {
            '\\' => match chars.next() {
                Some('n') => '\n',
                Some('t') => '\t',
                Some(other) => other,
                None => break,
            },
            c => c,
        });
    }
    s
}

/// A token stream over a source text, read one token at a time.
pub(crate) struct Lexer<'a> {
    src: &'a str,
    pos: Pos,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            pos: Pos::start(),
        }
    }

    /// The next token; [`Tok::Eof`] at the end of the text, and again on
    /// every later call.
    pub(crate) fn next_token(&mut self) -> Result<Spanned<'a>, LexError> {
        let mut t = Spanned {
            tok: Tok::Eof,
            span: Span::default(),
        };
        self.read(&mut t).map(|()| t)
    }

    /// Read the next token into `t`, which an error leaves as it was.
    /// (The parser reads into the token it holds: no copy per token.)
    pub(crate) fn read(&mut self, t: &mut Spanned<'a>) -> Result<(), LexError> {
        self.skip_trivia()?;
        let start = self.pos;
        let rest = self.rest();
        // Every token but a string is ASCII on one line: its end is
        // `len` bytes and columns on.
        let (tok, len) = match rest.as_bytes().first() {
            None => (Tok::Eof, 0),
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'_') => ident(rest),
            Some(b'0'..=b'9') => self.number(rest)?,
            Some(b'"') => {
                t.tok = self.string()?;
                t.span = Span::new(start, self.pos);
                return Ok(());
            }
            Some(_) => self.symbol(rest)?,
        };
        let end = Pos {
            line: start.line,
            col: start.col + len as u32,
            offset: start.offset + len as u32,
        };
        self.pos = end;
        t.tok = tok;
        t.span = Span::new(start, end);
        Ok(())
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos.offset as usize..]
    }

    /// Consume one character.
    fn bump(&mut self) -> Option<char> {
        let c = self.rest().chars().next()?;
        self.pos.offset += c.len_utf8() as u32;
        if c == '\n' {
            self.pos.line += 1;
            self.pos.col = 1;
        } else {
            self.pos.col += 1;
        }
        Some(c)
    }

    /// Consume `n` bytes of ASCII text without a newline.
    fn skip_ascii(&mut self, n: usize) {
        self.pos.offset += n as u32;
        self.pos.col += n as u32;
    }

    fn err(&self, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            pos: self.pos,
        }
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            self.skip_ascii_whitespace();
            let rest = self.rest();
            if rest.starts_with("//") {
                let line = rest.find('\n').unwrap_or(rest.len());
                self.pos.offset += line as u32;
                self.pos.col += rest[..line].chars().count() as u32;
            } else if rest.starts_with("/*") {
                self.skip_ascii(2);
                let mut depth = 1usize;
                while depth > 0 {
                    let rest = self.rest();
                    if rest.starts_with("/*") {
                        self.skip_ascii(2);
                        depth += 1;
                    } else if rest.starts_with("*/") {
                        self.skip_ascii(2);
                        depth -= 1;
                    } else if self.bump().is_none() {
                        return Err(self.err("unterminated block comment"));
                    }
                }
            } else if rest.starts_with(|c: char| !c.is_ascii() && c.is_whitespace()) {
                self.bump();
            } else {
                return Ok(());
            }
        }
    }

    /// The common case of [`Lexer::skip_trivia`], on locals.
    fn skip_ascii_whitespace(&mut self) {
        let Pos {
            mut line,
            mut col,
            mut offset,
        } = self.pos;
        let bytes = self.src.as_bytes();
        loop {
            match bytes.get(offset as usize) {
                Some(b' ' | b'\t' | b'\r' | b'\x0B' | b'\x0C') => col += 1,
                Some(b'\n') => {
                    line += 1;
                    col = 1;
                }
                _ => break,
            }
            offset += 1;
        }
        self.pos = Pos { line, col, offset };
    }

    /// An integer or float literal at the start of `rest`, with its
    /// length.
    fn number(&mut self, rest: &'a str) -> Result<(Tok<'a>, usize), LexError> {
        let bytes = rest.as_bytes();
        let digits = |from: usize| {
            bytes[from..]
                .iter()
                .position(|b| !b.is_ascii_digit())
                .map_or(bytes.len(), |n| from + n)
        };
        let mut len = digits(0);
        // A float has a '.' followed by a digit (so `1.x` stays Int Dot Id —
        // though names never follow ints in practice).
        let is_float =
            bytes.get(len) == Some(&b'.') && bytes.get(len + 1).is_some_and(u8::is_ascii_digit);
        if is_float {
            len = digits(len + 1);
        }
        let lexeme = &rest[..len];
        let tok = if is_float {
            lexeme
                .parse()
                .map(Tok::Float)
                .map_err(|e| format!("bad float literal: {e}"))
        } else {
            lexeme
                .parse()
                .map(Tok::Int)
                .map_err(|e| format!("bad int literal: {e}"))
        };
        match tok {
            Ok(tok) => Ok((tok, len)),
            // The error is placed after the literal.
            Err(message) => {
                self.skip_ascii(len);
                Err(self.err(message))
            }
        }
    }

    fn string(&mut self) -> Result<Tok<'a>, LexError> {
        self.skip_ascii(1); // opening quote
        let begin = self.pos.offset as usize;
        loop {
            let end = self.pos.offset as usize;
            match self.bump() {
                None => return Err(self.err("unterminated string literal")),
                Some('"') => return Ok(Tok::Str(&self.src[begin..end])),
                Some('\\') => match self.bump() {
                    Some('n' | 't' | '\\' | '"') => {}
                    Some(other) => {
                        return Err(self.err(format!("unknown escape `\\{other}`")));
                    }
                    None => return Err(self.err("unterminated string literal")),
                },
                Some(_) => {}
            }
        }
    }

    /// An operator or punctuation at the start of `rest`, with its length.
    fn symbol(&mut self, rest: &'a str) -> Result<(Tok<'a>, usize), LexError> {
        let bytes = rest.as_bytes();
        let (tok, len) = match (bytes[0], bytes.get(1)) {
            (b'!', Some(b'=')) => (Tok::NotEq, 2),
            (b'!', _) => (Tok::Bang, 1),
            (b'?', _) => (Tok::Query, 1),
            (b'[', _) => (Tok::LBracket, 1),
            (b']', _) => (Tok::RBracket, 1),
            (b'(', _) => (Tok::LParen, 1),
            (b')', _) => (Tok::RParen, 1),
            (b'{', _) => (Tok::LBrace, 1),
            (b'}', _) => (Tok::RBrace, 1),
            (b'=', Some(b'=')) => (Tok::EqEq, 2),
            (b'=', _) => (Tok::Assign, 1),
            (b',', _) => (Tok::Comma, 1),
            (b'|', Some(b'|')) => (Tok::OrOr, 2),
            (b'|', _) => (Tok::Bar, 1),
            (b'.', _) => (Tok::Dot, 1),
            (b'+', _) => (Tok::Plus, 1),
            (b'-', _) => (Tok::Minus, 1),
            (b'*', _) => (Tok::StarOp, 1),
            (b'/', _) => (Tok::Slash, 1),
            (b'%', _) => (Tok::Percent, 1),
            (b'^', _) => (Tok::Caret, 1),
            (b'<', Some(b'=')) => (Tok::Le, 2),
            (b'<', _) => (Tok::Lt, 1),
            (b'>', Some(b'=')) => (Tok::Ge, 2),
            (b'>', _) => (Tok::Gt, 1),
            (b'&', Some(b'&')) => (Tok::AndAnd, 2),
            (b'&', _) => {
                self.skip_ascii(1);
                return Err(self.err("expected `&&`"));
            }
            _ => {
                let c = self.bump().expect("not at the end");
                return Err(self.err(format!("unexpected character `{c}`")));
            }
        };
        Ok((tok, len))
    }
}

/// The identifier or keyword at the start of `rest`, with its length.
fn ident(rest: &str) -> (Tok<'_>, usize) {
    let len = rest
        .bytes()
        .position(|b| !(b.is_ascii_alphanumeric() || b == b'_' || b == b'\''))
        .unwrap_or(rest.len());
    let lexeme = &rest[..len];
    let tok = Tok::keyword(lexeme).unwrap_or(if lexeme.as_bytes()[0].is_ascii_uppercase() {
        Tok::UpperId(lexeme)
    } else {
        Tok::LowerId(lexeme)
    });
    (tok, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src)
            .expect("lex ok")
            .into_iter()
            .map(|s| s.tok)
            .collect()
    }

    #[test]
    fn lexes_message_form() {
        assert_eq!(
            toks("x!read[r]"),
            vec![
                Tok::LowerId("x"),
                Tok::Bang,
                Tok::LowerId("read"),
                Tok::LBracket,
                Tok::LowerId("r"),
                Tok::RBracket,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn keywords_and_classvars() {
        assert_eq!(
            toks("def Cell and new in"),
            vec![
                Tok::KwDef,
                Tok::UpperId("Cell"),
                Tok::KwAnd,
                Tok::KwNew,
                Tok::KwIn,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("x // trailing\n/* multi \n /* nested */ line */ y"),
            vec![Tok::LowerId("x"), Tok::LowerId("y"), Tok::Eof]
        );
    }

    #[test]
    fn numbers_and_floats() {
        assert_eq!(
            toks("42 3.25 0"),
            vec![Tok::Int(42), Tok::Float(3.25), Tok::Int(0), Tok::Eof]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(toks(r#""a\nb\"c""#), vec![Tok::Str(r#"a\nb\"c"#), Tok::Eof]);
        assert_eq!(unescape(r#"a\nb\"c\t\\"#), "a\nb\"c\t\\");
    }

    #[test]
    fn operators_two_char() {
        assert_eq!(
            toks("== != <= >= && || | = < >"),
            vec![
                Tok::EqEq,
                Tok::NotEq,
                Tok::Le,
                Tok::Ge,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Bar,
                Tok::Assign,
                Tok::Lt,
                Tok::Gt,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn spans_track_lines() {
        let ts = lex("x\n  y").unwrap();
        assert_eq!(ts[0].span.start.line, 1);
        assert_eq!(ts[1].span.start.line, 2);
        assert_eq!(ts[1].span.start.col, 3);
    }

    #[test]
    fn error_on_unterminated_string() {
        assert!(lex("\"abc").is_err());
    }

    #[test]
    fn error_on_bad_char() {
        assert!(lex("x # y").is_err());
    }

    #[test]
    fn located_name_tokens() {
        assert_eq!(
            toks("server.applet"),
            vec![
                Tok::LowerId("server"),
                Tok::Dot,
                Tok::LowerId("applet"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn primes_in_identifiers() {
        assert_eq!(
            toks("x' x''"),
            vec![Tok::LowerId("x'"), Tok::LowerId("x''"), Tok::Eof]
        );
    }
}
