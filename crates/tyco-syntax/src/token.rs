//! Token set of the DiTyCO concrete syntax.

use std::fmt;

/// A lexical token. Identifiers and string literals borrow the source
/// text, so a token is a few words and copying one allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok<'a> {
    // Identifiers and literals.
    /// Lower-case-initial identifier: names, labels, sites.
    LowerId(&'a str),
    /// Upper-case-initial identifier: class variables.
    UpperId(&'a str),
    Int(i64),
    Float(f64),
    /// A string literal: the text between the quotes, its escapes already
    /// checked; [`crate::lexer::unescape`] gives the value.
    Str(&'a str),

    // Keywords.
    KwNew,
    KwDef,
    KwAnd,
    KwIn,
    KwExport,
    KwImport,
    KwFrom,
    KwIf,
    KwThen,
    KwElse,
    KwLet,
    KwTrue,
    KwFalse,
    KwPrint,
    KwPrintln,
    KwUnit,
    KwNot,

    // Punctuation.
    Bang,     // !
    Query,    // ?
    LBracket, // [
    RBracket, // ]
    LParen,   // (
    RParen,   // )
    LBrace,   // {
    RBrace,   // }
    Assign,   // =
    Comma,    // ,
    Bar,      // |
    Dot,      // .

    // Operators (expressions).
    Plus,
    Minus,
    StarOp,
    Slash,
    Percent,
    Caret, // string concatenation
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,

    /// End of input.
    Eof,
}

impl Tok<'_> {
    /// Keyword lookup for an identifier lexeme; `None` when it is a plain
    /// identifier.
    pub fn keyword(s: &str) -> Option<Tok<'static>> {
        Some(match s {
            "new" => Tok::KwNew,
            "def" => Tok::KwDef,
            "and" => Tok::KwAnd,
            "in" => Tok::KwIn,
            "export" => Tok::KwExport,
            "import" => Tok::KwImport,
            "from" => Tok::KwFrom,
            "if" => Tok::KwIf,
            "then" => Tok::KwThen,
            "else" => Tok::KwElse,
            "let" => Tok::KwLet,
            "true" => Tok::KwTrue,
            "false" => Tok::KwFalse,
            "print" => Tok::KwPrint,
            "println" => Tok::KwPrintln,
            "unit" => Tok::KwUnit,
            "not" => Tok::KwNot,
            _ => return None,
        })
    }

    /// A short human-readable description used in parse errors.
    pub fn describe(&self) -> String {
        match self {
            Tok::LowerId(s) => format!("identifier `{s}`"),
            Tok::UpperId(s) => format!("class variable `{s}`"),
            Tok::Int(i) => format!("integer `{i}`"),
            Tok::Float(x) => format!("float `{x}`"),
            Tok::Str(s) => format!("string {:?}", crate::lexer::unescape(s)),
            Tok::Eof => "end of input".to_string(),
            other => format!("`{}`", other.lexeme()),
        }
    }

    /// The concrete lexeme for fixed tokens (empty for variable ones).
    pub fn lexeme(&self) -> &'static str {
        match self {
            Tok::KwNew => "new",
            Tok::KwDef => "def",
            Tok::KwAnd => "and",
            Tok::KwIn => "in",
            Tok::KwExport => "export",
            Tok::KwImport => "import",
            Tok::KwFrom => "from",
            Tok::KwIf => "if",
            Tok::KwThen => "then",
            Tok::KwElse => "else",
            Tok::KwLet => "let",
            Tok::KwTrue => "true",
            Tok::KwFalse => "false",
            Tok::KwPrint => "print",
            Tok::KwPrintln => "println",
            Tok::KwUnit => "unit",
            Tok::KwNot => "not",
            Tok::Bang => "!",
            Tok::Query => "?",
            Tok::LBracket => "[",
            Tok::RBracket => "]",
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::LBrace => "{",
            Tok::RBrace => "}",
            Tok::Assign => "=",
            Tok::Comma => ",",
            Tok::Bar => "|",
            Tok::Dot => ".",
            Tok::Plus => "+",
            Tok::Minus => "-",
            Tok::StarOp => "*",
            Tok::Slash => "/",
            Tok::Percent => "%",
            Tok::Caret => "^",
            Tok::EqEq => "==",
            Tok::NotEq => "!=",
            Tok::Lt => "<",
            Tok::Le => "<=",
            Tok::Gt => ">",
            Tok::Ge => ">=",
            Tok::AndAnd => "&&",
            Tok::OrOr => "||",
            _ => "",
        }
    }
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}
