//! Tokens and source positions for the `sct` assembly language.

use std::fmt;

/// A position in the source text (1-based line and column).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl Pos {
    /// The start of the file.
    pub const START: Pos = Pos { line: 1, col: 1 };
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A lexical token. Names borrow from the source text.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Token<'a> {
    /// An identifier: instruction mnemonic, register, or label name.
    Ident(&'a str),
    /// An integer literal (decimal or `0x` hexadecimal).
    Number(u64),
    /// A dot-directive such as `.entry`, `.reg`, `.public`, `.secret`
    /// (the name without its dot).
    Directive(&'a str),
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `=`
    Equals,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `@` (label annotation on immediates, e.g. `42@sec`)
    At,
    /// End of a line (statements are line-oriented).
    Newline,
    /// End of input.
    Eof,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "identifier `{s}`"),
            Token::Number(n) => write!(f, "number `{n}`"),
            Token::Directive(d) => write!(f, "directive `.{d}`"),
            Token::Colon => write!(f, "`:`"),
            Token::Comma => write!(f, "`,`"),
            Token::Equals => write!(f, "`=`"),
            Token::LBracket => write!(f, "`[`"),
            Token::RBracket => write!(f, "`]`"),
            Token::LParen => write!(f, "`(`"),
            Token::RParen => write!(f, "`)`"),
            Token::At => write!(f, "`@`"),
            Token::Newline => write!(f, "end of line"),
            Token::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source position.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Spanned<'a> {
    /// The token.
    pub token: Token<'a>,
    /// Where it starts.
    pub pos: Pos,
}
