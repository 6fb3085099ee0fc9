//! A hand-written, line-oriented lexer.

use crate::error::AsmError;
use crate::token::{Pos, Spanned, Token};

/// Lex the whole source into tokens (with a trailing [`Token::Eof`]).
/// Identifiers and directive names borrow from `src`.
///
/// Comments run from `;` or `#` to end of line. Newlines are significant
/// (statements are line-oriented) and consecutive newlines collapse.
/// Columns count characters, not bytes.
///
/// # Errors
///
/// Returns [`AsmError::UnexpectedChar`] or [`AsmError::BadNumber`] with
/// the offending position.
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>, AsmError> {
    let bytes = src.as_bytes();
    let mut out: Vec<Spanned<'_>> = Vec::with_capacity(src.len() / 4);
    let (mut i, mut line, mut col) = (0usize, 1u32, 1u32);
    // The end of the `[A-Za-z0-9_]*` run starting at `from`.
    let word_end = |from: usize| {
        bytes[from..]
            .iter()
            .position(|b| !(b.is_ascii_alphanumeric() || *b == b'_'))
            .map_or(bytes.len(), |k| from + k)
    };
    let after_newline = |out: &[Spanned<'_>]| {
        matches!(
            out.last(),
            None | Some(Spanned {
                token: Token::Newline,
                ..
            })
        )
    };

    while let Some(&c) = bytes.get(i) {
        let pos = Pos { line, col };
        let (token, end) = match c {
            b'\n' => {
                i += 1;
                line += 1;
                col = 1;
                if !after_newline(&out) {
                    out.push(Spanned {
                        token: Token::Newline,
                        pos,
                    });
                }
                continue;
            }
            b' ' | b'\t' | b'\r' => {
                i += 1;
                col += 1;
                continue;
            }
            b';' | b'#' => {
                let end = bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |k| i + k);
                col += src[i..end].chars().count() as u32;
                i = end;
                continue;
            }
            b':' => (Token::Colon, i + 1),
            b',' => (Token::Comma, i + 1),
            b'=' => (Token::Equals, i + 1),
            b'[' => (Token::LBracket, i + 1),
            b']' => (Token::RBracket, i + 1),
            b'(' => (Token::LParen, i + 1),
            b')' => (Token::RParen, i + 1),
            b'@' => (Token::At, i + 1),
            b'.' => {
                let end = word_end(i + 1);
                if end == i + 1 {
                    return Err(AsmError::UnexpectedChar { ch: '.', pos });
                }
                (Token::Directive(&src[i + 1..end]), end)
            }
            b'0'..=b'9' => {
                let end = word_end(i);
                let text = &src[i..end];
                let cleaned;
                let digits = if text.contains('_') {
                    cleaned = text.replace('_', "");
                    &cleaned
                } else {
                    text
                };
                let value = match digits
                    .strip_prefix("0x")
                    .or_else(|| digits.strip_prefix("0X"))
                {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => digits.parse::<u64>(),
                };
                match value {
                    Ok(n) => (Token::Number(n), end),
                    Err(_) => {
                        return Err(AsmError::BadNumber {
                            text: text.to_string(),
                            pos,
                        })
                    }
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let end = word_end(i);
                (Token::Ident(&src[i..end]), end)
            }
            _ => {
                let ch = src[i..].chars().next().expect("`i` is on a char boundary");
                return Err(AsmError::UnexpectedChar { ch, pos });
            }
        };
        out.push(Spanned { token, pos });
        col += (end - i) as u32;
        i = end;
    }
    let end = Pos { line, col };
    if !after_newline(&out) {
        out.push(Spanned {
            token: Token::Newline,
            pos: end,
        });
    }
    out.push(Spanned {
        token: Token::Eof,
        pos: end,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lexes_basic_instruction() {
        assert_eq!(
            toks("rb = load [0x40, ra]"),
            vec![
                Token::Ident("rb"),
                Token::Equals,
                Token::Ident("load"),
                Token::LBracket,
                Token::Number(0x40),
                Token::Comma,
                Token::Ident("ra"),
                Token::RBracket,
                Token::Newline,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn comments_and_blank_lines_collapse() {
        let t = toks("; header\n\n\nfoo: ; trailing\n\nret\n");
        assert_eq!(
            t,
            vec![
                Token::Ident("foo"),
                Token::Colon,
                Token::Newline,
                Token::Ident("ret"),
                Token::Newline,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn numbers_decimal_hex_underscore() {
        assert_eq!(
            toks("1 0x2A 1_000"),
            vec![
                Token::Number(1),
                Token::Number(0x2a),
                Token::Number(1000),
                Token::Newline,
                Token::Eof
            ]
        );
    }

    #[test]
    fn directives_and_annotations() {
        assert_eq!(
            toks(".secret 0x48 = 7@sec"),
            vec![
                Token::Directive("secret"),
                Token::Number(0x48),
                Token::Equals,
                Token::Number(7),
                Token::At,
                Token::Ident("sec"),
                Token::Newline,
                Token::Eof
            ]
        );
    }

    #[test]
    fn bad_number_reports_position() {
        let err = lex("  0xZZ").unwrap_err();
        assert_eq!(err.pos().col, 3);
        assert!(matches!(err, AsmError::BadNumber { .. }));
    }

    #[test]
    fn unexpected_char_reports_position() {
        let err = lex("ra $ rb").unwrap_err();
        assert!(matches!(err, AsmError::UnexpectedChar { ch: '$', .. }));
    }

    #[test]
    fn positions_track_lines() {
        let spanned = lex("a\nbb\n  c").unwrap();
        let c = spanned
            .iter()
            .find(|s| s.token == Token::Ident("c"))
            .unwrap();
        assert_eq!(c.pos.line, 3);
        assert_eq!(c.pos.col, 3);
    }
}
