//! Recursive-descent parser for the line-oriented assembly syntax.
//!
//! ```text
//! .entry start
//! .reg ra = 9
//! .secret 0x48 = 0x11, 0x22, 0x33, 0x44
//! .public 0x40 = 1, 0, 2, 1
//!
//! start:
//!     br gt(4, ra), then, out
//! then:
//!     rb = load [0x40, ra]
//!     rc = load [0x44, rb]
//! out:
//!     rd = add ra, 4
//!     store rd, [0x40, ra]
//!     fence
//! ```

use crate::ast::{File, Item, OperandAst, StmtKind};
use crate::error::AsmError;
use crate::lexer::lex;
use crate::token::{Pos, Spanned, Token};
use sct_core::{Label, Reg};

/// Parse a whole source file.
///
/// # Errors
///
/// Returns the first lexical or syntactic error with its position.
pub fn parse(src: &str) -> Result<File, AsmError> {
    let tokens = lex(src)?;
    Parser {
        tokens,
        index: 0,
    }
    .file()
}

struct Parser<'a> {
    tokens: Vec<Spanned<'a>>,
    index: usize,
}

/// The error for finding `t` where the parser expected `expected`.
fn unexpected(t: Spanned<'_>, expected: &'static str) -> AsmError {
    AsmError::UnexpectedToken {
        found: t.token.to_string(),
        expected,
        pos: t.pos,
    }
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Spanned<'a> {
        self.tokens[self.index.min(self.tokens.len() - 1)]
    }

    fn next(&mut self) -> Spanned<'a> {
        let t = self.peek();
        if self.index < self.tokens.len() - 1 {
            self.index += 1;
        }
        t
    }

    fn expect(&mut self, want: Token<'_>, expected: &'static str) -> Result<Pos, AsmError> {
        let t = self.next();
        if t.token == want {
            Ok(t.pos)
        } else {
            Err(unexpected(t, expected))
        }
    }

    fn expect_ident(&mut self, expected: &'static str) -> Result<(&'a str, Pos), AsmError> {
        let t = self.next();
        match t.token {
            Token::Ident(s) => Ok((s, t.pos)),
            _ => Err(unexpected(t, expected)),
        }
    }

    fn expect_number(&mut self, expected: &'static str) -> Result<(u64, Pos), AsmError> {
        let t = self.next();
        match t.token {
            Token::Number(n) => Ok((n, t.pos)),
            _ => Err(unexpected(t, expected)),
        }
    }

    fn eat(&mut self, tok: Token<'_>) -> bool {
        if self.peek().token == tok {
            self.next();
            true
        } else {
            false
        }
    }

    fn end_of_line(&mut self) -> Result<(), AsmError> {
        let t = self.next();
        match t.token {
            Token::Newline | Token::Eof => Ok(()),
            _ => Err(unexpected(t, "end of line")),
        }
    }

    fn file(mut self) -> Result<File, AsmError> {
        let mut items = Vec::new();
        loop {
            match self.peek().token {
                Token::Eof => break,
                Token::Newline => {
                    self.next();
                }
                Token::Directive(_) => {
                    self.directive(&mut items)?;
                    self.end_of_line()?;
                }
                _ => {
                    self.line(&mut items)?;
                }
            }
        }
        Ok(File { items })
    }

    /// A code line: zero or more `label:` prefixes, then an optional
    /// statement.
    fn line(&mut self, items: &mut Vec<Item>) -> Result<(), AsmError> {
        loop {
            // Lookahead: `ident :` is a label definition.
            if let Token::Ident(name) = self.peek().token {
                if self.tokens.get(self.index + 1).map(|s| s.token) == Some(Token::Colon) {
                    let pos = self.next().pos; // ident
                    self.next(); // colon
                    items.push(Item::LabelDef { name: name.to_string(), pos });
                    continue;
                }
            }
            break;
        }
        if matches!(self.peek().token, Token::Newline | Token::Eof) {
            self.end_of_line()?;
            return Ok(());
        }
        let (kind, pos) = self.statement()?;
        items.push(Item::Stmt { kind, pos });
        self.end_of_line()
    }

    fn directive(&mut self, items: &mut Vec<Item>) -> Result<(), AsmError> {
        let t = self.next();
        let Token::Directive(name) = t.token else {
            unreachable!()
        };
        let pos = t.pos;
        match name {
            "entry" => {
                let (label, _) = self.expect_ident("entry label")?;
                items.push(Item::Entry { name: label.to_string(), pos });
            }
            "reg" => {
                let (reg, rpos) = self.expect_ident("register name")?;
                if Reg::parse(reg).is_none() {
                    return Err(AsmError::UnknownRegister {
                        name: reg.to_string(),
                        pos: rpos,
                    });
                }
                self.expect(Token::Equals, "`=`")?;
                let (value, label) = self.labeled_number(Label::Public)?;
                items.push(Item::RegInit {
                    name: reg.to_string(),
                    value,
                    label,
                    pos,
                });
            }
            "public" | "secret" | "mem" => {
                let default = match name {
                    "secret" => Label::Secret,
                    _ => Label::Public,
                };
                let (base, _) = self.expect_number("base address")?;
                self.expect(Token::Equals, "`=`")?;
                let mut values = Vec::new();
                loop {
                    let (v, l) = self.labeled_number(default)?;
                    values.push((v, l));
                    if !self.eat(Token::Comma) {
                        break;
                    }
                }
                items.push(Item::MemInit { base, values, pos });
            }
            other => {
                return Err(AsmError::UnknownMnemonic {
                    name: format!(".{other}"),
                    pos,
                })
            }
        }
        Ok(())
    }

    /// `NUMBER [@pub|@sec]`, with a default label.
    fn labeled_number(&mut self, default: Label) -> Result<(u64, Label), AsmError> {
        let (value, _) = self.expect_number("number")?;
        Ok((value, self.value_label(default)?))
    }

    /// An optional `@pub` / `@sec` annotation, else `default`.
    fn value_label(&mut self, default: Label) -> Result<Label, AsmError> {
        if !self.eat(Token::At) {
            return Ok(default);
        }
        match self.expect_ident("`pub` or `sec`")? {
            ("pub", _) => Ok(Label::Public),
            ("sec", _) => Ok(Label::Secret),
            (name, pos) => Err(AsmError::UnknownValueLabel { name: name.to_string(), pos }),
        }
    }

    fn operand(&mut self) -> Result<OperandAst, AsmError> {
        let t = self.next();
        match t.token {
            Token::Number(n) => Ok(OperandAst::Num(n, self.value_label(Label::Public)?, t.pos)),
            Token::Ident(name) if Reg::parse(name).is_some() => {
                Ok(OperandAst::Reg(name.to_string(), t.pos))
            }
            Token::Ident(name) => Ok(OperandAst::LabelRef(name.to_string(), t.pos)),
            _ => Err(unexpected(t, "operand (number, register, or label)")),
        }
    }

    fn operand_list(&mut self, close: Token<'_>) -> Result<Vec<OperandAst>, AsmError> {
        let mut out = Vec::new();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(self.operand()?);
            if self.eat(Token::Comma) {
                continue;
            }
            let t = self.next();
            if t.token == close {
                return Ok(out);
            }
            return Err(unexpected(t, "`,` or closing bracket"));
        }
    }

    fn bracketed_operands(&mut self) -> Result<Vec<OperandAst>, AsmError> {
        self.expect(Token::LBracket, "`[`")?;
        self.operand_list(Token::RBracket)
    }

    fn statement(&mut self) -> Result<(StmtKind, Pos), AsmError> {
        let t = self.next();
        let pos = t.pos;
        let Token::Ident(head) = t.token else {
            return Err(unexpected(t, "instruction"));
        };

        // `rd = ...` assignment forms.
        if Reg::parse(head).is_some() && self.peek().token == Token::Equals {
            self.next(); // `=`
            let (mnemonic, mpos) = self.expect_ident("opcode or `load`")?;
            let dst = head.to_string();
            if mnemonic == "load" {
                let addr = self.bracketed_operands()?;
                return Ok((StmtKind::Load { dst, addr }, pos));
            }
            if sct_core::OpCode::parse(mnemonic).is_none() {
                return Err(AsmError::UnknownMnemonic {
                    name: mnemonic.to_string(),
                    pos: mpos,
                });
            }
            let mut args = Vec::new();
            if !matches!(self.peek().token, Token::Newline | Token::Eof) {
                loop {
                    args.push(self.operand()?);
                    if !self.eat(Token::Comma) {
                        break;
                    }
                }
            }
            let mnemonic = mnemonic.to_string();
            return Ok((StmtKind::OpAssign { dst, mnemonic, args }, pos));
        }

        match head {
            "store" => {
                let src = self.operand()?;
                self.expect(Token::Comma, "`,`")?;
                let addr = self.bracketed_operands()?;
                Ok((StmtKind::Store { src, addr }, pos))
            }
            "br" => {
                let (mnemonic, mpos) = self.expect_ident("boolean opcode")?;
                match sct_core::OpCode::parse(mnemonic) {
                    Some(op) if op.is_boolean() => {}
                    _ => {
                        return Err(AsmError::Invalid {
                            reason: format!("`{mnemonic}` is not a boolean opcode"),
                            pos: mpos,
                        })
                    }
                }
                self.expect(Token::LParen, "`(`")?;
                let args = self.operand_list(Token::RParen)?;
                self.expect(Token::Comma, "`,`")?;
                let (tru, _) = self.expect_ident("true-branch label")?;
                self.expect(Token::Comma, "`,`")?;
                let (fls, _) = self.expect_ident("false-branch label")?;
                Ok((
                    StmtKind::Br {
                        mnemonic: mnemonic.to_string(),
                        args,
                        tru: tru.to_string(),
                        fls: fls.to_string(),
                    },
                    pos,
                ))
            }
            "jmp" => {
                let (target, _) = self.expect_ident("target label")?;
                Ok((StmtKind::Jmp { target: target.to_string() }, pos))
            }
            "jmpi" => {
                let args = self.bracketed_operands()?;
                Ok((StmtKind::Jmpi { args }, pos))
            }
            "call" => {
                let (target, _) = self.expect_ident("callee label")?;
                Ok((StmtKind::Call { target: target.to_string() }, pos))
            }
            "ret" => Ok((StmtKind::Ret, pos)),
            "fence" => Ok((StmtKind::Fence, pos)),
            other => Err(AsmError::UnknownMnemonic {
                name: other.to_string(),
                pos,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig1_shape() {
        let f = parse(
            "\
.entry start
.reg ra = 9
.public 0x40 = 1, 0, 2, 1
.secret 0x48 = 0x11, 0x22

start:
    br gt(4, ra), then, out
then:
    rb = load [0x40, ra]
    rc = load [0x44, rb]
out:
",
        )
        .unwrap();
        assert_eq!(f.items.len(), 10);
        assert!(matches!(&f.items[0], Item::Entry { name, .. } if name == "start"));
        assert!(matches!(
            &f.items[5],
            Item::Stmt {
                kind: StmtKind::Br { .. },
                ..
            }
        ));
    }

    #[test]
    fn parses_all_statement_forms() {
        let f = parse(
            "\
l:
    ra = add rb, 4
    ra = load [0x40]
    store ra, [0x40, rb]
    br lt(ra, rb), l, l
    jmp l
    jmpi [12, rb]
    call l
    ret
    fence
    ra = mov 7@sec
",
        )
        .unwrap();
        let stmts = f
            .items
            .iter()
            .filter(|i| matches!(i, Item::Stmt { .. }))
            .count();
        assert_eq!(stmts, 10);
    }

    #[test]
    fn rejects_non_boolean_branch_opcode() {
        let err = parse("x: br add(1, 2), x, x").unwrap_err();
        assert!(matches!(err, AsmError::Invalid { .. }), "{err}");
    }

    #[test]
    fn rejects_unknown_mnemonic() {
        let err = parse("bogus ra, rb").unwrap_err();
        assert!(matches!(err, AsmError::UnknownMnemonic { .. }));
    }

    #[test]
    fn rejects_unknown_register_in_reg_init() {
        let err = parse(".reg zz = 4").unwrap_err();
        assert!(matches!(err, AsmError::UnknownRegister { .. }));
    }

    #[test]
    fn rejects_bad_value_label() {
        let err = parse(".reg ra = 4@top").unwrap_err();
        assert!(matches!(err, AsmError::UnknownValueLabel { .. }));
    }

    #[test]
    fn label_and_statement_on_one_line() {
        let f = parse("a: b: ret").unwrap();
        assert_eq!(f.items.len(), 3);
    }

    #[test]
    fn operands_distinguish_registers_and_labels() {
        let f = parse("x: jmpi [ra, x, 4]").unwrap();
        let Item::Stmt {
            kind: StmtKind::Jmpi { args },
            ..
        } = &f.items[1]
        else {
            panic!()
        };
        assert!(matches!(args[0], OperandAst::Reg(..)));
        assert!(matches!(args[1], OperandAst::LabelRef(..)));
        assert!(matches!(args[2], OperandAst::Num(..)));
    }
}
