//! Assembly errors with source positions.

use crate::token::Pos;
use std::fmt;

/// An error produced while lexing, parsing, or assembling.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AsmError {
    /// A character the lexer does not understand.
    UnexpectedChar {
        /// The offending character.
        ch: char,
        /// Where it occurred.
        pos: Pos,
    },
    /// A malformed number literal.
    BadNumber {
        /// The literal text.
        text: String,
        /// Where it occurred.
        pos: Pos,
    },
    /// The parser found a token it did not expect.
    UnexpectedToken {
        /// The token found, rendered by [`crate::token::Token`]'s
        /// `Display` (e.g. ``identifier `foo` ``).
        found: String,
        /// What the parser was expecting.
        expected: &'static str,
        /// Where it occurred.
        pos: Pos,
    },
    /// An unknown instruction or opcode mnemonic.
    UnknownMnemonic {
        /// The mnemonic text.
        name: String,
        /// Where it occurred.
        pos: Pos,
    },
    /// An unknown register name.
    UnknownRegister {
        /// The register text.
        name: String,
        /// Where it occurred.
        pos: Pos,
    },
    /// An unknown value-label annotation (only `pub`/`sec` are valid).
    UnknownValueLabel {
        /// The annotation text.
        name: String,
        /// Where it occurred.
        pos: Pos,
    },
    /// A label was used but never defined.
    UndefinedLabel {
        /// The label name.
        name: String,
        /// Where it was referenced.
        pos: Pos,
    },
    /// A label was defined twice.
    DuplicateLabel {
        /// The label name.
        name: String,
        /// Where the second definition occurred.
        pos: Pos,
    },
    /// `.entry` named a label that does not exist, or was given twice.
    BadEntry {
        /// Explanation.
        reason: String,
        /// Where it occurred.
        pos: Pos,
    },
    /// A semantic constraint was violated (e.g. non-boolean branch
    /// opcode, wrong operand count).
    Invalid {
        /// Explanation.
        reason: String,
        /// Where it occurred.
        pos: Pos,
    },
}

impl AsmError {
    /// The source position the error points at.
    pub fn pos(&self) -> Pos {
        match self {
            AsmError::UnexpectedChar { pos, .. }
            | AsmError::BadNumber { pos, .. }
            | AsmError::UnexpectedToken { pos, .. }
            | AsmError::UnknownMnemonic { pos, .. }
            | AsmError::UnknownRegister { pos, .. }
            | AsmError::UnknownValueLabel { pos, .. }
            | AsmError::UndefinedLabel { pos, .. }
            | AsmError::DuplicateLabel { pos, .. }
            | AsmError::BadEntry { pos, .. }
            | AsmError::Invalid { pos, .. } => *pos,
        }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnexpectedChar { ch, pos } => {
                write!(f, "{pos}: unexpected character `{ch}`")
            }
            AsmError::BadNumber { text, pos } => {
                write!(f, "{pos}: malformed number `{text}`")
            }
            AsmError::UnexpectedToken {
                found,
                expected,
                pos,
            } => write!(f, "{pos}: expected {expected}, found {found}"),
            AsmError::UnknownMnemonic { name, pos } => {
                write!(f, "{pos}: unknown mnemonic `{name}`")
            }
            AsmError::UnknownRegister { name, pos } => {
                write!(f, "{pos}: unknown register `{name}`")
            }
            AsmError::UnknownValueLabel { name, pos } => {
                write!(f, "{pos}: unknown value label `@{name}` (use `pub` or `sec`)")
            }
            AsmError::UndefinedLabel { name, pos } => {
                write!(f, "{pos}: undefined label `{name}`")
            }
            AsmError::DuplicateLabel { name, pos } => {
                write!(f, "{pos}: duplicate label `{name}`")
            }
            AsmError::BadEntry { reason, pos } => write!(f, "{pos}: bad .entry: {reason}"),
            AsmError::Invalid { reason, pos } => write!(f, "{pos}: {reason}"),
        }
    }
}

impl std::error::Error for AsmError {}
