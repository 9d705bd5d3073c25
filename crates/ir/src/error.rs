//! Error types for IR construction, validation and parsing.

use crate::types::{BitRange, OpId, ValueId};
use std::fmt;

/// Errors produced while building or validating a specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IrError {
    /// An operand references a value id that does not exist in the spec.
    UnknownValue(ValueId),
    /// An operand slice reaches outside the referenced value.
    RangeOutOfBounds {
        /// The referencing operation.
        op: OpId,
        /// The referenced value.
        value: ValueId,
        /// The offending range.
        range: BitRange,
        /// Width of the referenced value.
        value_width: u32,
    },
    /// The number of operands does not match the operation kind's arity.
    BadArity {
        /// The offending operation.
        op: OpId,
        /// Mnemonic of the operation kind.
        kind: &'static str,
        /// Number of operands supplied.
        got: usize,
        /// Acceptable operand count range.
        expected: (usize, usize),
    },
    /// An operation constraint on widths was violated (e.g. a carry-in that
    /// is not one bit wide, or a concat whose width is not the operand sum).
    WidthMismatch {
        /// The offending operation.
        op: OpId,
        /// Description of the violated constraint.
        reason: String,
    },
    /// An operation has a zero result width.
    ZeroWidth(OpId),
    /// An input port has zero width.
    ZeroWidthInput(String),
    /// Two ports share the same name.
    DuplicatePort(String),
    /// An output port references an unknown or invalid operand.
    BadOutput {
        /// Name of the output port.
        port: String,
        /// Description of the problem.
        reason: String,
    },
    /// The specification has no output ports, so it computes nothing.
    NoOutputs,
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::UnknownValue(v) => write!(f, "operand references unknown value {v}"),
            IrError::RangeOutOfBounds { op, value, range, value_width } => write!(
                f,
                "operation {op} slices {value}{range} but the value is only {value_width} bits wide"
            ),
            IrError::BadArity { op, kind, got, expected } => {
                if expected.0 == expected.1 {
                    write!(f, "operation {op} ({kind}) takes {} operands, got {got}", expected.0)
                } else {
                    write!(
                        f,
                        "operation {op} ({kind}) takes {}..={} operands, got {got}",
                        expected.0, expected.1
                    )
                }
            }
            IrError::WidthMismatch { op, reason } => {
                write!(f, "operation {op} has inconsistent widths: {reason}")
            }
            IrError::ZeroWidth(op) => write!(f, "operation {op} has zero result width"),
            IrError::ZeroWidthInput(name) => write!(f, "input `{name}` has zero width"),
            IrError::DuplicatePort(name) => write!(f, "duplicate port name `{name}`"),
            IrError::BadOutput { port, reason } => {
                write!(f, "output `{port}` is invalid: {reason}")
            }
            IrError::NoOutputs => write!(f, "specification has no outputs"),
        }
    }
}

impl std::error::Error for IrError {}

/// Errors produced by the textual specification parser.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl ParseError {
    pub(crate) fn new(line: usize, col: usize, message: impl Into<String>) -> Self {
        ParseError { line, col, message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<IrError> for ParseError {
    fn from(e: IrError) -> Self {
        ParseError::new(0, 0, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{OpId, ValueId};

    #[test]
    fn display_messages() {
        let e = IrError::UnknownValue(ValueId::from_index(4));
        assert!(e.to_string().contains("v4"));
        let e =
            IrError::BadArity { op: OpId::from_index(1), kind: "mux", got: 2, expected: (3, 3) };
        assert!(e.to_string().contains("takes 3 operands, got 2"));
        let e =
            IrError::BadArity { op: OpId::from_index(1), kind: "add", got: 5, expected: (2, 3) };
        assert!(e.to_string().contains("2..=3"));
        let p = ParseError::new(3, 7, "expected `;`");
        assert_eq!(p.to_string(), "parse error at 3:7: expected `;`");
    }
}
