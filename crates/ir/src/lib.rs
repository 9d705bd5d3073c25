//! # bittrans-ir
//!
//! Bit-accurate behavioural intermediate representation for the `bittrans`
//! workspace — a reproduction of *"Behavioural Transformation to Improve
//! Circuit Performance in High-Level Synthesis"* (Ruiz-Sautua et al.,
//! DATE 2005).
//!
//! A behavioural specification ([`spec::Spec`]) is a dataflow graph of
//! operations over bit vectors: input ports feed operations (additions,
//! multiplications, comparisons, …), whose results feed further operations
//! and output ports. Operands may reference arbitrary *bit slices* of
//! earlier values — the feature the paper's fragmentation transformation
//! leans on.
//!
//! The crate provides:
//!
//! * [`bits`] — arbitrary-width two's-complement bit vectors;
//! * [`spec`] — the dataflow graph, its builder, and validation;
//! * [`parse`] — a compact textual frontend (VHDL-flavoured);
//! * [`vhdl`] — behavioural VHDL emission in the paper's style.
//!
//! ## Quick example
//!
//! ```
//! use bittrans_ir::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's motivational example: three chained 16-bit additions.
//! let spec = Spec::parse(
//!     "spec example {
//!          input A: u16; input B: u16; input D: u16; input F: u16;
//!          C: u16 = A + B;
//!          E: u16 = C + D;
//!          G: u16 = E + F;
//!          output G;
//!      }",
//! )?;
//! assert!(spec.is_additive_form());
//! assert_eq!(spec.stats().adds, 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod canonical;
pub mod error;
pub mod op;
pub mod operand;
pub mod parse;
pub mod spec;
pub mod types;
pub mod vhdl;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::bits::Bits;
    pub use crate::error::{IrError, ParseError};
    pub use crate::op::{OpKind, Operation};
    pub use crate::operand::Operand;
    pub use crate::spec::{OutputPort, Spec, SpecBuilder, SpecStats, Value, ValueDef};
    pub use crate::types::{BitRange, OpId, Signedness, ValueId};
}

/// Upper bound on a value, type or literal width taken from outside input:
/// DSL sources, canonical documents in study requests. Simulation,
/// fragmentation and allocation all grow with width, and a single
/// `u2000000000` declaration asks for gigabytes, while no design in the
/// paper's range comes near a thousand bits, so a wider value is always a
/// mistyped width or a hostile request. [`Spec::parse`] holds every value
/// it builds to this bound, so a parsed spec always passes the engine's
/// `Study::check`.
pub const MAX_WIDTH: u32 = 1024;

pub use bits::Bits;
pub use canonical::CodecError;
pub use error::{IrError, ParseError};
pub use op::{OpKind, Operation};
pub use operand::Operand;
pub use spec::{OutputPort, Spec, SpecBuilder, SpecStats, Value, ValueDef};
pub use types::{BitRange, OpId, Signedness, ValueId};
