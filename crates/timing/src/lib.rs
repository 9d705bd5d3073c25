//! # bittrans-timing
//!
//! Bit-level timing under the paper's ripple model, critical-path analysis,
//! and clock-cycle estimation (§3.2 of Ruiz-Sautua et al., DATE 2005).
//!
//! All delays are measured in **δ units** — the delay of one 1-bit full
//! adder — exactly as the paper does. The ripple model says that bit `i` of
//! an addition `z = a + b` becomes available at
//!
//! ```text
//! t(z[i]) = max(t(z[i-1]), t(a[i]), t(b[i])) + 1
//! ```
//!
//! which captures the *inherent parallelism of chained additions*: a
//! data-dependent successor may start consuming low result bits while high
//! bits are still rippling (the paper's Fig. 1 e).
//!
//! The crate offers:
//!
//! * [`arrival::settle_times`] — the one forward statement of that rule, for
//!   every op kind; arrival times, the scheduler's bit-level placer and
//!   standalone op delays all time operations through it;
//! * [`arrival::arrival_times`] — forward per-bit ASAP arrival times;
//! * [`required::required_times`] — backward per-bit ALAP required times;
//! * [`path::path_walk_time`] — the paper's §3.2 linear path algorithm,
//!   implemented verbatim;
//! * [`path::critical_path`] — DFG-wide critical path in δ;
//! * [`bitref::glue_wires`] — the one wiring table of glue: which value
//!   bits each output bit of a glue, `Eq`/`Ne` or reduction op reads, as
//!   spans of three kinds: `Aligned` (a run of output bits reads a run of
//!   source bits), `Broadcast` (a run reads one source bit: sign extension,
//!   a mux select) and `Reduce` (output bit 0 reads a run). Every bit-level
//!   pass, here and downstream, reads it through the row kernels
//!   [`bitref::gather_max`] (forward) and [`bitref::scatter`] (backward);
//! * [`bitref::AddProfile::settle`] — the refined ripple rule of one sum
//!   bit, which [`arrival::settle_times`] applies to additions;
//! * [`table::BitTable`] — the dense per-bit table (one flat `Vec`, a
//!   start offset per value) every bit-level pass keeps its state in;
//! * [`is_zero_delay`] — which operation kinds take no δ;
//! * [`model`] — cycle estimation `⌈critical_path / λ⌉` and the calibrated
//!   ns conversion used to report table values.
//!
//! ```
//! use bittrans_ir::prelude::*;
//! use bittrans_timing::path::critical_path;
//! use bittrans_timing::model::estimate_cycle;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Three chained 16-bit additions: the paper's Fig. 1 shows the whole
//! // chain takes 18 chained 1-bit additions, not 48.
//! let spec = Spec::parse(
//!     "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
//!       C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
//! )?;
//! assert_eq!(critical_path(&spec), 18);
//! assert_eq!(estimate_cycle(&spec, 3), 6); // ⌈18 / 3⌉ = 6δ cycles
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod bitref;
pub mod model;
pub mod path;
pub mod required;
pub mod table;

use bittrans_ir::OpKind;

pub use arrival::{arrival_times, settle_times, BitTimes};
pub use model::{estimate_cycle, estimate_cycle_from_path, TimingModel};
pub use path::{critical_path, op_delay_delta, path_walk_time, PathStep};
pub use required::required_times;
pub use table::BitTable;

/// Delay of one chained 1-bit addition, the paper's unit of time.
///
/// A `Delta` of 18 means "the time 18 chained 1-bit additions take".
pub type Delta = u32;

/// `true` for the kinds that take no δ: glue and `Eq`/`Ne`, each of whose
/// result bits settles with the latest bit it reads.
pub fn is_zero_delay(kind: OpKind) -> bool {
    kind.is_glue() || matches!(kind, OpKind::Eq | OpKind::Ne)
}
