//! # bittrans-sched
//!
//! Schedulers for the `bittrans` workspace.
//!
//! Two families:
//!
//! * [`conventional`] — the **baseline**: a chaining-aware, time-constrained
//!   list scheduler treating operations as atomic (they must fit entirely
//!   within one clock cycle). This plays the role of Synopsys Behavioral
//!   Compiler in the paper's experiments: it schedules the *original*
//!   specification, and its minimal feasible cycle length is the
//!   "Original" column of Tables II/III. One chaining rule,
//!   [`conventional::Chaining`], picks summed component delays or
//!   bit-level ripple overlap, and one ASAP pass both finds that cycle and
//!   is the schedule's fallback.
//! * [`fragment`] — the scheduler for **fragmented** specifications
//!   (`bittrans-frag`): a list scheduler that places each fragment within
//!   its `[ASAP, ALAP]` mobility window, balances the number of additions
//!   per cycle (the paper's Fig. 3 g), honours carry-chain and operand
//!   dependencies, and verifies bit-exact cycle capacity under the ripple
//!   model.
//!
//! Both place operations with one crate-private, bit-exact placer and
//! produce a [`Schedule`]: an assignment of every operation to a 1-based
//! cycle.
//!
//! ```
//! use bittrans_ir::prelude::*;
//! use bittrans_sched::conventional::{schedule_conventional, ConventionalOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = Spec::parse(
//!     "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
//!       C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
//! )?;
//! // One 16-bit addition per cycle: the paper's Fig. 1 b).
//! let s = schedule_conventional(&spec, &ConventionalOptions::with_latency(3))?;
//! assert_eq!(s.cycle, 16);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conventional;
mod engine;
pub mod fragment;

use bittrans_ir::prelude::*;
use bittrans_timing::{is_zero_delay, Delta};
use std::collections::BTreeMap;
use std::fmt;

/// An assignment of operations to clock cycles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Number of cycles (λ).
    pub latency: u32,
    /// Cycle duration in δ.
    pub cycle: Delta,
    assignment: BTreeMap<OpId, u32>,
}

impl Schedule {
    /// Creates a schedule from an explicit assignment.
    ///
    /// # Panics
    ///
    /// Panics if any assigned cycle is outside `1..=latency`.
    pub fn new(latency: u32, cycle: Delta, assignment: BTreeMap<OpId, u32>) -> Self {
        for (&op, &k) in &assignment {
            assert!(
                (1..=latency).contains(&k),
                "{op} scheduled in cycle {k}, outside 1..={latency}"
            );
        }
        Schedule { latency, cycle, assignment }
    }

    /// The cycle an operation executes in (1-based).
    pub fn cycle_of(&self, op: OpId) -> Option<u32> {
        self.assignment.get(&op).copied()
    }

    /// All operations assigned to cycle `k`.
    pub fn ops_in_cycle(&self, k: u32) -> impl Iterator<Item = OpId> + '_ {
        self.assignment.iter().filter(move |&(_, &c)| c == k).map(|(&op, _)| op)
    }

    /// Iterates over `(op, cycle)` pairs in op order.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, u32)> + '_ {
        self.assignment.iter().map(|(&op, &c)| (op, c))
    }

    /// Number of scheduled operations.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Renders a compact per-cycle listing (for examples and debugging).
    pub fn render(&self, spec: &Spec) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for k in 1..=self.latency {
            let mut names: Vec<String> = self
                .ops_in_cycle(k)
                .filter(|&op| !spec.op(op).kind().is_glue())
                .map(|op| spec.op(op).label())
                .collect();
            names.sort();
            let _ = writeln!(out, "cycle {k}: {}", names.join(" "));
        }
        out
    }
}

/// Errors raised by the schedulers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedError {
    /// The schedule needs more cycles than the requested latency.
    LatencyExceeded {
        /// Cycles the schedule would need.
        needed: u32,
        /// The latency requested.
        latency: u32,
    },
    /// A fragment could not be placed inside its mobility window.
    NoFeasibleCycle {
        /// The fragment operation (in the fragmented spec).
        op: OpId,
        /// Window searched.
        window: (u32, u32),
    },
    /// Latency was zero.
    ZeroLatency,
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::LatencyExceeded { needed, latency } => {
                write!(f, "schedule needs {needed} cycles but latency is {latency}")
            }
            SchedError::NoFeasibleCycle { op, window } => write!(
                f,
                "no feasible cycle for fragment {op} in window {}..={}",
                window.0, window.1
            ),
            SchedError::ZeroLatency => write!(f, "latency must be at least one cycle"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Moves every glue operation's bookkeeping cycle to the cycle of its
/// *earliest consumer* (glue is computed lazily where it is first needed;
/// results crossing later cycle boundaries get registered by allocation).
/// Glue feeding only output ports keeps its producer-derived cycle.
///
/// Both schedulers run this after placement; it does not affect timing —
/// the placers treat glue as transparent wiring — only the allocation
/// bookkeeping downstream.
pub fn finalize_glue_cycles(spec: &Spec, assignment: &mut BTreeMap<OpId, u32>) {
    let users = spec.users();
    // Backward: pull each glue op to its earliest consumer.
    for op in spec.ops().iter().rev() {
        if !is_zero_delay(op.kind()) {
            continue;
        }
        let earliest = users
            .get(&op.result())
            .into_iter()
            .flatten()
            .filter_map(|&(u, _)| assignment.get(&u).copied())
            .min();
        if let Some(k) = earliest {
            assignment.insert(op.id(), k);
        }
    }
    // Forward: a glue op cannot compute before its producers' cycles.
    for op in spec.ops() {
        if !is_zero_delay(op.kind()) {
            continue;
        }
        let lower = op
            .operands()
            .iter()
            .filter_map(|o| o.value_id())
            .filter_map(|v| spec.value(v).defining_op())
            .filter_map(|d| assignment.get(&d).copied())
            .max()
            .unwrap_or(1);
        let k = assignment.get(&op.id()).copied().unwrap_or(lower);
        assignment.insert(op.id(), k.max(lower));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_accessors() {
        let mut m = BTreeMap::new();
        m.insert(OpId::from_index(0), 1);
        m.insert(OpId::from_index(1), 2);
        m.insert(OpId::from_index(2), 2);
        let s = Schedule::new(3, 6, m);
        assert_eq!(s.cycle_of(OpId::from_index(0)), Some(1));
        assert_eq!(s.cycle_of(OpId::from_index(9)), None);
        assert_eq!(s.ops_in_cycle(2).count(), 2);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn schedule_validates_range() {
        let mut m = BTreeMap::new();
        m.insert(OpId::from_index(0), 4);
        Schedule::new(3, 6, m);
    }

    #[test]
    fn render_lists_cycles() {
        let spec =
            Spec::parse("spec s { input a: u4; input b: u4; X: u4 = a + b; output X; }").unwrap();
        let mut m = BTreeMap::new();
        m.insert(spec.ops()[0].id(), 1);
        let s = Schedule::new(2, 4, m);
        let text = s.render(&spec);
        assert!(text.contains("cycle 1: X"));
        assert!(text.contains("cycle 2: "));
    }
}
