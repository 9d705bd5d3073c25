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
//! cycle. Placement state is held in dense tables: per op by
//! [`OpId::index`], per cycle, and per bit in one flat
//! [`BitTable`](bittrans_timing::BitTable). [`Schedule::new`] is the one
//! constructor, from any `(op, cycle)` pairs.
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
use std::fmt;

/// An assignment of operations to clock cycles, held densely: the cycle
/// of every operation by [`OpId::index`], 0 for an operation that is not
/// scheduled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Number of cycles (λ).
    pub latency: u32,
    /// Cycle duration in δ.
    pub cycle: Delta,
    /// Cycle per op index; ends at the last scheduled op, so equal
    /// assignments have equal tables.
    cycles: Vec<u32>,
}

impl Schedule {
    /// Creates a schedule from an explicit assignment of operations to
    /// cycles (any order; a repeated op keeps its last cycle).
    ///
    /// # Panics
    ///
    /// Panics if any assigned cycle is outside `1..=latency`.
    pub fn new(
        latency: u32,
        cycle: Delta,
        assignment: impl IntoIterator<Item = (OpId, u32)>,
    ) -> Self {
        let mut cycles = Vec::new();
        for (op, k) in assignment {
            assert!(
                (1..=latency).contains(&k),
                "{op} scheduled in cycle {k}, outside 1..={latency}"
            );
            let i = op.index();
            if cycles.len() <= i {
                cycles.resize(i + 1, 0);
            }
            cycles[i] = k;
        }
        Schedule { latency, cycle, cycles }
    }

    /// The cycle an operation executes in (1-based).
    pub fn cycle_of(&self, op: OpId) -> Option<u32> {
        self.cycles.get(op.index()).copied().filter(|&k| k != 0)
    }

    /// All operations assigned to cycle `k`, in op order.
    pub fn ops_in_cycle(&self, k: u32) -> impl Iterator<Item = OpId> + '_ {
        self.iter().filter(move |&(_, c)| c == k).map(|(op, _)| op)
    }

    /// Iterates over `(op, cycle)` pairs in op order.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, u32)> + '_ {
        self.cycles
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k != 0)
            .map(|(i, &k)| (OpId::from_index(i), k))
    }

    /// Number of scheduled operations.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
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
/// `assignment` is the placer's table: the cycle of every op by index, 0
/// for an op not placed. One reverse pass visits each op after all its
/// consumers, so its cycle is final when visited: a glue op takes the
/// pending minimum of its consumers' cycles, and every op then lowers the
/// pending minimum of the ops defining its operands. A forward pass lifts
/// each glue op to its producers' latest cycle.
///
/// Both schedulers run this after placement; it does not affect timing —
/// the placers treat glue as transparent wiring — only the allocation
/// bookkeeping downstream.
pub(crate) fn finalize_glue_cycles(spec: &Spec, assignment: &mut [u32]) {
    fn defining_ops<'a>(spec: &'a Spec, op: &'a Operation) -> impl Iterator<Item = usize> + 'a {
        op.operands()
            .iter()
            .filter_map(|o| o.value_id())
            .filter_map(|v| spec.value(v).defining_op())
            .map(OpId::index)
    }
    // Backward: pull each glue op to its earliest consumer.
    let mut earliest = vec![u32::MAX; assignment.len()];
    for op in spec.ops().iter().rev() {
        let i = op.id().index();
        if is_zero_delay(op.kind()) && earliest[i] != u32::MAX {
            assignment[i] = earliest[i];
        }
        let k = assignment[i];
        if k != 0 {
            for d in defining_ops(spec, op) {
                earliest[d] = earliest[d].min(k);
            }
        }
    }
    // Forward: a glue op cannot compute before its producers' cycles.
    for op in spec.ops() {
        if is_zero_delay(op.kind()) {
            let lower = defining_ops(spec, op).map(|d| assignment[d]).max().unwrap_or(0).max(1);
            let k = &mut assignment[op.id().index()];
            *k = (*k).max(lower);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

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
    fn sparse_assignments_in_any_order_iterate_in_op_order() {
        let op = OpId::from_index;
        let s = Schedule::new(3, 6, [(op(5), 3), (op(1), 2), (op(3), 2)]);
        assert_eq!(s.iter().collect::<Vec<_>>(), [(op(1), 2), (op(3), 2), (op(5), 3)]);
        assert_eq!(s.ops_in_cycle(2).collect::<Vec<_>>(), [op(1), op(3)]);
        assert_eq!((s.cycle_of(op(0)), s.cycle_of(op(4)), s.cycle_of(op(6))), (None, None, None));
        assert_eq!(s.len(), 3);
        let from_map = Schedule::new(3, 6, BTreeMap::from([(op(1), 2), (op(3), 2), (op(5), 3)]));
        assert_eq!(s, from_map);
        assert!(Schedule::new(3, 6, []).is_empty());
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

    /// The map-based glue finalization the dense pass replaced: it builds
    /// [`Spec::users`] and pulls each glue op to its earliest consumer,
    /// then lifts it to its producers' latest cycle.
    fn finalize_with_users_map(spec: &Spec, assignment: &mut BTreeMap<OpId, u32>) {
        let users = spec.users();
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

    #[test]
    fn glue_moves_to_its_earliest_consumer_and_not_before_its_producers() {
        let spec = Spec::parse(
            "spec glue { input a: u8; input b: u8;
              x: u8 = a + b;
              y: u8 = a + b;
              n: u8 = ~x;
              m: u8 = ~n;
              p: u8 = m + b;
              q: u8 = m + a;
              o: u8 = ~y;
              j: u16 = concat(x, y);
              r: u8 = j[7:0] + a;
              output p; output q; output o; output r; }",
        )
        .unwrap();
        let names: Vec<String> = spec.ops().iter().map(Operation::label).collect();
        assert_eq!(names, ["x", "y", "n", "m", "p", "q", "o", "j", "r"]);
        // The placer's table: glue at its producers' latest cycle; `r`
        // reads only `x`'s half of `j`, so it may run in cycle 1.
        let mut assignment = vec![1, 2, 1, 1, 3, 2, 2, 2, 1];
        finalize_glue_cycles(&spec, &mut assignment);
        // `m` (glue read by adds in cycles 3 and 2) and `n` (glue read by
        // `m`) move to cycle 2; `o`, read only by an output port, keeps
        // its cycle; `j` is pulled back to `r`'s cycle 1 and clamped
        // forward to `y`'s cycle 2.
        assert_eq!(assignment, [1, 2, 2, 2, 3, 2, 2, 2, 1]);
    }

    #[test]
    fn dense_glue_finalization_agrees_with_the_users_map() {
        use crate::conventional::{self, Chaining};
        use bittrans_benchmarks::{random_spec, RandomSpecOptions};
        use bittrans_frag::{fragment, FragmentOptions};
        let check = |spec: &Spec, raw: Vec<u32>, case: &str| {
            let mut oracle: BTreeMap<OpId, u32> =
                spec.ops().iter().map(|op| op.id()).zip(raw.clone()).collect();
            finalize_with_users_map(spec, &mut oracle);
            let mut dense = raw;
            finalize_glue_cycles(spec, &mut dense);
            let dense: BTreeMap<OpId, u32> =
                spec.ops().iter().map(|op| op.id()).zip(dense).collect();
            assert_eq!(dense, oracle, "{case}");
        };
        let mut cases = 0;
        let chaining = Chaining::ComponentSum;
        for seed in 0..64 {
            let spec = random_spec(seed, &RandomSpecOptions::default());
            let kernel = bittrans_kernel::extract(&spec).unwrap();
            let delays = conventional::op_delays(&spec);
            for latency in 1..=6 {
                let (c, asap) = conventional::search(&spec, &delays, latency, chaining).unwrap();
                let f = fragment(&kernel, &FragmentOptions::with_latency(latency));
                for balance in [false, true] {
                    let case = format!("seed {seed} λ={latency} balance {balance}");
                    let raw = match balance {
                        true => conventional::run_pass(&spec, &delays, c, latency, chaining, true),
                        false => Some(asap.clone()),
                    };
                    if let Some(raw) = raw {
                        check(&spec, raw, &format!("conventional {case}"));
                        cases += 1;
                    }
                    if let Ok(f) = &f {
                        if let Ok(raw) = fragment::run_pass(f, balance) {
                            check(&f.spec, raw, &format!("fragments {case}"));
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert!(cases > 1000, "only {cases} assignments compared");
    }
}
