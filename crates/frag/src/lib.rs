//! # bittrans-frag
//!
//! **Fragmentation of operations** — phase 3 of the paper's optimisation
//! method (§3.3 of Ruiz-Sautua et al., DATE 2005), the core contribution.
//!
//! Given an additive-form specification (see `bittrans-kernel`), a target
//! latency λ, and the estimated cycle duration `c = ⌈critical_path / λ⌉`,
//! this pass:
//!
//! 1. computes the **ASAP and ALAP cycle of every result bit** of every
//!    addition (from the δ-exact bit arrival/required times of
//!    `bittrans-timing`);
//! 2. groups consecutive bits with the same `(ASAP, ALAP)` cycle pair into
//!    **fragments** — the paper: *"the number of fragments obtained from
//!    one operation equals the number of different (ASAP, ALAP) pairs …
//!    and the width of every fragment is the number of operation bits with
//!    the same ASAP and ALAP schedules"*;
//! 3. rewrites the specification so each fragment is an independent small
//!    addition that chains to its neighbour through an explicit carry bit —
//!    the paper's Fig. 2 a).
//!
//! Fragments carry their mobility (`asap..=alap`, in 1-based cycles), the
//! new data dependencies (carry + operand slices) are ordinary dataflow
//! edges of the rewritten spec, and a conventional scheduler
//! (`bittrans-sched`) can then place fragments of one operation in
//! different — possibly unconsecutive — cycles.
//!
//! ```
//! use bittrans_ir::prelude::*;
//! use bittrans_frag::{fragment, FragmentOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = Spec::parse(
//!     "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
//!       C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
//! )?;
//! let f = fragment(&spec, &FragmentOptions::with_latency(3))?;
//! assert_eq!(f.cycle, 6);            // ⌈18δ / 3⌉
//! assert_eq!(f.spec.stats().adds, 9); // every addition split in three
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pairing;
pub mod render;
pub mod rewrite;

use bittrans_ir::prelude::*;
use bittrans_timing::{arrival_times, required_times, BitTimes, Delta};
use std::collections::BTreeMap;
use std::fmt;

/// Options for [`fragment`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FragmentOptions {
    /// Target latency λ in cycles; the cycle is `⌈critical_path / λ⌉`
    /// (§3.2).
    pub latency: u32,
}

impl FragmentOptions {
    /// Options for latency `λ` with the paper's cycle estimation.
    pub fn with_latency(latency: u32) -> Self {
        FragmentOptions { latency }
    }
}

/// Errors raised by [`fragment`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FragError {
    /// The spec contains non-glue operations other than `Add`; run kernel
    /// extraction first.
    NotAdditive {
        /// The offending operation.
        op: OpId,
        /// Its kind's mnemonic.
        kind: &'static str,
    },
    /// A result bit cannot meet its deadline: its earliest arrival is later
    /// than its latest required time. The requested latency/cycle pair is
    /// too tight.
    Infeasible {
        /// The value whose bit misses the deadline.
        value: ValueId,
        /// The bit index.
        bit: u32,
        /// Earliest availability (δ).
        arrival: Delta,
        /// Latest allowed (δ).
        required: Delta,
    },
    /// Latency was zero.
    ZeroLatency,
    /// Spec construction failed while rewriting (should not happen for
    /// valid inputs).
    Rewrite(IrError),
}

impl fmt::Display for FragError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FragError::NotAdditive { op, kind } => {
                write!(f, "operation {op} ({kind}) is not an addition; run kernel extraction first")
            }
            FragError::Infeasible { value, bit, arrival, required } => write!(
                f,
                "bit {bit} of {value} arrives at {arrival}δ but is required by {required}δ; \
                 the latency/cycle combination is infeasible"
            ),
            FragError::ZeroLatency => write!(f, "latency must be at least one cycle"),
            FragError::Rewrite(e) => write!(f, "rewrite failed: {e}"),
        }
    }
}

impl std::error::Error for FragError {}

impl From<IrError> for FragError {
    fn from(e: IrError) -> Self {
        FragError::Rewrite(e)
    }
}

/// One fragment of a source addition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FragmentInfo {
    /// The source (kernel) operation this fragment belongs to.
    pub source: OpId,
    /// Fragment number within the source operation; 0 covers the LSBs.
    pub index: usize,
    /// The source result bits this fragment computes.
    pub range: BitRange,
    /// Earliest cycle (1-based) the fragment can execute in.
    pub asap: u32,
    /// Latest cycle (1-based) the fragment can execute in.
    pub alap: u32,
}

impl FragmentInfo {
    /// Number of cycles in the fragment's mobility window.
    pub fn mobility(&self) -> u32 {
        self.alap - self.asap + 1
    }

    /// `true` when ASAP = ALAP: the fragment is already implicitly
    /// scheduled (grey bits in the paper's Fig. 3).
    pub fn is_fixed(&self) -> bool {
        self.asap == self.alap
    }
}

/// The result of fragmentation: the transformed specification plus
/// per-fragment metadata.
#[derive(Clone, Debug)]
pub struct Fragmented {
    /// The transformed (rewritten) specification — the paper's Fig. 2 a).
    pub spec: Spec,
    /// Cycle duration used, in δ.
    pub cycle: Delta,
    /// Latency λ.
    pub latency: u32,
    /// Critical path of the source spec, in δ.
    pub critical_path: Delta,
    /// Metadata for each fragment addition of the new spec, keyed by the
    /// *new* spec's op id. Glue ops have no entry.
    pub fragments: BTreeMap<OpId, FragmentInfo>,
    /// New-spec fragment ops of every source addition, LSB fragment first.
    pub per_source: BTreeMap<OpId, Vec<OpId>>,
}

/// Per-bit ASAP/ALAP cycles (1-based) for every value of an additive spec,
/// plus the underlying δ times. This is the data behind the paper's
/// Fig. 3 c)–e) pictures.
#[derive(Clone, Debug)]
pub struct BitCycles {
    /// Cycle duration in δ.
    pub cycle: Delta,
    /// Schedule horizon in δ (`cycle · latency`).
    pub total: Delta,
    /// δ-exact earliest arrival per bit.
    pub arrival: BitTimes,
    /// δ-exact latest requirement per bit.
    pub required: BitTimes,
}

impl BitCycles {
    /// Earliest cycle (1-based) in which bit `i` of `value` can be produced.
    pub fn asap_cycle(&self, value: ValueId, i: u32) -> u32 {
        delta_to_cycle(self.arrival.bit(value, i), self.cycle)
    }

    /// Latest cycle (1-based) in which bit `i` of `value` may be produced.
    pub fn alap_cycle(&self, value: ValueId, i: u32) -> u32 {
        delta_to_cycle(self.required.bit(value, i), self.cycle)
    }
}

/// Maps a δ time to its (1-based) cycle. Time 0 (inputs) maps to cycle 1.
fn delta_to_cycle(t: Delta, cycle: Delta) -> u32 {
    t.div_ceil(cycle).max(1)
}

/// Computes per-bit cycles for `spec` under `latency` cycles of `cycle` δ.
///
/// # Errors
///
/// Returns [`FragError::Infeasible`] when some bit's arrival exceeds its
/// required time, and [`FragError::ZeroLatency`] for a zero latency.
pub fn bit_cycles(spec: &Spec, cycle: Delta, latency: u32) -> Result<BitCycles, FragError> {
    if latency == 0 {
        return Err(FragError::ZeroLatency);
    }
    bit_cycles_from(spec, arrival_times(spec), cycle, latency)
}

/// [`bit_cycles`] over arrival times the caller already has.
fn bit_cycles_from(
    spec: &Spec,
    arrival: BitTimes,
    cycle: Delta,
    latency: u32,
) -> Result<BitCycles, FragError> {
    let total = cycle * latency;
    let required = required_times(spec, total);
    for value in spec.values() {
        let rows = arrival.of(value.id()).iter().zip(required.of(value.id()));
        for (i, (&a, &r)) in (0..).zip(rows) {
            if a > r {
                return Err(FragError::Infeasible {
                    value: value.id(),
                    bit: i,
                    arrival: a,
                    required: r,
                });
            }
        }
    }
    Ok(BitCycles { cycle, total, arrival, required })
}

/// Derives the fragments of one addition from its per-bit cycles:
/// consecutive bits sharing the same `(ASAP, ALAP)` cycle pair.
///
/// Returned ranges partition `0..width`, LSBs first.
pub fn fragments_of_op(cycles: &BitCycles, op: &Operation) -> Vec<FragmentInfo> {
    let z = op.result();
    let mut out: Vec<FragmentInfo> = Vec::new();
    for i in 0..op.width() {
        let pair = (cycles.asap_cycle(z, i), cycles.alap_cycle(z, i));
        match out.last_mut() {
            Some(last) if (last.asap, last.alap) == pair => {
                last.range = BitRange::new(last.range.lo(), last.range.width() + 1);
            }
            _ => out.push(FragmentInfo {
                source: op.id(),
                index: out.len(),
                range: BitRange::new(i, 1),
                asap: pair.0,
                alap: pair.1,
            }),
        }
    }
    debug_assert!(
        out.windows(2).all(|w| w[0].asap <= w[1].asap && w[0].alap <= w[1].alap),
        "carry chain must make bit cycles monotone"
    );
    out
}

/// Runs the full fragmentation pass on an additive-form spec.
///
/// # Errors
///
/// * [`FragError::NotAdditive`] if `spec` still contains macro operations —
///   run [`bittrans_kernel::extract`](https://docs.rs/bittrans-kernel) first;
/// * [`FragError::Infeasible`] / [`FragError::ZeroLatency`] as in
///   [`bit_cycles`].
pub fn fragment(spec: &Spec, options: &FragmentOptions) -> Result<Fragmented, FragError> {
    if options.latency == 0 {
        return Err(FragError::ZeroLatency);
    }
    for op in spec.ops() {
        if op.kind() != OpKind::Add && !op.kind().is_glue() {
            return Err(FragError::NotAdditive { op: op.id(), kind: op.kind().mnemonic() });
        }
    }
    let arrival = arrival_times(spec);
    let cp = arrival.max();
    let cycle = cp.div_ceil(options.latency).max(1);
    let cycles = bit_cycles_from(spec, arrival, cycle, options.latency)?;
    let mut plan: BTreeMap<OpId, Vec<FragmentInfo>> = BTreeMap::new();
    for op in spec.ops() {
        if op.kind() == OpKind::Add {
            plan.insert(op.id(), fragments_of_op(&cycles, op));
        }
    }
    let (new_spec, fragments, per_source) = rewrite::rewrite(spec, &plan)?;
    Ok(Fragmented {
        spec: new_spec,
        cycle,
        latency: options.latency,
        critical_path: cp,
        fragments,
        per_source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bittrans_sim::equivalence::check_equivalence;

    fn three_adds() -> Spec {
        Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap()
    }

    /// The paper's Fig. 3 DFG: chained 6-bit adds B→C→E, a 5-bit add A,
    /// a 6-bit add D, and 8-bit adds F, G → H.
    fn fig3() -> Spec {
        Spec::parse(
            "spec fig3 {
               input i1: u6; input i2: u6; input i3: u6; input i4: u6;
               input i5: u5; input i6: u5;
               input j1: u8; input j2: u8; input j3: u8; input j4: u8;
               B: u6 = i1 + i2;
               C: u6 = B + i3;
               E: u6 = C + i4;
               A: u5 = i5 + i6;
               D: u6 = i3 + i4;
               F: u8 = j1 + j2;
               G: u8 = j3 + j4;
               H: u8 = F + G;
               output E; output H; output A; output D;
            }",
        )
        .unwrap()
    }

    fn frags_by_name<'a>(spec: &Spec, f: &'a Fragmented, name: &str) -> Vec<&'a FragmentInfo> {
        let op = spec.ops().iter().find(|o| o.name() == Some(name)).unwrap();
        f.per_source[&op.id()].iter().map(|id| &f.fragments[id]).collect()
    }

    #[test]
    fn motivational_example_fragments_in_three() {
        let spec = three_adds();
        let f = fragment(&spec, &FragmentOptions::with_latency(3)).unwrap();
        assert_eq!(f.cycle, 6);
        assert_eq!(f.critical_path, 18);
        // Every addition splits into 3 fragments (paper Fig. 2: widths
        // 6/6/4 for C, 5/6/5 for E, 4/6/6 for G).
        let c = frags_by_name(&spec, &f, "C");
        assert_eq!(c.iter().map(|fr| fr.range.width()).collect::<Vec<_>>(), vec![6, 6, 4]);
        let e = frags_by_name(&spec, &f, "E");
        assert_eq!(e.iter().map(|fr| fr.range.width()).collect::<Vec<_>>(), vec![5, 6, 5]);
        let g = frags_by_name(&spec, &f, "G");
        assert_eq!(g.iter().map(|fr| fr.range.width()).collect::<Vec<_>>(), vec![4, 6, 6]);
        // All those fragments are fixed (ASAP = ALAP) on the critical chain.
        for fr in c.iter().chain(&e).chain(&g) {
            assert!(fr.is_fixed());
        }
        assert_eq!(c.iter().map(|fr| fr.asap).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(e.iter().map(|fr| fr.asap).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(g.iter().map(|fr| fr.asap).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn motivational_example_is_equivalent() {
        let spec = three_adds();
        let f = fragment(&spec, &FragmentOptions::with_latency(3)).unwrap();
        check_equivalence(&spec, &f.spec, 0xF00D, 300).unwrap();
    }

    #[test]
    fn fig3_matches_paper_fragments() {
        let spec = fig3();
        let f = fragment(&spec, &FragmentOptions::with_latency(3)).unwrap();
        assert_eq!(f.critical_path, 9);
        assert_eq!(f.cycle, 3);

        // Operation B breaks into B1..0, B2, B4..3, B5 (paper §3.3).
        let b = frags_by_name(&spec, &f, "B");
        let widths: Vec<u32> = b.iter().map(|fr| fr.range.width()).collect();
        assert_eq!(widths, vec![2, 1, 2, 1]);
        assert_eq!(
            b.iter().map(|fr| (fr.asap, fr.alap)).collect::<Vec<_>>(),
            vec![(1, 1), (1, 2), (2, 2), (2, 3)]
        );

        // F, G, H have coinciding ASAP/ALAP (already scheduled): F2..0 in
        // cycle 1, F5..3 in cycle 2, F7..6 in cycle 3.
        for name in ["F", "G"] {
            let frs = frags_by_name(&spec, &f, name);
            assert_eq!(
                frs.iter().map(|fr| fr.range.width()).collect::<Vec<_>>(),
                vec![3, 3, 2],
                "{name}"
            );
            assert!(frs.iter().all(|fr| fr.is_fixed()), "{name}");
        }
        let h = frags_by_name(&spec, &f, "H");
        assert_eq!(
            h.iter().map(|fr| (fr.range.width(), fr.asap, fr.alap)).collect::<Vec<_>>(),
            vec![(2, 1, 1), (3, 2, 2), (3, 3, 3)]
        );

        // A (independent 5-bit add) keeps mobility: A1..0, A2, A4..3.
        let a = frags_by_name(&spec, &f, "A");
        assert_eq!(
            a.iter().map(|fr| (fr.range.width(), fr.asap, fr.alap)).collect::<Vec<_>>(),
            vec![(2, 1, 2), (1, 1, 3), (2, 2, 3)]
        );
    }

    #[test]
    fn fig3_rewrite_is_equivalent() {
        let spec = fig3();
        let f = fragment(&spec, &FragmentOptions::with_latency(3)).unwrap();
        check_equivalence(&spec, &f.spec, 0xFA57, 300).unwrap();
    }

    #[test]
    fn latency_one_keeps_ops_whole() {
        let spec = three_adds();
        let f = fragment(&spec, &FragmentOptions::with_latency(1)).unwrap();
        assert_eq!(f.cycle, 18);
        assert_eq!(f.spec.stats().adds, 3, "nothing to split at λ = 1");
        check_equivalence(&spec, &f.spec, 7, 100).unwrap();
    }

    #[test]
    fn rejects_non_additive() {
        let spec = Spec::parse("spec s { input a: u8; input b: u8; output p = a * b; }").unwrap();
        let err = fragment(&spec, &FragmentOptions::with_latency(2)).unwrap_err();
        assert!(matches!(err, FragError::NotAdditive { .. }));
        assert!(err.to_string().contains("kernel extraction"));
    }

    #[test]
    fn rejects_zero_latency() {
        let spec = three_adds();
        assert_eq!(
            fragment(&spec, &FragmentOptions { latency: 0 }).unwrap_err(),
            FragError::ZeroLatency
        );
    }

    #[test]
    fn bit_cycles_rejects_an_infeasible_cycle() {
        let spec = three_adds();
        // 3 cycles of 5δ = 15δ < the 18δ critical path.
        let err = bit_cycles(&spec, 5, 3).unwrap_err();
        assert!(matches!(err, FragError::Infeasible { .. }));
    }

    #[test]
    fn fragment_info_helpers() {
        let fi = FragmentInfo {
            source: OpId::from_index(0),
            index: 1,
            range: BitRange::new(6, 6),
            asap: 1,
            alap: 3,
        };
        assert_eq!(fi.mobility(), 3);
        assert!(!fi.is_fixed());
    }

    #[test]
    fn equivalence_across_latencies() {
        let spec = fig3();
        for latency in 1..=6 {
            let f = fragment(&spec, &FragmentOptions::with_latency(latency)).unwrap();
            check_equivalence(&spec, &f.spec, 100 + u64::from(latency), 100)
                .unwrap_or_else(|e| panic!("λ={latency}: {e}"));
        }
    }

    #[test]
    fn carry_chain_dependencies_exist() {
        let spec = three_adds();
        let f = fragment(&spec, &FragmentOptions::with_latency(3)).unwrap();
        // Each non-first fragment reads its predecessor's carry: the new
        // spec must contain 3-operand adds.
        let carried = f
            .spec
            .ops()
            .iter()
            .filter(|o| o.kind() == OpKind::Add && o.operands().len() == 3)
            .count();
        assert_eq!(carried, 6, "two carried fragments per source addition");
    }
}
