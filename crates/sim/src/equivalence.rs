//! Behavioural equivalence checking between two specifications.
//!
//! The transformations in this workspace (kernel extraction, fragmentation)
//! must preserve the input/output behaviour of the specification. This
//! module decides equivalence by co-simulation on shared input vectors —
//! the same role RTL-vs-behaviour simulation played for the paper's
//! authors.
//!
//! Both sides are compiled once to tapes that run 64 vectors side by
//! side: the ports are checked and the outputs paired before the first
//! vector. [`check_equivalence`] draws its vectors straight into the
//! tapes' input lanes, a batch of up to 64 at a time, in the order
//! of one vector after another, so the vector set is that of
//! [`random_vectors`](crate::vectors::random_vectors). Its memory is the
//! tapes' live slots, which does not grow with the vector count. A side
//! with a value or constant wider than 64 bits has no tape, and then
//! [`evaluate`] runs every vector. From the first vector the tapes
//! disagree on, or cannot load, [`evaluate`] takes over, so an
//! [`Inequivalence`] is always the interpreter's verdict: the same first
//! failing vector, output, bits and text.

use crate::tape::{mask, Src, Tape, LANES};
use crate::vectors::{random_inputs, random_word};
use crate::{evaluate, InputVector, SimError};
use bittrans_ir::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Borrow;
use std::fmt;

/// Why two specifications were judged non-equivalent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inequivalence {
    /// The input port lists differ (names or widths).
    PortMismatch {
        /// Human-readable description of the difference.
        detail: String,
    },
    /// Simulation of one side failed.
    SimFailed(SimError),
    /// The outputs differ on a concrete vector.
    Counterexample {
        /// The distinguishing input vector.
        inputs: InputVector,
        /// The differing output port.
        output: String,
        /// Output of the left spec.
        left: Bits,
        /// Output of the right spec.
        right: Bits,
    },
}

impl fmt::Display for Inequivalence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inequivalence::PortMismatch { detail } => write!(f, "port mismatch: {detail}"),
            Inequivalence::SimFailed(e) => write!(f, "simulation failed: {e}"),
            Inequivalence::Counterexample { output, left, right, .. } => {
                write!(f, "output `{output}` differs: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for Inequivalence {}

impl From<SimError> for Inequivalence {
    fn from(e: SimError) -> Self {
        Inequivalence::SimFailed(e)
    }
}

/// Checks that `left` and `right` agree on every supplied vector.
///
/// Output ports are matched by name; the comparison is on *values*
/// (zero-extended to the wider of the two declared widths), so a transformed
/// spec may carry extra result bits (e.g. preserved carry-outs) as long as
/// the meaningful bits agree. Extra outputs present on only one side are
/// ignored, except that every output of `left` must exist on `right`; that
/// and the input ports are checked before any vector is simulated.
///
/// # Errors
///
/// Returns the first [`Inequivalence`] found.
pub fn check_equivalence_on(
    left: &Spec,
    right: &Spec,
    vectors: &[InputVector],
) -> Result<(), Inequivalence> {
    check_ports(left, right)?;
    if let Some(mut tapes) = Cosim::compile(left, right) {
        for (b, batch) in vectors.chunks(LANES).enumerate() {
            let loaded = batch
                .iter()
                .enumerate()
                .position(|(lane, iv)| !(tapes.left.load(lane, iv) && tapes.right.load(lane, iv)))
                .unwrap_or(batch.len());
            // The lanes before a vector that fails to load are checked
            // first; the interpreter takes over from the first bad one.
            let failing = tapes.first_disagreement(loaded).unwrap_or(loaded);
            if failing < batch.len() {
                return interpret(left, right, &vectors[b * LANES + failing..]);
            }
        }
        return Ok(());
    }
    interpret(left, right, vectors)
}

/// Checks equivalence on `count` seeded random vectors (plus the all-zeros
/// and all-ones vectors, always included).
///
/// The vectors are those of [`random_vectors`](crate::vectors::random_vectors)
/// for `left`, after the two extremes, drawn up to 64 at a time into
/// the tapes' lanes: memory stays proportional to the live values, not to
/// `count`.
///
/// # Errors
///
/// Returns the first [`Inequivalence`] found; the counterexample embeds the
/// failing inputs for reproduction.
pub fn check_equivalence(
    left: &Spec,
    right: &Spec,
    seed: u64,
    count: usize,
) -> Result<(), Inequivalence> {
    check_ports(left, right)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let total = count + 2;
    // The draws bind `left`'s inputs only. An input that only `right` has
    // is left to the interpreter, which reports it unbound.
    let streams = right.inputs().len() == left.inputs().len();
    if let Some(mut tapes) = Cosim::compile(left, right).filter(|_| streams) {
        for first in (0..total).step_by(LANES) {
            let lanes = LANES.min(total - first);
            for lane in 0..lanes {
                tapes.draw(first + lane, lane, &mut rng);
            }
            if let Some(failing) = tapes.first_disagreement(lanes) {
                let drawn = (failing..lanes).map(|l| tapes.left.input_vector(l));
                let rest = (first + lanes..total).map(|k| vector(left, k, &mut rng));
                return interpret(left, right, drawn.chain(rest));
            }
        }
        return Ok(());
    }
    interpret(left, right, (0..total).map(|k| vector(left, k, &mut rng)))
}

/// Vector `k` of [`check_equivalence`]'s stream: all zeros, all ones, then
/// one [`random_inputs`] draw each.
fn vector(spec: &Spec, k: usize, rng: &mut StdRng) -> InputVector {
    if k >= 2 {
        return random_inputs(spec, rng);
    }
    let mut iv = InputVector::new();
    for &input in spec.inputs() {
        let w = spec.value(input).width() as usize;
        iv.set(spec.input_name(input), if k == 1 { Bits::ones(w) } else { Bits::zero(w) });
    }
    iv
}

/// The interpreter's check, over `vectors` in order.
fn interpret<V: Borrow<InputVector>>(
    left: &Spec,
    right: &Spec,
    vectors: impl IntoIterator<Item = V>,
) -> Result<(), Inequivalence> {
    for iv in vectors {
        let iv = iv.borrow();
        let le = evaluate(left, iv)?;
        let re = evaluate(right, iv)?;
        for (name, lbits) in le.outputs() {
            let rbits = re.output(name).expect("check_ports matched every port of `left`");
            let w = lbits.width().max(rbits.width());
            if lbits.zext(w) != rbits.zext(w) {
                return Err(Inequivalence::Counterexample {
                    inputs: iv.clone(),
                    output: name.to_string(),
                    left: lbits.clone(),
                    right: rbits.clone(),
                });
            }
        }
    }
    Ok(())
}

/// Both sides compiled to tapes, with each output of `left` paired with
/// its namesake on `right` and each input with the slot it feeds there.
struct Cosim {
    left: Tape,
    right: Tape,
    outputs: Vec<(Src, Src)>,
    /// Per input of `left`: its slot, its width and its slot on `right`.
    inputs: Vec<(u32, u32, u32)>,
}

impl Cosim {
    /// `None` if either side does not compile. Call it only after
    /// [`check_ports`] passed.
    fn compile(left: &Spec, right: &Spec) -> Option<Cosim> {
        const PORTS: &str = "check_ports matched every port of `left`";
        let (l, r) = (Tape::compile(left)?, Tape::compile(right)?);
        let outputs = left
            .outputs()
            .iter()
            .map(|p| (l.output(p.name()).expect(PORTS), r.output(p.name()).expect(PORTS)))
            .collect();
        let inputs = l
            .inputs()
            .iter()
            .map(|p| {
                let theirs = r.inputs().iter().find(|q| q.name == p.name).expect(PORTS);
                (p.slot, p.width, theirs.slot)
            })
            .collect();
        Some(Cosim { left: l, right: r, outputs, inputs })
    }

    /// Writes vector `k` of [`check_equivalence`]'s stream into lane
    /// `lane` of both sides' input slots.
    fn draw(&mut self, k: usize, lane: usize, rng: &mut StdRng) {
        for &(slot, width, right_slot) in &self.inputs {
            let word = match k {
                0 => 0,
                1 => mask(width),
                _ => random_word(width, rng),
            };
            self.left.set(slot, lane, word);
            self.right.set(right_slot, lane, word);
        }
    }

    /// Runs both sides on the loaded inputs; the first of lanes
    /// `0..lanes` where a paired output differs, if any.
    fn first_disagreement(&mut self, lanes: usize) -> Option<usize> {
        if lanes == 0 {
            return None;
        }
        self.left.run(lanes);
        self.right.run(lanes);
        let (mut l, mut r) = ([0; LANES], [0; LANES]);
        let (l, r) = (&mut l[..lanes], &mut r[..lanes]);
        let mut differ = 0u64;
        for &(ls, rs) in &self.outputs {
            self.left.read(ls, l);
            self.right.read(rs, r);
            for (lane, (x, y)) in l.iter().zip(&*r).enumerate() {
                differ |= u64::from(x != y) << lane;
            }
        }
        (differ != 0).then(|| differ.trailing_zeros() as usize)
    }
}

fn check_ports(left: &Spec, right: &Spec) -> Result<(), Inequivalence> {
    for &l in left.inputs() {
        let name = left.input_name(l);
        match right.input_by_name(name) {
            None => {
                return Err(Inequivalence::PortMismatch {
                    detail: format!("input `{name}` missing from `{}`", right.name()),
                })
            }
            Some(r) => {
                let (lw, rw) = (left.value(l).width(), right.value(r).width());
                if lw != rw {
                    return Err(Inequivalence::PortMismatch {
                        detail: format!("input `{name}` is {lw} bits vs {rw} bits"),
                    });
                }
            }
        }
    }
    // The first in name order, as a per-vector check would meet them.
    let missing = left
        .outputs()
        .iter()
        .map(|p| p.name())
        .filter(|&name| !right.outputs().iter().any(|p| p.name() == name))
        .min();
    match missing {
        Some(name) => Err(Inequivalence::PortMismatch {
            detail: format!("output `{name}` missing from `{}`", right.name()),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_specs_are_equivalent() {
        let s = Spec::parse("spec s { input a: u8; input b: u8; output o = a + b; }").unwrap();
        check_equivalence(&s, &s, 1, 50).unwrap();
    }

    #[test]
    fn fig2_transformation_is_equivalent_to_fig1() {
        // The paper's motivational example: beh1 (three 16-bit adds) vs
        // beh2 (nine fragment adds with explicit carries) — Fig. 1 a) vs 2 a).
        let beh1 = Spec::parse(
            "spec beh1 { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B;
              E: u16 = C + D;
              G: u16 = E + F;
              output G; }",
        )
        .unwrap();
        let beh2 = Spec::parse(
            "spec beh2 { input A: u16; input B: u16; input D: u16; input F: u16;
              C0: u7  = A[5:0] + B[5:0];
              E0: u6  = C0[4:0] + D[4:0];
              G0: u5  = E0[3:0] + F[3:0];
              C1: u7  = A[11:6] + B[11:6] + C0[6];
              E1: u7  = concat(C0[5], C1[4:0]) + D[10:5] + E0[5];
              G1: u7  = concat(E0[4], E1[4:0]) + F[9:4] + G0[4];
              C2: u4  = A[15:12] + B[15:12] + C1[6];
              E2: u5  = concat(C1[5], C2) + D[15:11] + E1[6];
              G2: u6  = concat(E1[5], E2) + F[15:10] + G1[6];
              output G = concat(G0[3:0], G1[5:0], G2);
             }",
        )
        .unwrap();
        check_equivalence(&beh1, &beh2, 2005, 300).unwrap();
    }

    #[test]
    fn detects_counterexample() {
        let good = Spec::parse("spec a { input x: u8; output o = x + 1; }").unwrap();
        let bad = Spec::parse("spec b { input x: u8; output o = x + 2; }").unwrap();
        let err = check_equivalence(&good, &bad, 3, 20).unwrap_err();
        assert!(matches!(err, Inequivalence::Counterexample { .. }));
        assert!(err.to_string().contains("output `o` differs"));
    }

    #[test]
    fn detects_port_mismatch() {
        let a = Spec::parse("spec a { input x: u8; output o = x; }").unwrap();
        let b = Spec::parse("spec b { input y: u8; output o = y; }").unwrap();
        let err = check_equivalence(&a, &b, 3, 5).unwrap_err();
        assert!(matches!(err, Inequivalence::PortMismatch { .. }));

        let c = Spec::parse("spec c { input x: u4; output o = x; }").unwrap();
        let err = check_equivalence(&a, &c, 3, 5).unwrap_err();
        assert!(err.to_string().contains("8 bits vs 4 bits"));
    }

    #[test]
    fn wider_right_output_is_tolerated() {
        // The transformed spec may keep the carry-out (9 bits vs 8): values
        // must still agree, which they do only when the carry is dead...
        let narrow = Spec::parse("spec a { input x: u4; output o = x; }").unwrap();
        // ... here the extra top bits are zero, so equivalence holds.
        let wide = Spec::parse("spec b { input x: u4; o: u6 = x; output o; }").unwrap();
        check_equivalence(&narrow, &wide, 9, 20).unwrap();
    }

    #[test]
    fn missing_output_is_reported() {
        let a = Spec::parse("spec a { input x: u4; output o = x; output p = x; }").unwrap();
        let b = Spec::parse("spec b { input x: u4; output o = x; }").unwrap();
        let err = check_equivalence(&a, &b, 3, 5).unwrap_err();
        assert!(err.to_string().contains("`p` missing"));
    }

    #[test]
    fn missing_output_is_reported_before_any_vector() {
        let a = Spec::parse("spec a { input x: u4; output o = x; output p = x; }").unwrap();
        let b = Spec::parse("spec b { input x: u4; output o = x + 1; }").unwrap();
        let missing =
            Inequivalence::PortMismatch { detail: "output `p` missing from `b`".to_string() };
        assert_eq!(check_equivalence_on(&a, &b, &[]).unwrap_err(), missing);
        // Ahead of a simulation error and of a differing output too.
        assert_eq!(check_equivalence_on(&a, &b, &[InputVector::new()]).unwrap_err(), missing);
        assert_eq!(check_equivalence(&a, &b, 3, 5).unwrap_err(), missing);
    }

    #[test]
    fn explicit_vectors_report_the_first_bad_binding_or_difference() {
        let good = Spec::parse("spec a { input x: u8; output o = x + 1; }").unwrap();
        let bad = Spec::parse("spec b { input x: u8; o: u8 = x + 1 + x[7]; output o; }").unwrap();
        let at = |v: u64, w: usize| {
            let mut iv = InputVector::new();
            iv.set("x", Bits::from_u64(v, w));
            iv
        };
        check_equivalence_on(&good, &bad, &[at(1, 8), at(127, 8)]).unwrap();
        let err = check_equivalence_on(&good, &bad, &[at(1, 8), at(200, 8), at(3, 4)]).unwrap_err();
        assert_eq!(
            err,
            Inequivalence::Counterexample {
                inputs: at(200, 8),
                output: "o".into(),
                left: Bits::from_u64(201, 9),
                right: Bits::from_u64(202, 8),
            }
        );
        let err = check_equivalence_on(&good, &bad, &[at(1, 8), at(3, 4), at(200, 8)]).unwrap_err();
        assert_eq!(
            err,
            Inequivalence::SimFailed(SimError::WidthMismatch {
                name: "x".into(),
                expected: 8,
                got: 4
            })
        );
        let err = check_equivalence_on(&good, &bad, &[InputVector::new()]).unwrap_err();
        assert_eq!(err, Inequivalence::SimFailed(SimError::MissingInput { name: "x".into() }));
    }

    /// A 10-vector check runs 10 lanes and a 65-vector one a full batch
    /// and then one lane: each verdict is the interpreter's over the same
    /// vectors, whether the sides agree, differ somewhere in the stream or
    /// differ only on the last vector.
    #[test]
    fn short_batches_give_the_interpreters_verdict() {
        let good = Spec::parse("spec a { input x: u8; input y: u4; output o = x + y; }").unwrap();
        let bad = Spec::parse(
            "spec b { input x: u8; input y: u4; o: u9 = x + y + (x[7] & x[6] & y[3]); output o; }",
        )
        .unwrap();
        let mut verdicts = [0; 2];
        for seed in 0..40 {
            for count in [8, 63] {
                let mut rng = StdRng::seed_from_u64(seed);
                let stream: Vec<_> = (0..count + 2).map(|k| vector(&good, k, &mut rng)).collect();
                for right in [&good, &bad] {
                    let want = interpret(&good, right, &stream);
                    assert_eq!(check_equivalence(&good, right, seed, count), want, "seed {seed}");
                    assert_eq!(check_equivalence_on(&good, right, &stream), want, "seed {seed}");
                    verdicts[usize::from(want.is_err())] += 1;
                }
            }
        }
        assert!(verdicts.iter().all(|&n| n > 20), "verdicts (ok, err): {verdicts:?}");
        // The sides differ only on the last of 10 or of 65 vectors.
        let at = |x: u64, y: u64| {
            let mut iv = InputVector::new();
            iv.set("x", Bits::from_u64(x, 8));
            iv.set("y", Bits::from_u64(y, 4));
            iv
        };
        for n in [10, 65] {
            let mut vectors: Vec<_> = (0..n).map(|k| at(k % 64, k % 16)).collect();
            vectors[n as usize - 1] = at(0xc0, 8);
            let want = interpret(&good, &bad, &vectors);
            assert!(
                matches!(&want, Err(Inequivalence::Counterexample { inputs, .. }) if *inputs == at(0xc0, 8))
            );
            assert_eq!(check_equivalence_on(&good, &bad, &vectors), want);
        }
    }

    #[test]
    fn an_input_only_on_the_right_is_a_simulation_error() {
        let a = Spec::parse("spec a { input x: u8; output o = x; }").unwrap();
        let b = Spec::parse("spec b { input x: u8; input y: u1; output o = x ^ y; }").unwrap();
        let err = check_equivalence(&a, &b, 3, 5).unwrap_err();
        assert_eq!(err, Inequivalence::SimFailed(SimError::MissingInput { name: "y".into() }));
    }
}
