//! Critical-path analysis: the paper's §3.2 path-walk algorithm and the
//! DFG-wide critical path derived from bit-level arrival times.

use crate::arrival::arrival_times;
use crate::Delta;
use bittrans_ir::prelude::*;

/// One operation on a linear path, as the paper's §3.2 algorithm sees it:
/// its result width and how many of its least-significant result bits the
/// next operation on the path truncates away.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathStep {
    /// Result width of the operation.
    pub width: u32,
    /// Number of LSBs of this operation's result that the *successor on the
    /// path* does not consume (`truncated_right` in the paper).
    pub truncated_right: u32,
}

/// The paper's §3.2 algorithm, verbatim: execution time of a linear path of
/// chained additive operations, in δ.
///
/// > `time = width(path[n])`; then, crossing operations from the output to
/// > the input, add 1 for each operation — plus the number of truncated
/// > LSBs when an operation is wider than its successor.
///
/// The slice is ordered input-to-output (`path[0]` feeds `path[1]`, …).
/// Returns 0 for an empty path.
///
/// # Examples
///
/// ```
/// use bittrans_timing::path::{path_walk_time, PathStep};
///
/// // Three chained 16-bit additions (paper Fig. 1): 16 + 1 + 1 = 18δ.
/// let p = |width| PathStep { width, truncated_right: 0 };
/// assert_eq!(path_walk_time(&[p(16), p(16), p(16)]), 18);
/// ```
pub fn path_walk_time(path: &[PathStep]) -> Delta {
    let Some(last) = path.last() else {
        return 0;
    };
    let mut time = last.width;
    // Walk from the second-to-last operation back to the first. Crossing an
    // operation costs one δ (its bit i feeds the successor's bit i, which
    // settles one δ later), plus one δ per right-truncated LSB (truncation
    // shifts the successor's bit 0 up the producer's ripple chain). This is
    // the paper's `if width(path[i]) <= width(path[i+1])` rule with
    // `truncated_right = 0` folded into the then-branch.
    for step in path[..path.len() - 1].iter().rev() {
        time += 1 + step.truncated_right;
    }
    time
}

/// The critical path of a specification in δ units: the time at which the
/// last bit of the slowest value settles, under the bit-level ripple model.
///
/// This generalises [`path_walk_time`] from linear chains to arbitrary
/// DFGs; on linear chains the two agree (see this module's tests).
pub fn critical_path(spec: &Spec) -> Delta {
    arrival_times(spec).max()
}

/// The standalone execution time of one operation in δ units — the time it
/// takes with all inputs available at t = 0 (used by the conventional,
/// operation-atomic baseline scheduler).
///
/// `Mul` is modelled as an array multiplier (the wider operand's width
/// plus twice the narrower's); every other kind takes the latest of its
/// [`settle_times`](crate::settle_times) with every input at 0, so e.g. a
/// kernel comparison add of width `w+1` still takes only `w`δ and glue is
/// free.
pub fn op_delay_delta(spec: &Spec, op: &Operation) -> Delta {
    if op.kind() == OpKind::Mul {
        // Matches the bit-level path through the shift-add row
        // decomposition the kernel extraction produces: the wider
        // operand's ripple plus ~2δ per partial-product row.
        let mut ws: Vec<Delta> = op.operands().iter().map(|o| spec.operand_width(o)).collect();
        ws.sort_unstable();
        return match ws.as_slice() {
            [a, b] => b + 2 * a,
            _ => op.width(),
        };
    }
    crate::settle_times(spec, op, 0, |_, _| Some(0))
        .expect("every bit is available")
        .into_iter()
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(width: u32) -> PathStep {
        PathStep { width, truncated_right: 0 }
    }

    #[test]
    fn empty_path_is_zero() {
        assert_eq!(path_walk_time(&[]), 0);
    }

    #[test]
    fn single_op_is_its_width() {
        assert_eq!(path_walk_time(&[step(16)]), 16);
    }

    #[test]
    fn paper_fig1_chain() {
        assert_eq!(path_walk_time(&[step(16), step(16), step(16)]), 18);
    }

    #[test]
    fn paper_fig3_paths() {
        // B(6) -> C(6) -> E(6): 6 + 1 + 1 = 8δ
        assert_eq!(path_walk_time(&[step(6), step(6), step(6)]), 8);
        // F(8) -> H(8): 8 + 1 = 9δ
        assert_eq!(path_walk_time(&[step(8), step(8)]), 9);
    }

    #[test]
    fn truncation_adds_to_the_walk() {
        // A 12-bit op whose successor drops its 4 LSBs: the successor's
        // bit 0 aligns with the producer's bit 4, which costs 4 extra δ.
        let path =
            [PathStep { width: 12, truncated_right: 4 }, PathStep { width: 8, truncated_right: 0 }];
        assert_eq!(path_walk_time(&path), 8 + 1 + 4);
    }

    #[test]
    fn wider_producer_than_consumer() {
        // A 16-bit op feeding an 8-bit op that reads its low byte: the
        // consumer only waits for the producer's low bits, so crossing
        // costs one δ. (The producer's own high bits are a separate path.)
        let path = [step(16), step(8)];
        assert_eq!(path_walk_time(&path), 8 + 1);
        let spec = Spec::parse(
            "spec s { input A: u16; input B: u16; input D: u8;
              C: u16 = A + B;
              E: u8 = C[7:0] + D;
              output E; }",
        )
        .unwrap();
        // DFG-wide the critical path is C's own msb (16δ), but the path
        // *through E* is 9δ — visible as E's msb arrival.
        let t = arrival_times(&spec);
        let e = spec.ops()[1].result();
        assert_eq!(t.bit(e, 7), 9);
    }

    #[test]
    fn critical_path_matches_walk_on_chains() {
        // DFG-wide analysis agrees with the paper's path walk on chains of
        // equal-width additions.
        for (widths, expect) in
            [(vec![16u32, 16, 16], 18u32), (vec![6, 6, 6], 8), (vec![8, 8], 9), (vec![4], 4)]
        {
            let mut b = SpecBuilder::new("chain");
            let mut acc: Operand = b.input("I0", widths[0]).into();
            for (k, &w) in widths.iter().enumerate() {
                let rhs = b.input(format!("I{}", k + 1), w);
                acc = b.add(&format!("N{k}"), acc, rhs, w).unwrap().into();
            }
            b.output("O", acc);
            let spec = b.finish().unwrap();
            let steps: Vec<PathStep> = widths.iter().map(|&w| step(w)).collect();
            assert_eq!(critical_path(&spec), expect);
            assert_eq!(path_walk_time(&steps), expect);
        }
    }

    #[test]
    fn critical_path_with_truncation_matches_walk() {
        let spec = Spec::parse(
            "spec s { input A: u12; input B: u12; input D: u8;
              C: u12 = A + B;
              E: u8 = C[11:4] + D;
              output E; }",
        )
        .unwrap();
        let steps =
            [PathStep { width: 12, truncated_right: 4 }, PathStep { width: 8, truncated_right: 0 }];
        assert_eq!(critical_path(&spec), path_walk_time(&steps));
    }

    #[test]
    fn op_delays() {
        let spec = Spec::parse(
            "spec s { input A: u8; input B: u8;
              S: u9 = A + B;
              P: u16 = A * B;
              L: u1 = A < B;
              N: u8 = ~A;
              output S; output P; output L; output N; }",
        )
        .unwrap();
        let d: Vec<Delta> = spec.ops().iter().map(|o| op_delay_delta(&spec, o)).collect();
        // The 9-bit add's top bit is a pure carry (settles with bit 7): 8δ.
        assert_eq!(d, vec![8, 24, 8, 0]);
    }
}
