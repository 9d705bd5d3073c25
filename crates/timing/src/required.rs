//! Backward (ALAP) per-bit required times under the ripple model.

use crate::arrival::BitTimes;
use crate::bitref::{operand_bit, scatter, BitRef};
use crate::Delta;
use bittrans_ir::prelude::*;

/// Computes the latest time each bit may become available such that the
/// whole specification still completes by `total` (δ units).
///
/// This is the dual of [`arrival_times`](crate::arrival_times): a bit's
/// required time is constrained by the carry chain above it (bit `i+1` of a
/// ripple operation needs bit `i` one δ earlier) and by every consumer.
/// Bits no consumer needs stay at `total`.
///
/// Fragmentation (§3.3) uses `arrival ≤ required` per bit to derive each
/// bit's ASAP/ALAP cycle pair; `arrival > required` anywhere means the
/// requested latency is infeasible at the chosen cycle length.
pub fn required_times(spec: &Spec, total: Delta) -> BitTimes {
    let mut req = BitTimes::filled(spec, total);
    let mut glue = Vec::new();
    for op in spec.ops().iter().rev() {
        eval_op_required(spec, op, &mut req, &mut glue);
    }
    req
}

fn push(req: &mut BitTimes, spec: &Spec, operand: &Operand, i: u32, signed: bool, t: Delta) {
    if let BitRef::Value { value, bit } = operand_bit(spec, operand, i, signed) {
        req.tighten(value, bit, t);
    }
}

/// Minimum required time over the meaningful result bits of `op`.
fn min_out(req: &BitTimes, op: &Operation) -> Delta {
    (0..op.width()).map(|i| req.bit(op.result(), i)).min().unwrap_or(0)
}

/// Tightens the required times of the bits `op` reads from those of its
/// result. `glue` is a scratch row for ops that take no δ.
fn eval_op_required(spec: &Spec, op: &Operation, req: &mut BitTimes, glue: &mut Vec<Delta>) {
    let w = op.width();
    let z = op.result();
    let signed = op.signedness().is_signed();
    match op.kind() {
        // Addition: mirror of the refined forward ripple model (see
        // `arrival`): positions whose operand bits are both known zero are
        // wires and cost no δ; the carry chain breaks where it is killed.
        OpKind::Add => {
            let profile = crate::bitref::add_profile(spec, op);
            // Deadline for the carry *into* position i+1 (i.e. produced by
            // position i). INF where no live carry flows.
            let inf = Delta::MAX;
            let mut carry_req = inf;
            for i in (0..w).rev() {
                let [a_live, b_live] = profile.live[i as usize];
                let carry_in = profile.carry_live[i as usize];
                let carry_out_live = profile.carry_live[i as usize + 1];
                let d_sum = req.bit(z, i);
                let d_carry_out = if carry_out_live { carry_req } else { inf };
                let d = d_sum.min(d_carry_out);
                // The sum bit itself cannot be later than the carry chain
                // above it allows (it settles together with its carry-out).
                req.tighten(z, i, d);
                match (a_live, b_live, carry_in) {
                    (true, true, _) | (true, false, true) | (false, true, true) => {
                        // A real adder stage: inputs one δ before its output.
                        let deadline = d.saturating_sub(1);
                        if a_live {
                            push(req, spec, &op.operands()[0], i, signed, deadline);
                        }
                        if b_live {
                            push(req, spec, &op.operands()[1], i, signed, deadline);
                        }
                        carry_req = if carry_in { deadline } else { inf };
                    }
                    (true, false, false) => {
                        // Wire: sum = a.
                        push(req, spec, &op.operands()[0], i, signed, d);
                        carry_req = inf;
                    }
                    (false, true, false) => {
                        push(req, spec, &op.operands()[1], i, signed, d);
                        carry_req = inf;
                    }
                    (false, false, true) => {
                        // Pure carry bit: sum = carry-in, a wire.
                        carry_req = d;
                    }
                    (false, false, false) => {
                        carry_req = inf;
                    }
                }
            }
            if profile.carry_live[0] && carry_req != inf {
                push(req, spec, &op.operands()[2], 0, false, carry_req);
            }
        }
        OpKind::Sub | OpKind::Neg | OpKind::Abs => {
            // Internal carry chain: bit i must precede bit i+1 by 1δ.
            for i in (0..w.saturating_sub(1)).rev() {
                let above = req.bit(z, i + 1).saturating_sub(1);
                req.tighten(z, i, above);
            }
            for i in 0..w {
                let deadline = req.bit(z, i).saturating_sub(1);
                for operand in &op.operands()[..op.operands().len().min(2)] {
                    push(req, spec, operand, i, signed, deadline);
                }
            }
        }
        // A comparison's chain result is due with its bit 0; a max/min's
        // selects a mux, so it is due with the earliest result bit.
        OpKind::Lt | OpKind::Le | OpKind::Gt | OpKind::Ge | OpKind::Max | OpKind::Min => {
            let w_in = op.operands().iter().map(|o| spec.operand_width(o)).max().unwrap_or(1);
            let select = matches!(op.kind(), OpKind::Max | OpKind::Min);
            let cmp_req = if select { min_out(req, op) } else { req.bit(z, 0) };
            for i in 0..w_in {
                // Input bit i is followed by (w_in - i) chain steps; through
                // a max/min mux it also feeds result bit i directly.
                let via_chain = cmp_req.saturating_sub(w_in - i);
                let deadline =
                    if select && i < w { via_chain.min(req.bit(z, i)) } else { via_chain };
                for operand in op.operands() {
                    push(req, spec, operand, i, signed, deadline);
                }
            }
        }
        OpKind::Mul => {
            let deadline = min_out(req, op).saturating_sub(crate::op_delay_delta(spec, op));
            for operand in op.operands() {
                let ow = spec.operand_width(operand);
                for i in 0..ow {
                    push(req, spec, operand, i, false, deadline);
                }
            }
        }
        // Glue, equality and reductions: 0δ, so every bit a result bit
        // reads is due when that bit is (a mux select by its earliest
        // result bit): the result row scattered with `min`.
        OpKind::Eq
        | OpKind::Ne
        | OpKind::RedOr
        | OpKind::RedAnd
        | OpKind::Not
        | OpKind::And
        | OpKind::Or
        | OpKind::Xor
        | OpKind::Mux
        | OpKind::Shl(_)
        | OpKind::Shr(_)
        | OpKind::Concat => {
            glue.clear();
            glue.extend_from_slice(req.of(z));
            scatter(spec, op, glue, &mut req.times, Delta::min);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::arrival_times;
    use crate::bitref::{glue_sources, oracle_corpus};

    /// [`required_times`] with each glue bit's deadline pushed on its own
    /// through the per-bit oracle.
    fn per_bit_required(spec: &Spec, total: Delta) -> BitTimes {
        let mut req = BitTimes::filled(spec, total);
        let mut glue = Vec::new();
        for op in spec.ops().iter().rev() {
            if !crate::is_zero_delay(op.kind()) {
                eval_op_required(spec, op, &mut req, &mut glue);
                continue;
            }
            for i in 0..op.width() {
                let deadline = req.bit(op.result(), i);
                glue_sources(spec, op, i, |value, bit| req.tighten(value, bit, deadline));
            }
        }
        req
    }

    #[test]
    fn glue_rows_equal_the_per_bit_oracle() {
        for spec in oracle_corpus() {
            let path = arrival_times(&spec).max();
            for total in [path.saturating_sub(2), path, path + 3] {
                let (rows, bits) = (required_times(&spec, total), per_bit_required(&spec, total));
                assert_eq!(rows, bits, "`{}` at {total}δ", spec.name());
            }
        }
    }

    fn parse(src: &str) -> Spec {
        Spec::parse(src).unwrap()
    }

    #[test]
    fn chain_of_three_adds_slack() {
        // 18δ critical path given 18δ total: the chain is tight — required
        // equals arrival on every bit of the chain.
        let s = parse(
            "spec s { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        );
        let arr = arrival_times(&s);
        let req = required_times(&s, 18);
        for op in s.ops() {
            for i in 0..op.width() {
                assert_eq!(
                    req.bit(op.result(), i),
                    arr.bit(op.result(), i),
                    "{} bit {i}",
                    op.label()
                );
            }
        }
    }

    #[test]
    fn slack_appears_with_larger_budget() {
        let s = parse("spec s { input A: u8; input B: u8; C: u8 = A + B; output C; }");
        let req = required_times(&s, 12);
        let c = s.ops()[0].result();
        // C[7] may be as late as 12, C[0] must precede it by 7δ.
        assert_eq!(req.bit(c, 7), 12);
        assert_eq!(req.bit(c, 0), 5);
    }

    #[test]
    fn consumer_constrains_producer() {
        // Fig. 3's B→C→E chain at total 9: E bits required at i+4,
        // C at i+3, B at i+2.
        let s = parse(
            "spec s { input i1: u6; input i2: u6; input i3: u6; input i4: u6;
              B: u6 = i1 + i2; C: u6 = B + i3; E: u6 = C + i4; output E; }",
        );
        let req = required_times(&s, 9);
        let b = s.ops()[0].result();
        let c = s.ops()[1].result();
        let e = s.ops()[2].result();
        for i in 0..6u32 {
            assert_eq!(req.bit(e, i), i + 4);
            assert_eq!(req.bit(c, i), i + 3);
            assert_eq!(req.bit(b, i), i + 2);
        }
    }

    #[test]
    fn feasibility_check_works() {
        let s = parse(
            "spec s { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        );
        let arr = arrival_times(&s);
        // 17δ is infeasible: some bit's required time drops below arrival.
        let req = required_times(&s, 17);
        let infeasible = s
            .values()
            .iter()
            .any(|v| (0..v.width()).any(|i| arr.bit(v.id(), i) > req.bit(v.id(), i)));
        assert!(infeasible);
        // 18δ is feasible.
        let req = required_times(&s, 18);
        let infeasible = s
            .values()
            .iter()
            .any(|v| (0..v.width()).any(|i| arr.bit(v.id(), i) > req.bit(v.id(), i)));
        assert!(!infeasible);
    }

    #[test]
    fn unused_bits_stay_at_total() {
        let s = parse(
            "spec s { input A: u8; input B: u8;
              C: u8 = A + B;
              D: u4 = C[3:0] + 4'd1;
              output D; }",
        );
        let req = required_times(&s, 20);
        let c = s.ops()[0].result();
        // C[7] feeds nothing (D only reads C[3:0]); it may be as late as 20.
        assert_eq!(req.bit(c, 7), 20);
        // C[0] is bound by C's own carry chain: even unused, C[7] must be
        // produced by 20, and the ripple from bit 0 takes 7δ. The consumer
        // constraint through D (16δ) is looser.
        assert_eq!(req.bit(c, 0), 13);
    }

    #[test]
    fn carry_in_required_before_bit0() {
        let s = parse(
            "spec s { input A: u4; input B: u4; input D: u4;
              X: u5 = A + B;
              Y: u4 = A + D + X[4];
              output Y; }",
        );
        let req = required_times(&s, 10);
        let x = s.ops()[0].result();
        // Y[0] required at 10-3=7, so X[4] must be ready by 6.
        assert_eq!(req.bit(x, 4), 6);
    }

    #[test]
    fn glue_propagates_without_decrement() {
        let s = parse(
            "spec s { input A: u8; input B: u8;
              N: u8 = ~A;
              C: u8 = N + B;
              output C; }",
        );
        let req = required_times(&s, 8);
        let n = s.ops()[0].result();
        // C[i] required at i+1... wait, C[7] at 8, C[0] at 1; N[0] at 0.
        assert_eq!(req.bit(n, 0), 0);
        assert_eq!(req.bit(n, 7), 7);
    }

    #[test]
    fn mux_select_needs_all_branch_deadlines() {
        let s = parse(
            "spec s { input sel: u1; input A: u8; input B: u8;
              M: u8 = mux(sel, A, B);
              C: u8 = M + A;
              output C; }",
        );
        let req = required_times(&s, 8);
        let sel = s.input_by_name("sel").unwrap();
        // M[0] is needed at 0 (first chain bit of C), so sel too.
        assert_eq!(req.bit(sel, 0), 0);
    }
}
