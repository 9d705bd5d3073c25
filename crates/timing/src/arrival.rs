//! Forward (ASAP) per-bit arrival times under the ripple model.

use crate::bitref::{add_profile, gather_max, glue_wires, operand_bit, BitRef};
use crate::table::BitTable;
use crate::Delta;
use bittrans_ir::prelude::*;

/// Per-bit times for every value of a spec, in δ units: one flat
/// [`BitTable`] with a start offset per value.
///
/// Produced by [`arrival_times`] (earliest availability)
/// and [`required_times`](crate::required_times) (latest allowed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitTimes {
    pub(crate) times: BitTable<Delta>,
}

impl BitTimes {
    pub(crate) fn filled(spec: &Spec, fill: Delta) -> Self {
        BitTimes { times: BitTable::filled(spec, fill) }
    }

    /// The time of bit `i` of `value`.
    ///
    /// # Panics
    ///
    /// Panics if the value or bit index is out of range.
    pub fn bit(&self, value: ValueId, i: u32) -> Delta {
        self.times[value][i as usize]
    }

    /// All bit times of `value`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `value` is out of range.
    pub fn of(&self, value: ValueId) -> &[Delta] {
        &self.times[value]
    }

    /// The largest time anywhere (for arrival times: the critical path).
    pub fn max(&self) -> Delta {
        self.times.cells().iter().copied().max().unwrap_or(0)
    }

    pub(crate) fn tighten(&mut self, value: ValueId, i: u32, t: Delta) {
        let slot = &mut self.times[value][i as usize];
        *slot = (*slot).min(t);
    }
}

/// Computes the earliest availability of every bit of every value.
///
/// Input-port and constant bits arrive at t = 0, and every operation's
/// result bits settle per [`settle_times`]; an op that takes no δ settles
/// its row through [`gather_max`], one slice loop per wiring span.
pub fn arrival_times(spec: &Spec) -> BitTimes {
    let mut times = BitTimes::filled(spec, 0);
    let mut glue = Vec::new();
    for op in spec.ops() {
        if crate::is_zero_delay(op.kind()) {
            glue.clear();
            glue.resize(op.width() as usize, 0);
            gather_max(spec, op, &mut glue, |value, _| &times.times[value]);
            times.times[op.result()].copy_from_slice(&glue);
            continue;
        }
        let row = settle_times(spec, op, 0, |value, bit| Some(times.bit(value, bit)))
            .expect("every bit is available");
        times.times[op.result()].copy_from_slice(&row);
    }
    times
}

/// When each result bit of `op` settles under the ripple model, LSB first:
/// the crate's one forward timing rule. `bit_time(value, bit)` is when a bit
/// `op` reads is available, `None` if not yet (then so is the result);
/// constant bits are available at `zero`, and no result bit settles before.
///
/// * `Add` ripples through [`AddProfile::settle`](crate::bitref::AddProfile::settle):
///   bit `i` settles at `max(t(z[i-1]), t(a[i]), t(b[i])) + 1`, and a
///   position with known-zero addend bits is a wire.
/// * `Sub`, `Neg` and `Abs` ripple +1δ per bit across their width.
/// * Ordered comparisons run a subtract chain whose end is result bit 0;
///   the bits above are zero-extension constants. `Max`/`Min` select with
///   a 0δ mux, so every result bit settles with the chain.
/// * `Mul` is atomic: every bit settles [`op_delay_delta`](crate::op_delay_delta)
///   after its latest input bit (kernel extraction lowers it to additions).
/// * Kinds that take no δ ([`is_zero_delay`](crate::is_zero_delay)) settle
///   each bit with the latest bit it reads ([`glue_wires`]).
pub fn settle_times(
    spec: &Spec,
    op: &Operation,
    zero: Delta,
    mut bit_time: impl FnMut(ValueId, u32) -> Option<Delta>,
) -> Option<Vec<Delta>> {
    let w = op.width();
    if crate::is_zero_delay(op.kind()) {
        let mut row = vec![Some(zero); w as usize];
        glue_wires(spec, op, |wire| {
            wire.for_each_bit(|i, bit| {
                let t = &mut row[i as usize];
                *t = t.zip(bit_time(wire.value(), bit)).map(|(t, tb)| t.max(tb));
            });
        });
        return row.into_iter().collect();
    }
    let signed = op.signedness().is_signed();
    let mut in_time = |operand: &Operand, i: u32| match operand_bit(spec, operand, i, signed) {
        BitRef::Const => Some(zero),
        BitRef::Value { value, bit } => bit_time(value, bit),
    };
    let operands = op.operands();
    let times = match op.kind() {
        OpKind::Add => {
            let profile = add_profile(spec, op);
            let mut t_carry = if profile.carry_live[0] { in_time(&operands[2], 0)? } else { zero };
            let mut out = Vec::with_capacity(w as usize);
            for i in 0..w {
                let (ta, tb) = (in_time(&operands[0], i)?, in_time(&operands[1], i)?);
                let t = profile.settle(i, ta, tb, t_carry, zero);
                out.push(t);
                t_carry = if profile.carry_live[i as usize + 1] { t } else { zero };
            }
            out
        }
        OpKind::Sub | OpKind::Neg | OpKind::Abs => {
            let mut prev = zero;
            let mut out = Vec::with_capacity(w as usize);
            for i in 0..w {
                for operand in operands {
                    prev = prev.max(in_time(operand, i)?);
                }
                prev += 1;
                out.push(prev);
            }
            out
        }
        OpKind::Lt | OpKind::Le | OpKind::Gt | OpKind::Ge | OpKind::Max | OpKind::Min => {
            let w_in = operands.iter().map(|o| spec.operand_width(o)).max().unwrap_or(1);
            let mut chain = zero;
            for i in 0..w_in {
                for operand in operands {
                    chain = chain.max(in_time(operand, i)?);
                }
                chain += 1;
            }
            let select = matches!(op.kind(), OpKind::Max | OpKind::Min);
            (0..w).map(|i| if select || i == 0 { chain } else { zero }).collect()
        }
        OpKind::Mul => {
            let mut start = zero;
            for operand in operands {
                for j in 0..spec.operand_width(operand) {
                    start = start.max(in_time(operand, j)?);
                }
            }
            vec![start + crate::op_delay_delta(spec, op); w as usize]
        }
        other => unreachable!("{other} takes no δ"),
    };
    Some(times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitref::{glue_sources, oracle_corpus};

    /// [`arrival_times`] with each glue bit settled on its own through the
    /// per-bit oracle.
    fn per_bit_arrival(spec: &Spec) -> BitTimes {
        let mut times = BitTimes::filled(spec, 0);
        for op in spec.ops() {
            let row: Vec<Delta> = if crate::is_zero_delay(op.kind()) {
                let latest = |i| {
                    let mut t = 0;
                    glue_sources(spec, op, i, |value, bit| t = t.max(times.bit(value, bit)));
                    t
                };
                (0..op.width()).map(latest).collect()
            } else {
                settle_times(spec, op, 0, |value, bit| Some(times.bit(value, bit))).unwrap()
            };
            times.times[op.result()].copy_from_slice(&row);
        }
        times
    }

    #[test]
    fn glue_rows_equal_the_per_bit_oracle() {
        for spec in oracle_corpus() {
            let arr = arrival_times(&spec);
            assert_eq!(arr, per_bit_arrival(&spec), "`{}`", spec.name());
            // `settle_times` times glue bit by bit the same way, and a bit
            // not yet available leaves the result unavailable.
            for op in spec.ops().iter().filter(|op| crate::is_zero_delay(op.kind())) {
                let settled = settle_times(&spec, op, 0, |value, bit| Some(arr.bit(value, bit)));
                assert_eq!(settled.as_deref(), Some(arr.of(op.result())), "{}", op.label());
                let mut reads = false;
                crate::bitref::glue_wires(&spec, op, |_| reads = true);
                let none = settle_times(&spec, op, 0, |_, _| None);
                assert_eq!(none.is_none(), reads, "{}", op.label());
            }
        }
    }

    fn parse(src: &str) -> Spec {
        Spec::parse(src).unwrap()
    }

    #[test]
    fn single_add_ripples() {
        let s = parse("spec s { input A: u8; input B: u8; C: u8 = A + B; output C; }");
        let t = arrival_times(&s);
        let c = s.ops()[0].result();
        let expect: Vec<Delta> = (1..=8).collect();
        assert_eq!(t.of(c), expect.as_slice());
    }

    #[test]
    fn fig1e_three_chained_adds_take_18_delta() {
        // Paper Fig. 1 e): C bits at t+(i+1)δ, E at t+(i+2)δ, G at t+(i+3)δ;
        // the chain completes after 18δ.
        let s = parse(
            "spec s { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        );
        let t = arrival_times(&s);
        let c = s.ops()[0].result();
        let e = s.ops()[1].result();
        let g = s.ops()[2].result();
        for i in 0..16u32 {
            assert_eq!(t.bit(c, i), i + 1);
            assert_eq!(t.bit(e, i), i + 2);
            assert_eq!(t.bit(g, i), i + 3);
        }
        assert_eq!(t.max(), 18);
    }

    #[test]
    fn fig3_rippling_makes_fh_path_critical() {
        // Paper Fig. 3 a): B,C,E are chained 6-bit adds (8δ total); F and G
        // are 8-bit adds feeding H (9δ total) — the true critical path.
        let s = parse(
            "spec s {
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
        );
        let t = arrival_times(&s);
        let e = s.ops()[2].result();
        let h = s.ops()[7].result();
        assert_eq!(t.bit(e, 5), 8);
        assert_eq!(t.bit(h, 7), 9);
        assert_eq!(t.max(), 9);
    }

    #[test]
    fn carry_in_contributes_to_bit0() {
        let s = parse(
            "spec s { input A: u4; input B: u4; input D: u4;
              X: u5 = A + B;
              Y: u4 = A + D + X[4];
              output Y; }",
        );
        let t = arrival_times(&s);
        let x = s.ops()[0].result();
        // X[4] is a pure carry bit: it settles *with* X[3] at 4δ, not one
        // δ later (the carry-out of a ripple stage is simultaneous with
        // its sum bit).
        assert_eq!(t.bit(x, 3), 4);
        assert_eq!(t.bit(x, 4), 4);
        let y = s.ops().last().unwrap().result();
        // Y consumes the carry at 4δ, so Y[0] = 5δ.
        assert_eq!(t.bit(y, 0), 5);
    }

    #[test]
    fn glue_is_free() {
        let s = parse(
            "spec s { input A: u8; input B: u8;
              N: u8 = ~A;
              X: u8 = N ^ B;
              C: u8 = X + B;
              output C; }",
        );
        let t = arrival_times(&s);
        let c = s.ops().last().unwrap().result();
        assert_eq!(t.bit(c, 0), 1); // glue added no δ
    }

    #[test]
    fn truncated_lsbs_shift_arrival() {
        // Consuming only the high bits of a producer means waiting for them:
        // E = C[7:4] + D starts at C[4]'s arrival (5δ), matching the paper's
        // `truncated_right` correction.
        let s = parse(
            "spec s { input A: u8; input B: u8; input D: u4;
              C: u8 = A + B;
              E: u4 = C[7:4] + D;
              output E; }",
        );
        let t = arrival_times(&s);
        let e = s.ops()[1].result();
        assert_eq!(t.bit(e, 0), 6); // C[4] at 5δ, +1δ
        assert_eq!(t.bit(e, 3), 9);
    }

    #[test]
    fn comparison_produces_late_single_bit() {
        let s = parse("spec s { input A: u8; input B: u8; output L = A < B; }");
        let t = arrival_times(&s);
        let l = s.ops()[0].result();
        assert_eq!(t.bit(l, 0), 8);
    }

    #[test]
    fn max_waits_for_comparison() {
        let s = parse("spec s { input A: u8; input B: u8; output M = max(A, B); }");
        let t = arrival_times(&s);
        let m = s.ops()[0].result();
        for i in 0..8 {
            assert_eq!(t.bit(m, i), 8);
        }
    }

    #[test]
    fn mul_is_conservative() {
        let s = parse("spec s { input A: u8; input B: u8; output P = A * B; }");
        let t = arrival_times(&s);
        let p = s.ops()[0].result();
        // 8×8 array: wider operand (8) + 2δ per partial-product row (16).
        assert_eq!(t.bit(p, 0), 24);
        assert_eq!(t.bit(p, 15), 24);
    }

    #[test]
    fn sub_ripples_like_add() {
        let s = parse("spec s { input A: u8; input B: u8; D: u8 = A - B; output D; }");
        let t = arrival_times(&s);
        let d = s.ops()[0].result();
        assert_eq!(t.bit(d, 7), 8);
    }

    #[test]
    fn concat_and_shift_route_times() {
        let s = parse(
            "spec s { input A: u4; input B: u4;
              S: u5 = A + B;
              W: u9 = concat(B, S);
              X: u6 = S << 1;
              output W; output X; }",
        );
        let t = arrival_times(&s);
        let w = s.ops()[1].result();
        assert_eq!(t.bit(w, 0), 0); // B bit
        assert_eq!(t.bit(w, 4), 1); // S[0]
        let x = s.ops()[2].result();
        assert_eq!(t.bit(x, 0), 0); // shifted-in zero
        assert_eq!(t.bit(x, 1), 1); // S[0]
    }
}
