//! Resolution of operand bits to value bits under operand extension.
//!
//! An operation of width `w` reads each operand *as if* extended to `w`
//! bits. Bit `i` of the extended operand is either a real bit of the
//! referenced value, a replicated sign bit (signed extension), or a
//! constant. Timing passes need this mapping in both directions.
//!
//! [`glue_sources`] is the one wiring table of glue: the value bits each
//! output bit of a glue, `Eq`/`Ne` or reduction op reads. Arrival and
//! required times, the placer and register allocation all read it.

use crate::Delta;
use bittrans_ir::prelude::*;

/// Where bit `i` of an extended operand comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BitRef {
    /// Bit `bit` of value `value`.
    Value {
        /// The referenced value.
        value: ValueId,
        /// The bit index within that value.
        bit: u32,
    },
    /// A constant bit (timing: available at t = 0).
    Const,
}

/// Resolves bit `i` of `operand` when the operand is extended to the
/// consuming operation's width with signedness `signed`.
///
/// Beyond the operand's own width, signed extension keeps referencing the
/// operand's most-significant bit; unsigned extension yields constants.
pub fn operand_bit(spec: &Spec, operand: &Operand, i: u32, signed: bool) -> BitRef {
    match operand {
        Operand::Const(_) => BitRef::Const,
        Operand::Value { value, range } => {
            let (lo, w) = match range {
                Some(r) => (r.lo(), r.width()),
                None => (0, spec.value(*value).width()),
            };
            if i < w {
                BitRef::Value { value: *value, bit: lo + i }
            } else if signed {
                BitRef::Value { value: *value, bit: lo + w - 1 }
            } else {
                BitRef::Const
            }
        }
    }
}

/// Visits the value bits that output bit `i` of a glue, `Eq`/`Ne` or
/// reduction `op` reads, as `(value, bit)`.
///
/// Constant bits are skipped, and operands are extended through
/// [`operand_bit`] with the op's signedness. A mux bit reads select bit 0
/// and both data bits; a shift or concatenation bit reads the one bit it
/// routes. Bit 0 of an `Eq`/`Ne` or reduction reads every operand bit, and
/// its higher (zero-extension) bits read nothing.
///
/// # Panics
///
/// Panics if `op` is an additive or multiplicative operation.
pub fn glue_sources(spec: &Spec, op: &Operation, i: u32, mut visit: impl FnMut(ValueId, u32)) {
    let signed = op.signedness().is_signed();
    let mut read = |operand: &Operand, j: u32| {
        if let BitRef::Value { value, bit } = operand_bit(spec, operand, j, signed) {
            visit(value, bit);
        }
    };
    let operands = op.operands();
    match op.kind() {
        OpKind::Not => read(&operands[0], i),
        OpKind::And | OpKind::Or | OpKind::Xor => {
            read(&operands[0], i);
            read(&operands[1], i);
        }
        OpKind::Mux => {
            read(&operands[0], 0);
            read(&operands[1], i);
            read(&operands[2], i);
        }
        OpKind::Shl(k) => {
            if i >= k {
                read(&operands[0], i - k);
            }
        }
        OpKind::Shr(k) => read(&operands[0], i + k),
        OpKind::Concat => {
            let mut base = 0;
            for operand in operands {
                let ow = spec.operand_width(operand);
                if i < base + ow {
                    return read(operand, i - base);
                }
                base += ow;
            }
        }
        OpKind::Eq | OpKind::Ne | OpKind::RedOr | OpKind::RedAnd => {
            if i == 0 {
                for operand in operands {
                    for j in 0..spec.operand_width(operand) {
                        read(operand, j);
                    }
                }
            }
        }
        other => panic!("{other} is not glue"),
    }
}

/// Whether bit `i` of the extended operand is a *known-zero* constant.
///
/// Known-zero bits matter to the ripple model: an adder position whose
/// operand bits are both known zero merely forwards (or kills) the carry,
/// adding no gate delay — the carry-out of a fragment settles together
/// with its top sum bit.
pub fn operand_bit_known_zero(spec: &Spec, operand: &Operand, i: u32, signed: bool) -> bool {
    match operand {
        Operand::Const(bits) => {
            let w = bits.width() as u32;
            if i < w {
                !bits.get(i as usize)
            } else if signed {
                !bits.sign_bit()
            } else {
                true
            }
        }
        Operand::Value { value, range } => {
            let w = match range {
                Some(r) => r.width(),
                None => spec.value(*value).width(),
            };
            i >= w && !signed
        }
    }
}

/// Ripple-chain profile of an `Add` operation: which operand bits are live
/// (not known-zero) at each position, and where the carry chain is alive.
///
/// A position with two live operand bits may *generate* a carry; with one
/// live bit it only *propagates*; with none it *kills* the carry. Sum bits
/// at kill positions are pure wires (the incoming carry or constant zero),
/// so they settle **simultaneously** with the previous position — this is
/// why a fragment's carry-out fits in the same cycle as its top sum bit.
#[derive(Clone, Debug)]
pub struct AddProfile {
    /// Per position: liveness of the two addend bits.
    pub live: Vec<[bool; 2]>,
    /// `carry_live[i]`: the carry *into* position `i` is not known zero.
    /// Length `width + 1`; the last entry describes the dropped carry-out.
    pub carry_live: Vec<bool>,
}

impl AddProfile {
    /// Settle time of sum bit `i` under the refined ripple model, given
    /// its addend bit times `ta` and `tb` and the time `t_carry` of the
    /// carry into it. `zero` is when a constant settles.
    ///
    /// A position with two or three live inputs (addends and carry) is a
    /// real adder stage (+1δ). With one live input it is a wire, and with
    /// none it is the constant `zero`.
    pub fn settle(&self, i: u32, ta: Delta, tb: Delta, t_carry: Delta, zero: Delta) -> Delta {
        let [a_live, b_live] = self.live[i as usize];
        match (a_live, b_live, self.carry_live[i as usize]) {
            (true, true, true) => ta.max(tb).max(t_carry) + 1,
            (true, true, false) => ta.max(tb) + 1,
            (true, false, true) => ta.max(t_carry) + 1,
            (false, true, true) => tb.max(t_carry) + 1,
            (true, false, false) => ta,      // wire
            (false, true, false) => tb,      // wire
            (false, false, true) => t_carry, // pure carry bit
            (false, false, false) => zero,   // constant zero
        }
    }
}

/// Computes the [`AddProfile`] of an `Add` operation.
///
/// # Panics
///
/// Panics if `op` is not an `Add`.
pub fn add_profile(spec: &Spec, op: &bittrans_ir::Operation) -> AddProfile {
    assert_eq!(op.kind(), bittrans_ir::OpKind::Add, "add_profile wants an Add");
    let w = op.width();
    let signed = op.signedness().is_signed();
    let cin_live =
        op.operands().get(2).map(|c| !operand_bit_known_zero(spec, c, 0, false)).unwrap_or(false);
    let mut live = Vec::with_capacity(w as usize);
    let mut carry_live = vec![false; w as usize + 1];
    carry_live[0] = cin_live;
    for i in 0..w {
        let a_live = !operand_bit_known_zero(spec, &op.operands()[0], i, signed);
        let b_live = !operand_bit_known_zero(spec, &op.operands()[1], i, signed);
        live.push([a_live, b_live]);
        carry_live[i as usize + 1] = match (a_live, b_live) {
            (true, true) => true,                                    // may generate
            (true, false) | (false, true) => carry_live[i as usize], // propagates
            (false, false) => false,                                 // kills
        };
    }
    AddProfile { live, carry_live }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_with_input(width: u32) -> (Spec, ValueId) {
        let mut b = SpecBuilder::new("t");
        let a = b.input("A", width);
        let o = b.add("O", a, a, width).unwrap();
        b.output("O", o);
        (b.finish().unwrap(), a)
    }

    #[test]
    fn full_operand_maps_directly() {
        let (spec, a) = spec_with_input(8);
        let op = Operand::value(a);
        assert_eq!(operand_bit(&spec, &op, 3, false), BitRef::Value { value: a, bit: 3 });
    }

    #[test]
    fn sliced_operand_offsets() {
        let (spec, a) = spec_with_input(8);
        let op = Operand::slice(a, BitRange::new(4, 3));
        assert_eq!(operand_bit(&spec, &op, 1, false), BitRef::Value { value: a, bit: 5 });
    }

    #[test]
    fn unsigned_extension_is_constant() {
        let (spec, a) = spec_with_input(8);
        let op = Operand::slice(a, BitRange::new(0, 4));
        assert_eq!(operand_bit(&spec, &op, 6, false), BitRef::Const);
    }

    #[test]
    fn signed_extension_replicates_msb() {
        let (spec, a) = spec_with_input(8);
        let op = Operand::slice(a, BitRange::new(0, 4));
        assert_eq!(operand_bit(&spec, &op, 6, true), BitRef::Value { value: a, bit: 3 });
    }

    /// One op of each glue kind over inputs `a: u4`, `c: u8`, `s: u1`,
    /// in the order: signed `~a` (6 bits), `mux(s, a, c)`, `c << 3`,
    /// signed `a >> 2`, `concat(a, c[7:2])`, `a == c`, `a & 4'd5`, `a + c`.
    fn glue_zoo() -> (Spec, [ValueId; 3]) {
        let mut b = SpecBuilder::new("zoo");
        let a = b.input("a", 4);
        let c = b.input("c", 8);
        let s = b.input("s", 1);
        let signed = Signedness::Signed;
        let unsigned = Signedness::Unsigned;
        let ops: [(OpKind, Vec<Operand>, u32, Signedness); 8] = [
            (OpKind::Not, vec![a.into()], 6, signed),
            (OpKind::Mux, vec![s.into(), a.into(), c.into()], 8, unsigned),
            (OpKind::Shl(3), vec![c.into()], 8, unsigned),
            (OpKind::Shr(2), vec![a.into()], 4, signed),
            (OpKind::Concat, vec![a.into(), Operand::slice(c, BitRange::new(2, 6))], 10, unsigned),
            (OpKind::Eq, vec![a.into(), c.into()], 8, unsigned),
            (OpKind::And, vec![a.into(), Operand::const_u64(5, 4)], 4, unsigned),
            (OpKind::Add, vec![a.into(), c.into()], 8, unsigned),
        ];
        for (kind, operands, width, signedness) in ops {
            let v = b.op(kind, operands, width, signedness, None).unwrap();
            b.output(format!("o{}", v.index()), v);
        }
        (b.finish().unwrap(), [a, c, s])
    }

    /// The `(value, bit)` pairs bit `i` of op `n` reads, in visit order.
    fn sources(spec: &Spec, n: usize, i: u32) -> Vec<(ValueId, u32)> {
        let mut out = Vec::new();
        glue_sources(spec, &spec.ops()[n], i, |value, bit| out.push((value, bit)));
        out
    }

    #[test]
    fn signed_not_past_the_operand_reads_its_msb() {
        let (spec, [a, _, _]) = glue_zoo();
        assert_eq!(sources(&spec, 0, 2), [(a, 2)]);
        assert_eq!(sources(&spec, 0, 5), [(a, 3)]);
    }

    #[test]
    fn mux_reads_select_bit_0_and_both_data_bits() {
        let (spec, [a, c, s]) = glue_zoo();
        assert_eq!(sources(&spec, 1, 2), [(s, 0), (a, 2), (c, 2)]);
        // Unsigned: past `a`'s width only the select and `c` are read.
        assert_eq!(sources(&spec, 1, 6), [(s, 0), (c, 6)]);
    }

    #[test]
    fn shl_low_bits_read_nothing() {
        let (spec, [_, c, _]) = glue_zoo();
        for i in 0..3 {
            assert!(sources(&spec, 2, i).is_empty(), "bit {i}");
        }
        assert_eq!(sources(&spec, 2, 3), [(c, 0)]);
    }

    #[test]
    fn signed_shr_fills_from_the_msb() {
        let (spec, [a, _, _]) = glue_zoo();
        assert_eq!(sources(&spec, 3, 1), [(a, 3)]);
        assert_eq!(sources(&spec, 3, 3), [(a, 3)]);
    }

    #[test]
    fn concat_bit_maps_into_its_operand_at_the_slice_lo() {
        let (spec, [a, c, _]) = glue_zoo();
        assert_eq!(sources(&spec, 4, 3), [(a, 3)]);
        assert_eq!(sources(&spec, 4, 4), [(c, 2)]);
        assert_eq!(sources(&spec, 4, 9), [(c, 7)]);
    }

    #[test]
    fn eq_bit_0_reads_every_operand_bit_and_bit_1_nothing() {
        let (spec, [a, c, _]) = glue_zoo();
        let expect: Vec<_> = (0..4).map(|j| (a, j)).chain((0..8).map(|j| (c, j))).collect();
        assert_eq!(sources(&spec, 5, 0), expect);
        assert!(sources(&spec, 5, 1).is_empty());
    }

    #[test]
    fn constant_operand_reads_nothing() {
        let (spec, [a, _, _]) = glue_zoo();
        assert_eq!(sources(&spec, 6, 1), [(a, 1)]);
    }

    #[test]
    #[should_panic(expected = "is not glue")]
    fn add_is_not_glue() {
        let (spec, _) = glue_zoo();
        sources(&spec, 7, 0);
    }

    #[test]
    fn constants_are_constant() {
        let (spec, _) = spec_with_input(8);
        let op = Operand::const_u64(5, 4);
        assert_eq!(operand_bit(&spec, &op, 0, true), BitRef::Const);
        assert_eq!(operand_bit(&spec, &op, 9, false), BitRef::Const);
    }
}
