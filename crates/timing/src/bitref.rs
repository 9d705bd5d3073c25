//! Resolution of operand bits to value bits under operand extension.
//!
//! An operation of width `w` reads each operand *as if* extended to `w`
//! bits. Bit `i` of the extended operand is either a real bit of the
//! referenced value, a replicated sign bit (signed extension), or a
//! constant. Timing passes need this mapping in both directions.
//!
//! [`glue_wires`] is the one wiring table of glue: the value bits each
//! output bit of a glue, `Eq`/`Ne` or reduction op reads, as a few spans
//! per op. A [`Wire::Aligned`] span routes a run of source bits one to one,
//! a [`Wire::Broadcast`] feeds one source bit (a sign extension, a mux
//! select) to a run of output bits, and a [`Wire::Reduce`] feeds a run of
//! source bits to output bit 0. Arrival and required times, the placer and
//! register allocation read it through two slice kernels over
//! [`BitTable`] rows: [`gather_max`] forward and [`scatter`] backward.

use crate::table::BitTable;
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

/// One span of the wiring of a glue, `Eq`/`Ne` or reduction op: a run of
/// output bits and the bits of one value they read ([`glue_wires`]).
/// Every span covers at least one bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// Output bit `dst_lo + j` reads bit `src_lo + j` of `value`, for each
    /// `j < len`.
    Aligned {
        /// The first output bit.
        dst_lo: u32,
        /// The number of bits.
        len: u32,
        /// The value read.
        value: ValueId,
        /// The bit of `value` output bit `dst_lo` reads.
        src_lo: u32,
    },
    /// Every output bit in `dst_lo..dst_lo + len` reads bit `bit` of
    /// `value`: a signed operand's extension, or a mux select.
    Broadcast {
        /// The first output bit.
        dst_lo: u32,
        /// The number of bits.
        len: u32,
        /// The value read.
        value: ValueId,
        /// The one bit of `value` they all read.
        bit: u32,
    },
    /// Output bit 0 reads bits `src_lo..src_lo + len` of `value`.
    Reduce {
        /// The number of bits read.
        len: u32,
        /// The value read.
        value: ValueId,
        /// The lowest bit read.
        src_lo: u32,
    },
}

impl Wire {
    /// The value the span reads.
    pub fn value(self) -> ValueId {
        match self {
            Wire::Aligned { value, .. }
            | Wire::Broadcast { value, .. }
            | Wire::Reduce { value, .. } => value,
        }
    }

    /// The highest bit of [`Self::value`] the span reads.
    pub fn top(self) -> u32 {
        match self {
            Wire::Aligned { len, src_lo, .. } | Wire::Reduce { len, src_lo, .. } => {
                src_lo + len - 1
            }
            Wire::Broadcast { bit, .. } => bit,
        }
    }

    /// Visits every `(output bit, value bit)` pair of the span, output
    /// bits in ascending order.
    pub fn for_each_bit(self, mut visit: impl FnMut(u32, u32)) {
        match self {
            Wire::Aligned { dst_lo, len, src_lo, .. } => {
                (0..len).for_each(|j| visit(dst_lo + j, src_lo + j));
            }
            Wire::Broadcast { dst_lo, len, bit, .. } => {
                (dst_lo..dst_lo + len).for_each(|i| visit(i, bit));
            }
            Wire::Reduce { len, src_lo, .. } => (src_lo..src_lo + len).for_each(|b| visit(0, b)),
        }
    }
}

/// Visits the spans ([`Wire`]) that say which value bits each output bit
/// of a glue, `Eq`/`Ne` or reduction `op` reads: the one wiring table of
/// glue, a few spans per op.
///
/// Constant bits are skipped, and operands are extended as
/// [`operand_bit`] does with the op's signedness: past an operand's width
/// a signed operand is a [`Wire::Broadcast`] of its most-significant bit
/// and an unsigned one reads nothing. A mux bit reads select bit 0 and
/// both data bits; a shift or concatenation bit reads the one bit it
/// routes, and a left shift's low bits read nothing. Bit 0 of an `Eq`/`Ne`
/// or reduction reads every operand bit ([`Wire::Reduce`]), and its higher
/// (zero-extension) bits read nothing.
///
/// # Panics
///
/// Panics if `op` is an additive or multiplicative operation.
pub fn glue_wires(spec: &Spec, op: &Operation, mut visit: impl FnMut(Wire)) {
    let w = op.width();
    let signed = op.signedness().is_signed();
    let operands = op.operands();
    let visit = &mut visit;
    match op.kind() {
        OpKind::Not => extended(spec, &operands[0], signed, 0, 0, w, visit),
        OpKind::And | OpKind::Or | OpKind::Xor => {
            extended(spec, &operands[0], signed, 0, 0, w, visit);
            extended(spec, &operands[1], signed, 0, 0, w, visit);
        }
        OpKind::Mux => {
            if let BitRef::Value { value, bit } = operand_bit(spec, &operands[0], 0, signed) {
                visit(Wire::Broadcast { dst_lo: 0, len: w, value, bit });
            }
            extended(spec, &operands[1], signed, 0, 0, w, visit);
            extended(spec, &operands[2], signed, 0, 0, w, visit);
        }
        OpKind::Shl(k) => {
            if k < w {
                extended(spec, &operands[0], signed, k, 0, w - k, visit);
            }
        }
        OpKind::Shr(k) => extended(spec, &operands[0], signed, 0, k, w, visit),
        OpKind::Concat => {
            let mut base = 0;
            for operand in operands {
                let ow = spec.operand_width(operand);
                match operand {
                    Operand::Value { value, .. } if base < w => {
                        let (len, src_lo) = (ow.min(w - base), value_lo(operand));
                        visit(Wire::Aligned { dst_lo: base, len, value: *value, src_lo });
                    }
                    _ => {}
                }
                base += ow;
            }
        }
        OpKind::Eq | OpKind::Ne | OpKind::RedOr | OpKind::RedAnd => {
            for operand in operands {
                if let Operand::Value { value, .. } = operand {
                    let (len, src_lo) = (spec.operand_width(operand), value_lo(operand));
                    visit(Wire::Reduce { len, value: *value, src_lo });
                }
            }
        }
        other => panic!("{other} is not glue"),
    }
}

/// The lowest bit of its value a value operand reads.
fn value_lo(operand: &Operand) -> u32 {
    match operand {
        Operand::Value { range: Some(r), .. } => r.lo(),
        _ => 0,
    }
}

/// Visits the spans of `n` output bits from `dst_lo` that read `operand`,
/// extended with `signed`, from its bit `from` on.
fn extended(
    spec: &Spec,
    operand: &Operand,
    signed: bool,
    dst_lo: u32,
    from: u32,
    n: u32,
    visit: &mut impl FnMut(Wire),
) {
    let Operand::Value { value, .. } = operand else {
        return;
    };
    let (lo, ow) = (value_lo(operand), spec.operand_width(operand));
    let real = ow.saturating_sub(from).min(n);
    if real > 0 {
        visit(Wire::Aligned { dst_lo, len: real, value: *value, src_lo: lo + from });
    }
    if signed && real < n {
        let (dst_lo, len) = (dst_lo + real, n - real);
        visit(Wire::Broadcast { dst_lo, len, value: *value, bit: lo + ow - 1 });
    }
}

/// Raises each entry of `row`, the result row of a glue, `Eq`/`Ne` or
/// reduction `op`, to the latest of the bits it reads ([`glue_wires`]):
/// the forward kernel of every bit-level pass, one slice loop per span.
/// For `bool` the latest is the logical or.
///
/// `read(value, top)` is the row of `value`; `top` is the highest bit the
/// span reads, for a caller that checks the row is readable that far.
///
/// # Panics
///
/// Panics if `op` is not glue, `Eq`/`Ne` or a reduction, or if `row` or a
/// row `read` returns is shorter than a span.
pub fn gather_max<'t, T: Ord + Copy + 't>(
    spec: &Spec,
    op: &Operation,
    row: &mut [T],
    mut read: impl FnMut(ValueId, u32) -> &'t [T],
) {
    glue_wires(spec, op, |wire| {
        let src = read(wire.value(), wire.top());
        match wire {
            Wire::Aligned { dst_lo, len, src_lo, .. } => {
                let out = &mut row[dst_lo as usize..][..len as usize];
                for (o, &s) in out.iter_mut().zip(&src[src_lo as usize..][..len as usize]) {
                    *o = (*o).max(s);
                }
            }
            Wire::Broadcast { dst_lo, len, bit, .. } => {
                let s = src[bit as usize];
                for o in &mut row[dst_lo as usize..][..len as usize] {
                    *o = (*o).max(s);
                }
            }
            Wire::Reduce { len, src_lo, .. } => {
                if let Some(&s) = src[src_lo as usize..][..len as usize].iter().max() {
                    row[0] = row[0].max(s);
                }
            }
        }
    });
}

/// Combines each entry of `row`, one per result bit of a glue, `Eq`/`Ne`
/// or reduction `op`, into every bit of `table` that result bit reads
/// ([`glue_wires`]): the backward kernel, one slice loop per span.
/// `combine` must be commutative and associative (`min` for deadlines,
/// `max` for last reads), so the order spans arrive in does not matter.
///
/// # Panics
///
/// Panics if `op` is not glue, `Eq`/`Ne` or a reduction, or if `row` is
/// shorter than a span.
pub fn scatter<T: Copy>(
    spec: &Spec,
    op: &Operation,
    row: &[T],
    table: &mut BitTable<T>,
    combine: impl Fn(T, T) -> T,
) {
    glue_wires(spec, op, |wire| {
        let src = &mut table[wire.value()];
        match wire {
            Wire::Aligned { dst_lo, len, src_lo, .. } => {
                let out = &row[dst_lo as usize..][..len as usize];
                for (s, &o) in src[src_lo as usize..][..len as usize].iter_mut().zip(out) {
                    *s = combine(*s, o);
                }
            }
            Wire::Broadcast { dst_lo, len, bit, .. } => {
                let s = &mut src[bit as usize];
                *s = row[dst_lo as usize..][..len as usize].iter().fold(*s, |s, &o| combine(s, o));
            }
            Wire::Reduce { len, src_lo, .. } => {
                for s in &mut src[src_lo as usize..][..len as usize] {
                    *s = combine(*s, row[0]);
                }
            }
        }
    });
}

/// Specs whose glue covers the wiring cases: the kind zoo, wide
/// reductions feeding adders (so their bit 0 is due before bit 1), and
/// `random_spec` seeds 0..64 across the fuzz shapes with their kernels
/// and their fragmentations at λ 2, 3, 4 and 6.
#[cfg(test)]
pub(crate) fn oracle_corpus() -> Vec<Spec> {
    use bittrans_benchmarks::{kind_zoo, random_spec, FUZZ_SHAPES};
    use bittrans_frag::{fragment, FragmentOptions};
    let reductions = Spec::parse(
        "spec reductions { input a: u8; input c: u3; input d: u4;
          s: u8 = a + d; r: u3 = redor(s[6:2]); e: u4 = s == c;
          y: u3 = r + c; z: u4 = e + d; output y; output z; }",
    )
    .expect("valid reductions spec");
    let mut specs = vec![kind_zoo(true), kind_zoo(false), reductions];
    for seed in 0..64 {
        let spec = random_spec(seed, &FUZZ_SHAPES[seed as usize % 4]);
        let kernel = bittrans_kernel::extract(&spec).expect("random specs extract");
        for latency in [2, 3, 4, 6] {
            if let Ok(f) = fragment(&kernel, &FragmentOptions::with_latency(latency)) {
                specs.push(f.spec);
            }
        }
        specs.extend([spec, kernel]);
    }
    specs
}

/// The per-bit statement of [`glue_wires`], kept as its test oracle:
/// visits the value bits that output bit `i` of a glue, `Eq`/`Ne` or
/// reduction `op` reads, as `(value, bit)`.
#[cfg(test)]
pub(crate) fn glue_sources(
    spec: &Spec,
    op: &Operation,
    i: u32,
    mut visit: impl FnMut(ValueId, u32),
) {
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

    /// The `(value, bit)` pairs bit `i` of op `n` reads, in span order.
    fn sources(spec: &Spec, n: usize, i: u32) -> Vec<(ValueId, u32)> {
        let mut out = Vec::new();
        glue_wires(spec, &spec.ops()[n], |wire| {
            wire.for_each_bit(|dst, bit| {
                if dst == i {
                    out.push((wire.value(), bit));
                }
            });
        });
        out
    }

    #[test]
    fn glue_wires_expand_to_the_per_bit_oracle() {
        let mut checked = 0;
        for spec in oracle_corpus() {
            for op in spec.ops().iter().filter(|op| crate::is_zero_delay(op.kind())) {
                let mut wired = vec![Vec::new(); op.width() as usize];
                glue_wires(&spec, op, |wire| {
                    let mut bits = 0;
                    wire.for_each_bit(|i, bit| {
                        bits += 1;
                        wired[i as usize].push((wire.value(), bit));
                    });
                    assert!(bits > 0, "an empty span: {wire:?}");
                });
                for (i, got) in (0..).zip(&mut wired) {
                    let mut want = Vec::new();
                    glue_sources(&spec, op, i, |value, bit| want.push((value, bit)));
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(*got, want, "bit {i} of {} in `{}`", op.label(), spec.name());
                }
                checked += 1;
            }
        }
        assert!(checked > 5_000, "only {checked} glue ops");
    }

    #[test]
    fn spans_cover_signed_extension_shifts_and_reductions() {
        // Op `i` of the zoo is unsigned, op `n + i` the same op signed.
        let spec = bittrans_benchmarks::kind_zoo(false);
        let n = spec.ops().len() / 2;
        let wires = |i: usize| {
            let mut out = Vec::new();
            glue_wires(&spec, &spec.ops()[i], |wire| out.push(wire));
            out
        };
        let [s, x] = [0, 1].map(|i| spec.inputs()[i]);
        // `~x` at 8 bits: six routed bits, then the sign bit twice.
        assert_eq!(
            wires(n + 3),
            [
                Wire::Aligned { dst_lo: 0, len: 6, value: x, src_lo: 0 },
                Wire::Broadcast { dst_lo: 6, len: 2, value: x, bit: 5 },
            ]
        );
        assert_eq!(wires(3), [Wire::Aligned { dst_lo: 0, len: 6, value: x, src_lo: 0 }]);
        // `s << 2` at 10 bits routes `s` to bits 2..10; `s << 12` reads nothing.
        assert_eq!(wires(7), [Wire::Aligned { dst_lo: 2, len: 8, value: s, src_lo: 0 }]);
        assert!(wires(n + 10).is_empty());
        // Signed `s[7:3] >> 7` at 9 bits: past the slice, so every bit is its msb.
        assert_eq!(wires(n + 11), [Wire::Broadcast { dst_lo: 0, len: 9, value: s, bit: 7 }]);
        assert!(wires(11).is_empty());
        // `redor(s[7:3])` at 3 bits: bit 0 reads the slice.
        assert_eq!(wires(15), [Wire::Reduce { len: 5, value: s, src_lo: 3 }]);
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
