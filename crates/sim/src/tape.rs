//! A specification compiled once to a flat tape over `u64` slots.
//!
//! [`evaluate`](crate::evaluate) interprets a spec through heap [`Bits`]
//! and is the oracle. The equivalence checker runs millions of vectors
//! through the same two specs, so it lowers each spec once: every value
//! gets one masked `u64` slot, and every operation becomes a [`Step`]
//! reading its operands from one shared [`Src`] list. A spec with any
//! value or constant wider than 64 bits does not compile, and the checker
//! keeps to the interpreter for it.

use crate::InputVector;
use bittrans_ir::prelude::*;
use std::cmp::Ordering;

/// Where a step or an output port reads its bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Src {
    /// `width` bits of a value's slot, starting at bit `lo`.
    Slot { slot: u32, lo: u32, width: u32 },
    /// A constant of `width` bits.
    Const { word: u64, width: u32 },
}

/// One operation: `slots[dest] = kind(srcs[args])`, masked to `width`.
#[derive(Clone, Debug)]
struct Step {
    kind: OpKind,
    signed: bool,
    width: u32,
    dest: u32,
    args: (u32, u32),
}

/// An input port's slot and width.
#[derive(Clone, Debug)]
pub(crate) struct Port {
    pub(crate) name: String,
    pub(crate) slot: u32,
    pub(crate) width: u32,
}

/// A compiled spec together with its slot state.
#[derive(Clone, Debug)]
pub(crate) struct Tape {
    steps: Vec<Step>,
    srcs: Vec<Src>,
    inputs: Vec<Port>,
    outputs: Vec<(String, Src)>,
    slots: Vec<u64>,
}

impl Tape {
    /// Lowers `spec` in one pass over its operations, or `None` if a value
    /// or a constant is wider than 64 bits.
    pub(crate) fn compile(spec: &Spec) -> Option<Tape> {
        if spec.values().iter().any(|v| v.width() > 64) {
            return None;
        }
        let src = |operand: &Operand| match operand {
            Operand::Value { value, range } => {
                let (lo, width) =
                    range.map_or((0, spec.value(*value).width()), |r| (r.lo(), r.width()));
                Some(Src::Slot { slot: value.index() as u32, lo, width })
            }
            Operand::Const(bits) if bits.width() <= 64 => {
                Some(Src::Const { word: bits.to_u64(), width: bits.width() as u32 })
            }
            Operand::Const(_) => None,
        };
        let mut srcs = Vec::new();
        let mut steps = Vec::with_capacity(spec.ops().len());
        for op in spec.ops() {
            let first = srcs.len() as u32;
            for operand in op.operands() {
                srcs.push(src(operand)?);
            }
            steps.push(Step {
                kind: op.kind(),
                signed: op.signedness().is_signed(),
                width: op.width(),
                dest: op.result().index() as u32,
                args: (first, srcs.len() as u32),
            });
        }
        let inputs = spec
            .inputs()
            .iter()
            .map(|&v| Port {
                name: spec.input_name(v).to_string(),
                slot: v.index() as u32,
                width: spec.value(v).width(),
            })
            .collect();
        let outputs = spec
            .outputs()
            .iter()
            .map(|port| Some((port.name().to_string(), src(port.operand())?)))
            .collect::<Option<_>>()?;
        Some(Tape { steps, srcs, inputs, outputs, slots: vec![0; spec.values().len()] })
    }

    /// The input ports, in spec order.
    pub(crate) fn inputs(&self) -> &[Port] {
        &self.inputs
    }

    /// Where output port `name` reads from.
    pub(crate) fn output(&self, name: &str) -> Option<Src> {
        self.outputs.iter().find(|(n, _)| n == name).map(|&(_, src)| src)
    }

    /// Stores `word` in `slot`; the caller masks it to the slot's width.
    pub(crate) fn set(&mut self, slot: u32, word: u64) {
        self.slots[slot as usize] = word;
    }

    /// Loads every input port from `inputs`, or returns `false` if one is
    /// unbound or bound at the wrong width.
    pub(crate) fn load(&mut self, inputs: &InputVector) -> bool {
        for port in &self.inputs {
            match inputs.get(&port.name) {
                Some(bits) if bits.width() == port.width as usize => {
                    self.slots[port.slot as usize] = bits.to_u64();
                }
                _ => return false,
            }
        }
        true
    }

    /// The loaded input ports as an [`InputVector`].
    pub(crate) fn input_vector(&self) -> InputVector {
        self.inputs
            .iter()
            .map(|p| {
                (p.name.clone(), Bits::from_u64(self.slots[p.slot as usize], p.width as usize))
            })
            .collect()
    }

    /// Computes every value from the loaded inputs.
    pub(crate) fn run(&mut self) {
        let Tape { steps, srcs, slots, .. } = self;
        for step in steps.iter() {
            let args = &srcs[step.args.0 as usize..step.args.1 as usize];
            let word = exec(step, args, slots);
            slots[step.dest as usize] = word & mask(step.width);
        }
    }

    /// The bits `src` reads, zero-extended.
    pub(crate) fn read(&self, src: Src) -> u64 {
        read(&self.slots, src).0
    }
}

fn exec(step: &Step, args: &[Src], slots: &[u64]) -> u64 {
    let signed = step.signed;
    let arg = |i: usize| read(slots, args[i]);
    let ext = |i: usize| extend(arg(i), signed);
    let order = || {
        let (a, b) = (arg(0), arg(1));
        if signed {
            (extend(a, true) as i64).cmp(&(extend(b, true) as i64))
        } else {
            a.0.cmp(&b.0)
        }
    };
    match step.kind {
        OpKind::Add => {
            let carry = if args.len() == 3 { arg(2).0 & 1 } else { 0 };
            ext(0).wrapping_add(ext(1)).wrapping_add(carry)
        }
        OpKind::Sub => ext(0).wrapping_sub(ext(1)),
        OpKind::Neg => ext(0).wrapping_neg(),
        OpKind::Mul => ext(0).wrapping_mul(ext(1)),
        OpKind::Abs => (extend(arg(0), true) as i64).unsigned_abs(),
        OpKind::Lt => order().is_lt() as u64,
        OpKind::Le => order().is_le() as u64,
        OpKind::Gt => order().is_gt() as u64,
        OpKind::Ge => order().is_ge() as u64,
        OpKind::Eq => (ext(0) == ext(1)) as u64,
        OpKind::Ne => (ext(0) != ext(1)) as u64,
        OpKind::Max => ext(if order() != Ordering::Less { 0 } else { 1 }),
        OpKind::Min => ext(if order() != Ordering::Greater { 0 } else { 1 }),
        OpKind::Shl(k) => ext(0).checked_shl(k).unwrap_or(0),
        OpKind::Shr(k) => {
            let word = ext(0) & mask(step.width);
            if signed {
                (extend((word, step.width), true) as i64 >> k.min(63)) as u64
            } else {
                word.checked_shr(k).unwrap_or(0)
            }
        }
        OpKind::Not => !ext(0),
        OpKind::And => ext(0) & ext(1),
        OpKind::Or => ext(0) | ext(1),
        OpKind::Xor => ext(0) ^ ext(1),
        OpKind::Mux => ext(if arg(0).0 & 1 == 1 { 1 } else { 2 }),
        OpKind::RedOr => (arg(0).0 != 0) as u64,
        OpKind::RedAnd => {
            let (word, width) = arg(0);
            (word == mask(width)) as u64
        }
        OpKind::Concat => {
            let mut acc = 0;
            let mut lo = 0;
            for &src in args {
                let (word, width) = read(slots, src);
                if width > 0 {
                    acc |= word << lo;
                }
                lo += width;
            }
            acc
        }
    }
}

/// The low `width` bits set.
pub(crate) fn mask(width: u32) -> u64 {
    if width >= 64 {
        !0
    } else {
        (1 << width) - 1
    }
}

/// The bits `src` reads, with their width.
fn read(slots: &[u64], src: Src) -> (u64, u32) {
    match src {
        Src::Slot { slot, lo, width } => ((slots[slot as usize] >> lo) & mask(width), width),
        Src::Const { word, width } => (word, width),
    }
}

/// A `width`-bit word extended to 64 bits: sign-extended if `signed`.
fn extend((word, width): (u64, u32), signed: bool) -> u64 {
    if signed && (1..64).contains(&width) && (word >> (width - 1)) & 1 == 1 {
        word | !mask(width)
    } else {
        word
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::{check_equivalence, Inequivalence};
    use crate::evaluate;
    use crate::vectors::random_vectors;
    use bittrans_benchmarks::{
        extended_benchmarks, fig3_dfg, random_spec, table2_benchmarks, table3_benchmarks,
        three_adds, RandomSpecOptions,
    };
    use bittrans_frag::{fragment, FragmentOptions};

    /// Runs `spec` on the tape and through [`evaluate`] over the all-zeros,
    /// all-ones and `count` random vectors, and compares every value and
    /// every output.
    fn assert_matches_interpreter(spec: &Spec, seed: u64, count: usize) {
        let mut tape = Tape::compile(spec).unwrap_or_else(|| panic!("`{}` compiles", spec.name()));
        let extremes = [false, true].map(|ones| {
            let mut iv = InputVector::new();
            for p in tape.inputs() {
                let w = p.width as usize;
                iv.set(p.name.clone(), if ones { Bits::ones(w) } else { Bits::zero(w) });
            }
            iv
        });
        for iv in extremes.into_iter().chain(random_vectors(spec, seed, count)) {
            let eval = evaluate(spec, &iv).unwrap();
            assert!(tape.load(&iv));
            tape.run();
            for value in spec.values() {
                let got = Bits::from_u64(tape.slots[value.id().index()], value.width() as usize);
                assert_eq!(
                    &got,
                    eval.value(value.id()),
                    "`{}` {} on {iv:?}",
                    spec.name(),
                    value.id()
                );
            }
            for (name, bits) in eval.outputs() {
                assert_eq!(tape.read(tape.output(name).unwrap()), bits.to_u64(), "output `{name}`");
            }
            assert_eq!(tape.input_vector(), iv);
        }
    }

    #[test]
    fn corpus_sources_kernels_and_fragments_match_the_interpreter() {
        let mut specs: Vec<Spec> = table2_benchmarks()
            .into_iter()
            .chain(table3_benchmarks())
            .chain(extended_benchmarks())
            .map(|b| b.spec)
            .collect();
        specs.extend([three_adds(), fig3_dfg()]);
        let mut checked = 0;
        for spec in specs {
            assert_matches_interpreter(&spec, 1, 40);
            let kernel = bittrans_kernel::extract(&spec).unwrap();
            assert_matches_interpreter(&kernel, 2, 40);
            for latency in [2, 3, 5] {
                if let Ok(f) = fragment(&kernel, &FragmentOptions::with_latency(latency)) {
                    assert_matches_interpreter(&f.spec, 3, 40);
                    checked += 1;
                }
            }
        }
        assert!(checked >= 20, "only {checked} fragmented specs");
    }

    #[test]
    fn random_specs_match_the_interpreter() {
        for seed in 0..60 {
            let options = RandomSpecOptions {
                ops: 4 + (seed % 20) as usize,
                inputs: 1 + (seed % 5) as usize,
                min_width: 1 + (seed % 8) as u32,
                max_width: 8 + (seed % 25) as u32,
                mul_prob: [0.0, 0.15, 0.5, 0.8][(seed % 4) as usize],
            };
            let spec = random_spec(seed, &options);
            assert_matches_interpreter(&spec, seed, 30);
            let kernel = bittrans_kernel::extract(&spec).unwrap();
            assert_matches_interpreter(&kernel, seed, 30);
        }
    }

    #[test]
    fn every_op_kind_signed_and_unsigned() {
        let spec = Spec::parse(
            "spec kinds { input a: i8; input b: i8; input c: u5; input s: u1;
              sum: i10 = a + b + s;     dif: i9 = a - b;       neg: i9 = -a;
              prd: i16 = a * b;         nrw: i6 = a * b;       abs: u8 = abs(a);
              lt: i1 = a < b;   le: i1 = a <= b;   gt: i1 = a > b;   ge: i1 = a >= b;
              eq: i1 = a == c;  ne: i1 = a != c;   ueq: u1 = a == c;
              mx: i8 = max(a, b);  mn: i8 = min(a, b);
              shl: i12 = a << 3;  sar: i8 = a >> 3;  lsr: u8 = c >> 2;  wide: i20 = a >> 1;
              inv: i8 = ~a;  and: i8 = a & b;  or: i8 = a | c;  xor: i8 = a ^ b;
              mux: i8 = mux(s, a, b);  ror: u1 = redor(c);  rand: u1 = redand(c);
              cat: u19 = concat(c, s, a, b[3:0], s);
              ult: u1 = c < b[7:3];  umx: u8 = max(c, b);  umul: u13 = c * b;  uabs: u5 = abs(c);
              output sum; output dif; output neg; output prd; output nrw; output abs;
              output lt; output le; output gt; output ge; output eq; output ne;
              output ueq; output mx; output mn; output shl; output sar; output lsr; output wide;
              output inv; output and; output or; output xor; output mux; output ror;
              output rand; output cat; output ult; output umx; output umul; output uabs; }",
        )
        .unwrap();
        assert!(spec.ops().iter().any(|op| op.kind() == OpKind::Concat && op.operands().len() > 3));
        assert_matches_interpreter(&spec, 8, 400);
    }

    #[test]
    fn sixty_four_bit_values_hit_the_mask_and_shift_edges() {
        let spec = Spec::parse(
            "spec w64 { input a: i64; input b: i64; input u: u64; input h: u32; input m: i63;
              sum: i64 = a + b;   prd: i64 = a * b;   uprd: u64 = u * h;  neg: i64 = -a;
              abs: u64 = abs(a);  sar: i64 = a >> 63; lsr: u64 = u >> 63; shl: u64 = u << 63;
              lt: i1 = a < b;     ult: u1 = u < h;    eq: i1 = a == h;    inv: u64 = ~u;
              all: u1 = redand(u); cat: u64 = concat(h, h);  hi: u32 = u[63:32];
              mx: i64 = max(a, b); top: u33 = u[63:31] + h[0];  s63: i64 = m + h;
              output sum; output prd; output uprd; output neg; output abs; output sar;
              output lsr; output shl; output lt; output ult; output eq; output inv;
              output all; output cat; output hi; output mx; output top; output s63; }",
        )
        .unwrap();
        assert!(spec.values().iter().any(|v| v.width() == 64));
        assert_matches_interpreter(&spec, 64, 400);
    }

    #[test]
    fn a_value_past_64_bits_falls_back_and_still_finds_the_counterexample() {
        let left = Spec::parse(
            "spec l { input a: u33; input b: u32; p: u65 = a * b; output o = p[64:32]; }",
        )
        .unwrap();
        // Off by one whenever bit 3 of `a` and bit 31 of the product are set.
        let right = Spec::parse(
            "spec r { input a: u33; input b: u32; p: u65 = a * b;
              o: u33 = p[64:32] - (a[3] & p[31]); output o; }",
        )
        .unwrap();
        assert!(Tape::compile(&left).is_none() && Tape::compile(&right).is_none());
        let err = check_equivalence(&left, &right, 5, 200).unwrap_err();
        let Inequivalence::Counterexample { inputs, output, .. } = &err else {
            panic!("expected a counterexample, got {err}");
        };
        assert_eq!(output, "o");
        // The first planted vector of the stream, found by the interpreter.
        let first = random_vectors(&left, 5, 200).into_iter().find(|iv| {
            let p = evaluate(&left, iv).unwrap();
            iv.get("a").unwrap().get(3) && p.value(left.ops()[0].result()).get(31)
        });
        assert_eq!(Some(inputs), first.as_ref());
    }
}
