//! A specification compiled once to a flat tape that runs 64 vectors at a
//! time.
//!
//! [`evaluate`](crate::evaluate) interprets a spec through heap [`Bits`]
//! and is the oracle. The equivalence checker runs thousands of vectors
//! through the same two specs, so it lowers each spec once: every operation
//! becomes a [`Step`] reading its operands from one shared [`Src`] list,
//! and the step runs over up to [`LANES`] vectors side by side: a run does
//! the lanes its batch loaded and no more. Each operand is loaded into a
//! lane buffer once per step — sliced, and sign-extended by shifting — so
//! the per-lane work is one tight loop over the operation.
//!
//! Slots are laid out slot-major, [`LANES`] words each, and assigned by
//! liveness: a value's slot is freed after its last reader and reused by a
//! later destination. Input ports and every value an output reads keep
//! their slots to the end, so the buffer grows with the live set, not with
//! the value count. A spec with any value or constant wider than 64 bits
//! does not compile, and the checker keeps to the interpreter for it.

use crate::InputVector;
use bittrans_ir::prelude::*;

/// The vectors one run of a tape computes side by side.
pub(crate) const LANES: usize = 64;

/// One word per lane.
pub(crate) type Lanes = [u64; LANES];

/// Where a step or an output port reads its bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Src {
    /// `width` bits of a slot, starting at bit `lo`.
    Slot { slot: u32, lo: u32, width: u32 },
    /// A constant of `width` bits.
    Const { word: u64, width: u32 },
}

impl Src {
    fn width(self) -> u32 {
        match self {
            Src::Slot { width, .. } | Src::Const { width, .. } => width,
        }
    }
}

/// One operation: `slots[dest] = kind(srcs[args])`, masked to `width`, in
/// every lane.
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
    /// Lane `l` of slot `s` is `slots[s * LANES + l]`.
    slots: Vec<u64>,
}

/// Never freed: the last reader of an input port or an output's value.
const END: usize = usize::MAX;

impl Tape {
    /// Lowers `spec` in one pass over its operations, or `None` if a value
    /// or a constant is wider than 64 bits.
    pub(crate) fn compile(spec: &Spec) -> Option<Tape> {
        if spec.values().iter().any(|v| v.width() > 64) {
            return None;
        }
        // The index of each value's last reader, or of its defining op if
        // nothing reads it.
        let mut last = vec![END; spec.values().len()];
        for (i, op) in spec.ops().iter().enumerate() {
            last[op.result().index()] = i;
            for v in op.operands().iter().filter_map(Operand::value_id) {
                last[v.index()] = i;
            }
        }
        let pinned = spec.outputs().iter().filter_map(|port| port.operand().value_id());
        for v in spec.inputs().iter().copied().chain(pinned) {
            last[v.index()] = END;
        }

        let mut slot_of = vec![0; spec.values().len()];
        let (mut free, mut count) = (Vec::new(), 0);
        let mut take = |free: &mut Vec<u32>| {
            free.pop().unwrap_or_else(|| {
                count += 1;
                count - 1
            })
        };
        let src = |operand: &Operand, slot_of: &[u32]| match operand {
            Operand::Value { value, range } => {
                let (lo, width) =
                    range.map_or((0, spec.value(*value).width()), |r| (r.lo(), r.width()));
                Some(Src::Slot { slot: slot_of[value.index()], lo, width })
            }
            Operand::Const(bits) if bits.width() <= 64 => {
                Some(Src::Const { word: bits.to_u64(), width: bits.width() as u32 })
            }
            Operand::Const(_) => None,
        };
        let inputs = spec
            .inputs()
            .iter()
            .map(|&v| {
                slot_of[v.index()] = take(&mut free);
                Port {
                    name: spec.input_name(v).to_string(),
                    slot: slot_of[v.index()],
                    width: spec.value(v).width(),
                }
            })
            .collect();
        let mut srcs = Vec::new();
        let mut steps = Vec::with_capacity(spec.ops().len());
        for (i, op) in spec.ops().iter().enumerate() {
            let first = srcs.len() as u32;
            for operand in op.operands() {
                srcs.push(src(operand, &slot_of)?);
            }
            // A step loads every operand before it writes, so its
            // destination may take a slot its last read just freed.
            for v in op.operands().iter().filter_map(Operand::value_id) {
                if last[v.index()] == i {
                    last[v.index()] = END;
                    free.push(slot_of[v.index()]);
                }
            }
            let dest = take(&mut free);
            slot_of[op.result().index()] = dest;
            if last[op.result().index()] == i {
                free.push(dest);
            }
            steps.push(Step {
                kind: op.kind(),
                signed: op.signedness().is_signed(),
                width: op.width(),
                dest,
                args: (first, srcs.len() as u32),
            });
        }
        let outputs = spec
            .outputs()
            .iter()
            .map(|port| Some((port.name().to_string(), src(port.operand(), &slot_of)?)))
            .collect::<Option<_>>()?;
        let slots = vec![0; count as usize * LANES];
        Some(Tape { steps, srcs, inputs, outputs, slots })
    }

    /// The input ports, in spec order.
    pub(crate) fn inputs(&self) -> &[Port] {
        &self.inputs
    }

    /// Where output port `name` reads from.
    pub(crate) fn output(&self, name: &str) -> Option<Src> {
        self.outputs.iter().find(|(n, _)| n == name).map(|&(_, src)| src)
    }

    /// Stores `word` in lane `lane` of `slot`; the caller masks it to the
    /// slot's width.
    pub(crate) fn set(&mut self, slot: u32, lane: usize, word: u64) {
        self.slots[slot as usize * LANES + lane] = word;
    }

    /// Loads every input port of lane `lane` from `inputs`, or returns
    /// `false` if one is unbound or bound at the wrong width.
    pub(crate) fn load(&mut self, lane: usize, inputs: &InputVector) -> bool {
        for port in &self.inputs {
            match inputs.get(&port.name) {
                Some(bits) if bits.width() == port.width as usize => {
                    self.slots[port.slot as usize * LANES + lane] = bits.to_u64();
                }
                _ => return false,
            }
        }
        true
    }

    /// The input ports loaded in lane `lane`, as an [`InputVector`].
    pub(crate) fn input_vector(&self, lane: usize) -> InputVector {
        self.inputs
            .iter()
            .map(|p| {
                let word = self.slots[p.slot as usize * LANES + lane];
                (p.name.clone(), Bits::from_u64(word, p.width as usize))
            })
            .collect()
    }

    /// Computes every value from the loaded inputs in lanes `0..lanes`;
    /// the other lanes keep what they held.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` exceeds [`LANES`].
    pub(crate) fn run(&mut self, lanes: usize) {
        let Tape { steps, srcs, slots, .. } = self;
        let mut bufs = [[0; LANES]; 3];
        let mut bufs = bufs.each_mut().map(|buf| &mut buf[..lanes]);
        for step in steps.iter() {
            exec(step, &srcs[step.args.0 as usize..step.args.1 as usize], slots, &mut bufs);
        }
    }

    /// The bits `src` reads in the first `out.len()` lanes, zero-extended,
    /// into `out`.
    pub(crate) fn read(&self, src: Src, out: &mut [u64]) {
        load(&self.slots, src, false, out);
    }
}

/// Runs `step` over the lanes of `bufs`: loads its operands into `bufs`,
/// then writes `kind(bufs)`, masked to the step's width, to its
/// destination.
fn exec(step: &Step, args: &[Src], slots: &mut [u64], bufs: &mut [&mut [u64]; 3]) {
    let kind = step.kind;
    // Abs reads its operand as signed whatever the op's signedness; the
    // reductions and Concat read raw bits.
    let sext = match kind {
        OpKind::Abs => true,
        OpKind::RedOr | OpKind::RedAnd | OpKind::Concat => false,
        _ => step.signed,
    };
    let [a, b, c] = bufs;
    if kind == OpKind::Concat {
        // Lowest operand first, accumulated in `c`.
        c.fill(0);
        let mut lo = 0;
        for &src in args {
            load(slots, src, false, a);
            if src.width() > 0 {
                for (acc, &x) in c.iter_mut().zip(a.iter()) {
                    *acc |= x << lo;
                }
            }
            lo += src.width();
        }
    } else {
        for (buf, &src) in [&mut *a, &mut *b, &mut *c].into_iter().zip(args) {
            load(slots, src, sext, buf);
        }
    }
    let (a, b, c) = (&**a, &**b, &**c);
    let m = mask(step.width);
    let d = &mut row_mut(slots, step.dest)[..a.len()];
    // Signed order is unsigned order with the sign bit flipped.
    let flip = if step.signed { 1 << 63 } else { 0 };
    match kind {
        OpKind::Add if args.len() == 3 => {
            lanes3(d, a, b, c, m, |x, y, ci| x.wrapping_add(y).wrapping_add(ci & 1))
        }
        OpKind::Add => lanes2(d, a, b, m, u64::wrapping_add),
        OpKind::Sub => lanes2(d, a, b, m, u64::wrapping_sub),
        OpKind::Neg => lanes1(d, a, m, u64::wrapping_neg),
        OpKind::Mul => lanes2(d, a, b, m, u64::wrapping_mul),
        OpKind::Abs => lanes1(d, a, m, |x| (x as i64).unsigned_abs()),
        OpKind::Lt => lanes2(d, a, b, m, |x, y| ((x ^ flip) < (y ^ flip)) as u64),
        OpKind::Le => lanes2(d, a, b, m, |x, y| ((x ^ flip) <= (y ^ flip)) as u64),
        OpKind::Gt => lanes2(d, a, b, m, |x, y| ((x ^ flip) > (y ^ flip)) as u64),
        OpKind::Ge => lanes2(d, a, b, m, |x, y| ((x ^ flip) >= (y ^ flip)) as u64),
        OpKind::Eq => lanes2(d, a, b, m, |x, y| (x == y) as u64),
        OpKind::Ne => lanes2(d, a, b, m, |x, y| (x != y) as u64),
        OpKind::Max => lanes2(d, a, b, m, |x, y| if x ^ flip >= y ^ flip { x } else { y }),
        OpKind::Min => lanes2(d, a, b, m, |x, y| if x ^ flip <= y ^ flip { x } else { y }),
        OpKind::Shl(k) if k >= 64 => d.fill(0),
        OpKind::Shl(k) => lanes1(d, a, m, |x| x << k),
        OpKind::Shr(k) if step.signed => {
            // The operand at the op's width, sign-extended, then shifted.
            let s = 64 - step.width.clamp(1, 64);
            let k = k.min(63);
            lanes1(d, a, m, |x| ((((x << s) as i64) >> s) >> k) as u64)
        }
        OpKind::Shr(k) if k >= 64 => d.fill(0),
        OpKind::Shr(k) => lanes1(d, a, m, |x| (x & m) >> k),
        OpKind::Not => lanes1(d, a, m, |x| !x),
        OpKind::And => lanes2(d, a, b, m, |x, y| x & y),
        OpKind::Or => lanes2(d, a, b, m, |x, y| x | y),
        OpKind::Xor => lanes2(d, a, b, m, |x, y| x ^ y),
        OpKind::Mux => lanes3(d, a, b, c, m, |sel, x, y| {
            let pick = (sel & 1).wrapping_neg();
            (x & pick) | (y & !pick)
        }),
        OpKind::RedOr => lanes1(d, a, m, |x| (x != 0) as u64),
        OpKind::RedAnd => {
            let all = mask(args[0].width());
            lanes1(d, a, m, |x| (x == all) as u64)
        }
        OpKind::Concat => lanes1(d, c, m, |x| x),
    }
}

/// Loads the bits `src` reads in the first `buf.len()` lanes into `buf`:
/// zero-extended, or sign-extended if `sext`.
fn load(slots: &[u64], src: Src, sext: bool, buf: &mut [u64]) {
    match src {
        Src::Slot { width: 0, .. } => buf.fill(0),
        Src::Slot { slot, lo, width } => {
            // Shift the slice's top bit to bit 63, then back down to bit
            // `width - 1`, arithmetically to sign-extend.
            let (up, down) = (64 - lo - width, 64 - width);
            let row = &row(slots, slot)[..buf.len()];
            if sext {
                lanes1(buf, row, !0, |w| ((w << up) as i64 >> down) as u64);
            } else {
                lanes1(buf, row, !0, |w| (w << up) >> down);
            }
        }
        Src::Const { word, width } if sext && (1..64).contains(&width) => {
            let down = 64 - width;
            buf.fill(((word << down) as i64 >> down) as u64);
        }
        Src::Const { word, .. } => buf.fill(word),
    }
}

fn row(slots: &[u64], slot: u32) -> &Lanes {
    slots[slot as usize * LANES..][..LANES].try_into().expect("a slot is LANES words")
}

fn row_mut(slots: &mut [u64], slot: u32) -> &mut Lanes {
    (&mut slots[slot as usize * LANES..][..LANES]).try_into().expect("a slot is LANES words")
}

/// `d[l] = f(a[l]) & m` for every lane `l`.
fn lanes1(d: &mut [u64], a: &[u64], m: u64, f: impl Fn(u64) -> u64) {
    for (d, &x) in d.iter_mut().zip(a) {
        *d = f(x) & m;
    }
}

/// `d[l] = f(a[l], b[l]) & m` for every lane `l`.
fn lanes2(d: &mut [u64], a: &[u64], b: &[u64], m: u64, f: impl Fn(u64, u64) -> u64) {
    for ((d, &x), &y) in d.iter_mut().zip(a).zip(b) {
        *d = f(x, y) & m;
    }
}

/// `d[l] = f(a[l], b[l], c[l]) & m` for every lane `l`.
fn lanes3(
    d: &mut [u64],
    a: &[u64],
    b: &[u64],
    c: &[u64],
    m: u64,
    f: impl Fn(u64, u64, u64) -> u64,
) {
    for (((d, &x), &y), &z) in d.iter_mut().zip(a).zip(b).zip(c) {
        *d = f(x, y, z) & m;
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

    /// `spec` rebuilt with every value also driven onto an output port of
    /// its own, so that every value stays live to the end of the tape.
    fn every_value_an_output(spec: &Spec) -> Spec {
        let mut b = SpecBuilder::new(spec.name());
        for value in spec.values() {
            let id = match value.defining_op() {
                None => b.input(spec.input_name(value.id()), value.width()),
                Some(op) => {
                    let op = spec.op(op);
                    b.op_with_origin(
                        op.kind(),
                        op.operands().to_vec(),
                        op.width(),
                        op.signedness(),
                        op.name(),
                        op.origin(),
                    )
                    .unwrap()
                }
            };
            assert_eq!(id, value.id());
        }
        for port in spec.outputs() {
            b.output(port.name(), port.operand().clone());
        }
        for value in spec.values() {
            b.output(format!("value#{}", value.id().index()), value.id());
        }
        b.finish().unwrap()
    }

    /// Runs `spec` on its tape and through [`evaluate`] over the all-zeros,
    /// all-ones and `count` random vectors, [`LANES`] at a time, and
    /// compares every output in every lane. A second tape of `spec` with
    /// every value an output, so that no slot is reused, compares every
    /// value too.
    fn assert_matches_interpreter(spec: &Spec, seed: u64, count: usize) {
        let compile =
            |s: &Spec| Tape::compile(s).unwrap_or_else(|| panic!("`{}` compiles", s.name()));
        let (mut live, mut every) = (compile(spec), compile(&every_value_an_output(spec)));
        let extremes = [false, true].map(|ones| {
            let mut iv = InputVector::new();
            for p in live.inputs() {
                let w = p.width as usize;
                iv.set(p.name.clone(), if ones { Bits::ones(w) } else { Bits::zero(w) });
            }
            iv
        });
        let vectors: Vec<_> =
            extremes.into_iter().chain(random_vectors(spec, seed, count)).collect();
        let mut lanes = [0; LANES];
        for batch in vectors.chunks(LANES) {
            for (lane, iv) in batch.iter().enumerate() {
                assert!(live.load(lane, iv) && every.load(lane, iv));
            }
            live.run(batch.len());
            every.run(batch.len());
            let evals: Vec<_> = batch.iter().map(|iv| evaluate(spec, iv).unwrap()).collect();
            for (lane, iv) in batch.iter().enumerate() {
                assert_eq!(&live.input_vector(lane), iv);
            }
            for value in spec.values() {
                every.read(
                    every.output(&format!("value#{}", value.id().index())).unwrap(),
                    &mut lanes,
                );
                for ((iv, eval), &word) in batch.iter().zip(&evals).zip(&lanes) {
                    assert_eq!(
                        &Bits::from_u64(word, value.width() as usize),
                        eval.value(value.id()),
                        "`{}` {} on {iv:?}",
                        spec.name(),
                        value.id()
                    );
                }
            }
            for port in spec.outputs() {
                for tape in [&live, &every] {
                    tape.read(tape.output(port.name()).unwrap(), &mut lanes);
                    for ((iv, eval), &word) in batch.iter().zip(&evals).zip(&lanes) {
                        let bits = eval.output(port.name()).unwrap();
                        assert_eq!(word, bits.to_u64(), "output `{}` on {iv:?}", port.name());
                    }
                }
            }
        }
    }

    fn corpus() -> Vec<Spec> {
        let mut specs: Vec<Spec> = table2_benchmarks()
            .into_iter()
            .chain(table3_benchmarks())
            .chain(extended_benchmarks())
            .map(|b| b.spec)
            .collect();
        specs.extend([three_adds(), fig3_dfg()]);
        specs
    }

    #[test]
    fn corpus_sources_kernels_and_fragments_match_the_interpreter() {
        let mut checked = 0;
        for spec in corpus() {
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
    fn fragmented_corpus_tapes_keep_to_the_live_set() {
        let mut widest = 0;
        for spec in corpus() {
            let kernel = bittrans_kernel::extract(&spec).unwrap();
            for latency in [3, 5] {
                let Ok(f) = fragment(&kernel, &FragmentOptions::with_latency(latency)) else {
                    continue;
                };
                let slots = Tape::compile(&f.spec).unwrap().slots.len() / LANES;
                assert!(
                    slots <= 64,
                    "`{}` at λ {latency}: {slots} slots for {} values",
                    spec.name(),
                    f.spec.values().len()
                );
                widest = widest.max(f.spec.values().len());
            }
        }
        // The bound is far below the value count, so it is liveness that
        // keeps it.
        assert!(widest > 500, "the largest fragmented spec has only {widest} values");
    }

    /// A check of 10 vectors runs 10 lanes, and one of 65 runs a full
    /// batch, then a single lane over the first batch's leftovers: every
    /// lane that runs matches the interpreter.
    #[test]
    fn batches_of_10_and_65_vectors_match_the_interpreter_on_every_lane() {
        for spec in corpus().into_iter().take(4) {
            let kernel = bittrans_kernel::extract(&spec).unwrap();
            let fragmented = fragment(&kernel, &FragmentOptions::with_latency(3)).unwrap().spec;
            for (seed, spec) in [spec, kernel, fragmented].iter().enumerate() {
                for count in [8, 63] {
                    assert_matches_interpreter(spec, seed as u64, count);
                }
            }
        }
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
    fn dying_operands_hand_their_slots_to_later_values() {
        // `t` dies at `u`, and `u` at `v`: each destination may take the
        // slot its operand just freed, which every lane must survive.
        let spec = Spec::parse(
            "spec chain { input a: i8; input b: i8;
              t: i9 = a + b;  u: i9 = -t;  v: i10 = concat(u[4:0], u[8:4]);  w: i8 = v[9:2] ^ a;
              output w; }",
        )
        .unwrap();
        assert_eq!(Tape::compile(&spec).unwrap().slots.len(), 3 * LANES);
        assert_matches_interpreter(&spec, 12, 100);
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
