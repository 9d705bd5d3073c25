//! # bittrans-sim
//!
//! Functional (untimed) simulation of behavioural specifications.
//!
//! This crate is the workspace's replacement for an RTL simulator: it
//! executes a [`Spec`] on concrete input vectors and returns every value the
//! dataflow graph produces. All transformation passes (kernel extraction,
//! fragmentation) are property-tested against it — the master invariant of
//! the repository is that *a transformed specification computes exactly the
//! same outputs as its source*, and [`equivalence`] is how that invariant is
//! checked.
//!
//! [`evaluate`] is the oracle: a direct interpreter over [`Bits`]. The
//! equivalence checker does not call it per vector. It compiles each spec
//! once to a private tape that runs every operation over 64 vectors side
//! by side, one masked `u64` lane each, and runs both sides on that. The
//! tape's slots are assigned by liveness, so its buffer holds the live
//! values of 64 vectors, not every value. A spec with a value or constant
//! wider than 64 bits does not compile, and the checker interprets it
//! instead. From the first lane where the two tapes disagree, the
//! interpreter re-runs that vector and everything after it, so every
//! reported counterexample comes from [`evaluate`] itself.
//!
//! ```
//! use bittrans_ir::prelude::*;
//! use bittrans_sim::{evaluate, InputVector};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = Spec::parse(
//!     "spec ex { input A: u8; input B: u8; C: u8 = A + B; output C; }",
//! )?;
//! let mut inputs = InputVector::new();
//! inputs.set("A", Bits::from_u64(200, 8));
//! inputs.set("B", Bits::from_u64(100, 8));
//! let eval = evaluate(&spec, &inputs)?;
//! assert_eq!(eval.output("C").unwrap().to_u64(), 44); // wraps mod 256
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod equivalence;
mod tape;
pub mod vectors;

use bittrans_ir::prelude::*;
use std::collections::BTreeMap;
use std::fmt;

/// A binding of input-port names to bit-vector values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InputVector {
    map: BTreeMap<String, Bits>,
}

impl InputVector {
    /// An empty input binding.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds port `name` to `value`, replacing any earlier binding.
    pub fn set(&mut self, name: impl Into<String>, value: Bits) -> &mut Self {
        self.map.insert(name.into(), value);
        self
    }

    /// The value bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Bits> {
        self.map.get(name)
    }

    /// Iterates over `(name, value)` bindings in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Bits)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of bound ports.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no ports are bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl FromIterator<(String, Bits)> for InputVector {
    fn from_iter<T: IntoIterator<Item = (String, Bits)>>(iter: T) -> Self {
        InputVector { map: iter.into_iter().collect() }
    }
}

/// Errors raised by [`evaluate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// No binding was provided for an input port.
    MissingInput {
        /// The unbound port.
        name: String,
    },
    /// A binding's width does not match the port declaration.
    WidthMismatch {
        /// The port.
        name: String,
        /// Declared width.
        expected: u32,
        /// Provided width.
        got: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingInput { name } => write!(f, "no value bound to input `{name}`"),
            SimError::WidthMismatch { name, expected, got } => {
                write!(f, "input `{name}` declared as {expected} bits but bound to {got} bits")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The result of evaluating a specification: every value plus the outputs.
#[derive(Clone, Debug)]
pub struct Evaluation {
    values: Vec<Bits>,
    outputs: BTreeMap<String, Bits>,
}

impl Evaluation {
    /// The bits computed for `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not belong to the evaluated spec.
    pub fn value(&self, value: ValueId) -> &Bits {
        &self.values[value.index()]
    }

    /// The bits driven onto output port `name`.
    pub fn output(&self, name: &str) -> Option<&Bits> {
        self.outputs.get(name)
    }

    /// All output ports in name order.
    pub fn outputs(&self) -> impl Iterator<Item = (&str, &Bits)> {
        self.outputs.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// Evaluates `spec` on `inputs`, producing every intermediate value and
/// output.
///
/// # Errors
///
/// Returns [`SimError`] if an input port is unbound or bound at the wrong
/// width. (Structural errors cannot occur: a [`Spec`] is valid by
/// construction.)
pub fn evaluate(spec: &Spec, inputs: &InputVector) -> Result<Evaluation, SimError> {
    let mut values: Vec<Bits> = vec![Bits::zero(0); spec.values().len()];
    for &input in spec.inputs() {
        let name = spec.input_name(input);
        let decl_width = spec.value(input).width();
        let bound =
            inputs.get(name).ok_or_else(|| SimError::MissingInput { name: name.to_string() })?;
        if bound.width() as u32 != decl_width {
            return Err(SimError::WidthMismatch {
                name: name.to_string(),
                expected: decl_width,
                got: bound.width() as u32,
            });
        }
        values[input.index()] = bound.clone();
    }
    for op in spec.ops() {
        let result = eval_op(spec, op, &values);
        debug_assert_eq!(result.width() as u32, op.width());
        values[op.result().index()] = result;
    }
    let outputs = spec
        .outputs()
        .iter()
        .map(|port| (port.name().to_string(), resolve(port.operand(), &values)))
        .collect();
    Ok(Evaluation { values, outputs })
}

/// Resolves an operand to its bits given the values computed so far.
fn resolve(operand: &Operand, values: &[Bits]) -> Bits {
    match operand {
        Operand::Value { value, range: None } => values[value.index()].clone(),
        Operand::Value { value, range: Some(r) } => {
            values[value.index()].slice(r.lo() as usize, r.width() as usize)
        }
        Operand::Const(bits) => bits.clone(),
    }
}

fn eval_op(spec: &Spec, op: &Operation, values: &[Bits]) -> Bits {
    let _ = spec;
    let w = op.width() as usize;
    let signed = op.signedness().is_signed();
    let args: Vec<Bits> = op.operands().iter().map(|o| resolve(o, values)).collect();
    match op.kind() {
        OpKind::Add => {
            let a = args[0].ext(w, signed);
            let b = args[1].ext(w, signed);
            let cin = args.get(2).map(|c| c.get(0)).unwrap_or(false);
            a.add_mod(&b, cin, w)
        }
        OpKind::Sub => {
            let a = args[0].ext(w, signed);
            let b = args[1].ext(w, signed);
            a.sub_mod(&b, w)
        }
        OpKind::Neg => args[0].ext(w, signed).neg_mod(w),
        OpKind::Mul => {
            let p =
                if signed { args[0].mul_full_signed(&args[1]) } else { args[0].mul_full(&args[1]) };
            p.ext(w, signed)
        }
        OpKind::Abs => {
            let a = &args[0];
            let mag = if a.sign_bit() { a.neg_mod(a.width()) } else { a.clone() };
            mag.zext(w)
        }
        OpKind::Lt => from_bool(compare(&args[0], &args[1], signed).is_lt(), w),
        OpKind::Le => from_bool(compare(&args[0], &args[1], signed).is_le(), w),
        OpKind::Gt => from_bool(compare(&args[0], &args[1], signed).is_gt(), w),
        OpKind::Ge => from_bool(compare(&args[0], &args[1], signed).is_ge(), w),
        OpKind::Eq => {
            let ww = args[0].width().max(args[1].width());
            from_bool(args[0].ext(ww, signed) == args[1].ext(ww, signed), w)
        }
        OpKind::Ne => {
            let ww = args[0].width().max(args[1].width());
            from_bool(args[0].ext(ww, signed) != args[1].ext(ww, signed), w)
        }
        OpKind::Max => {
            let pick_a = compare(&args[0], &args[1], signed).is_ge();
            (if pick_a { &args[0] } else { &args[1] }).ext(w, signed)
        }
        OpKind::Min => {
            let pick_a = compare(&args[0], &args[1], signed).is_le();
            (if pick_a { &args[0] } else { &args[1] }).ext(w, signed)
        }
        OpKind::Shl(k) => args[0].ext(w, signed).shl(k as usize),
        OpKind::Shr(k) => {
            let a = args[0].ext(w, signed);
            if signed {
                a.sar(k as usize)
            } else {
                a.shr(k as usize)
            }
        }
        OpKind::Not => args[0].ext(w, signed).not(),
        OpKind::And => args[0].ext(w, signed).and(&args[1].ext(w, signed)),
        OpKind::Or => args[0].ext(w, signed).or(&args[1].ext(w, signed)),
        OpKind::Xor => args[0].ext(w, signed).xor(&args[1].ext(w, signed)),
        OpKind::Mux => {
            let sel = args[0].get(0);
            (if sel { &args[1] } else { &args[2] }).ext(w, signed)
        }
        OpKind::RedOr => from_bool(args[0].reduce_or(), w),
        OpKind::RedAnd => from_bool(args[0].reduce_and(), w),
        OpKind::Concat => {
            let mut acc = Bits::zero(0);
            for a in &args {
                acc = acc.concat(a);
            }
            acc
        }
    }
}

fn from_bool(b: bool, width: usize) -> Bits {
    Bits::from_u64(b as u64, 1).zext(width)
}

fn compare(a: &Bits, b: &Bits, signed: bool) -> std::cmp::Ordering {
    if signed {
        a.cmp_signed(b)
    } else {
        a.cmp_unsigned(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_one(src: &str, bindings: &[(&str, u64, usize)]) -> Evaluation {
        let spec = Spec::parse(src).unwrap();
        let mut iv = InputVector::new();
        for &(name, value, width) in bindings {
            iv.set(name, Bits::from_u64(value, width));
        }
        evaluate(&spec, &iv).unwrap()
    }

    #[test]
    fn three_adds_chain() {
        let eval = eval_one(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
            &[("A", 10, 16), ("B", 20, 16), ("D", 30, 16), ("F", 40, 16)],
        );
        assert_eq!(eval.output("G").unwrap().to_u64(), 100);
    }

    #[test]
    fn add_with_carry_in() {
        let eval = eval_one(
            "spec ex { input A: u4; input B: u4; input c: u1;
              output S = A + B + c; }",
            &[("A", 7, 4), ("B", 8, 4), ("c", 1, 1)],
        );
        // natural widths: (A+B): 5 bits, +c: 6 bits
        assert_eq!(eval.output("S").unwrap().to_u64(), 16);
    }

    #[test]
    fn sub_wraps_unsigned() {
        let eval = eval_one(
            "spec ex { input A: u8; input B: u8; D: u8 = A - B; output D; }",
            &[("A", 5, 8), ("B", 9, 8)],
        );
        assert_eq!(eval.output("D").unwrap().to_u64(), 252);
    }

    #[test]
    fn signed_ops() {
        let spec = Spec::parse(
            "spec s { input a: i8; input b: i8;
              m: i16 = a * b;
              mx: i8 = max(a, b);
              l: u1 = a < b;
              output m; output mx; output l; }",
        )
        .unwrap();
        let mut iv = InputVector::new();
        iv.set("a", Bits::from_i64(-3, 8));
        iv.set("b", Bits::from_i64(5, 8));
        let eval = evaluate(&spec, &iv).unwrap();
        assert_eq!(eval.output("m").unwrap().to_i64(), -15);
        assert_eq!(eval.output("mx").unwrap().to_i64(), 5);
        assert_eq!(eval.output("l").unwrap().to_u64(), 1);
    }

    #[test]
    fn unsigned_comparison_differs_from_signed() {
        let eval = eval_one(
            "spec s { input a: u8; input b: u8; output l = a < b; }",
            &[("a", 0xFF, 8), ("b", 3, 8)],
        );
        assert_eq!(eval.output("l").unwrap().to_u64(), 0); // 255 < 3 is false unsigned
    }

    #[test]
    fn abs_and_neg() {
        let spec =
            Spec::parse("spec s { input a: i8; A: u8 = abs(a); N: i9 = -a; output A; output N; }")
                .unwrap();
        let mut iv = InputVector::new();
        iv.set("a", Bits::from_i64(-100, 8));
        let eval = evaluate(&spec, &iv).unwrap();
        assert_eq!(eval.output("A").unwrap().to_u64(), 100);
        assert_eq!(eval.output("N").unwrap().to_i64(), 100);
    }

    #[test]
    fn shifts_signed_and_unsigned() {
        let spec = Spec::parse(
            "spec s { input a: i8; L: i10 = a << 1; R: i8 = a >> 2; output L; output R; }",
        )
        .unwrap();
        let mut iv = InputVector::new();
        iv.set("a", Bits::from_i64(-8, 8));
        let eval = evaluate(&spec, &iv).unwrap();
        assert_eq!(eval.output("L").unwrap().to_i64(), -16);
        assert_eq!(eval.output("R").unwrap().to_i64(), -2); // arithmetic shift
    }

    #[test]
    fn mux_and_reductions() {
        let eval = eval_one(
            "spec s { input s1: u1; input a: u4; input b: u4;
              m: u4 = mux(s1, a, b);
              r: u1 = redor(a);
              q: u1 = redand(a);
              output m; output r; output q; }",
            &[("s1", 1, 1), ("a", 0xF, 4), ("b", 2, 4)],
        );
        assert_eq!(eval.output("m").unwrap().to_u64(), 0xF);
        assert_eq!(eval.output("r").unwrap().to_u64(), 1);
        assert_eq!(eval.output("q").unwrap().to_u64(), 1);
    }

    #[test]
    fn concat_and_slices() {
        let eval = eval_one(
            "spec s { input a: u4; input b: u4;
              w: u8 = concat(a, b);
              hi: u4 = w[7:4];
              output w; output hi; }",
            &[("a", 0x3, 4), ("b", 0xA, 4)],
        );
        // a is the low nibble
        assert_eq!(eval.output("w").unwrap().to_u64(), 0xA3);
        assert_eq!(eval.output("hi").unwrap().to_u64(), 0xA);
    }

    #[test]
    fn fig2_transformed_fragment_semantics() {
        // First fragment row of the paper's Fig. 2 a): C(6..0) = A(5..0)+B(5..0)
        // and the second row consumes the carry C(6).
        let eval = eval_one(
            "spec beh2 { input A: u16; input B: u16;
              C0: u7 = A[5:0] + B[5:0];
              C1: u7 = A[11:6] + B[11:6] + C0[6];
              output C0; output C1; }",
            &[("A", 0x0FFF, 16), ("B", 0x0001, 16)],
        );
        // A[5:0]=0x3F, B[5:0]=1 -> 0x40 (carry into bit 6 of the 7-bit value)
        assert_eq!(eval.output("C0").unwrap().to_u64(), 0x40);
        // A[11:6]=0x3F, B[11:6]=0, carry C0[6]=1 -> 0x40
        assert_eq!(eval.output("C1").unwrap().to_u64(), 0x40);
    }

    #[test]
    fn missing_input_is_reported() {
        let spec = Spec::parse("spec s { input a: u4; output o = a + 1; }").unwrap();
        let err = evaluate(&spec, &InputVector::new()).unwrap_err();
        assert_eq!(err, SimError::MissingInput { name: "a".into() });
    }

    #[test]
    fn wrong_width_is_reported() {
        let spec = Spec::parse("spec s { input a: u4; output o = a + 1; }").unwrap();
        let mut iv = InputVector::new();
        iv.set("a", Bits::from_u64(1, 8));
        let err = evaluate(&spec, &iv).unwrap_err();
        assert!(matches!(err, SimError::WidthMismatch { expected: 4, got: 8, .. }));
    }

    #[test]
    fn eq_ne_mixed_width() {
        let eval = eval_one(
            "spec s { input a: u4; input b: u8;
              e: u1 = a == b; n: u1 = a != b; output e; output n; }",
            &[("a", 7, 4), ("b", 7, 8)],
        );
        assert_eq!(eval.output("e").unwrap().to_u64(), 1);
        assert_eq!(eval.output("n").unwrap().to_u64(), 0);
    }

    #[test]
    fn input_vector_api() {
        let mut iv = InputVector::new();
        assert!(iv.is_empty());
        iv.set("x", Bits::from_u64(1, 1));
        assert_eq!(iv.len(), 1);
        assert_eq!(iv.get("x").unwrap().to_u64(), 1);
        let iv2: InputVector = vec![("y".to_string(), Bits::zero(2))].into_iter().collect();
        assert_eq!(iv2.iter().count(), 1);
    }
}
