//! The behavioural specification: a typed dataflow graph with ports.
//!
//! A [`Spec`] is the unit every pass in `bittrans` consumes and produces:
//! the user writes one (through [`SpecBuilder`] or the textual DSL), kernel
//! extraction rewrites it into *additive form*, and fragmentation rewrites
//! that into the transformed specification the paper synthesises.

use crate::bits::Bits;
use crate::error::IrError;
use crate::op::{OpKind, Operation};
use crate::operand::Operand;
use crate::types::{OpId, Signedness, ValueId};
use std::collections::BTreeMap;
use std::fmt;

/// How a value comes into existence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValueDef {
    /// An input port with the given name.
    Input {
        /// Port name, unique within the spec.
        name: String,
    },
    /// The result of an operation.
    Op(OpId),
}

/// A value of the dataflow graph: an input port or an operation result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Value {
    pub(crate) id: ValueId,
    pub(crate) width: u32,
    pub(crate) def: ValueDef,
}

impl Value {
    /// The value's id.
    pub fn id(&self) -> ValueId {
        self.id
    }

    /// Width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// How the value is defined.
    pub fn def(&self) -> &ValueDef {
        &self.def
    }

    /// `true` if the value is an input port.
    pub fn is_input(&self) -> bool {
        matches!(self.def, ValueDef::Input { .. })
    }

    /// The defining operation, if any.
    pub fn defining_op(&self) -> Option<OpId> {
        match self.def {
            ValueDef::Op(op) => Some(op),
            ValueDef::Input { .. } => None,
        }
    }
}

/// A named output of the specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputPort {
    pub(crate) name: String,
    pub(crate) operand: Operand,
}

impl OutputPort {
    /// Port name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operand driven onto the port.
    pub fn operand(&self) -> &Operand {
        &self.operand
    }
}

/// A behavioural specification: dataflow graph plus input/output ports.
///
/// Construct one with [`SpecBuilder`] or by parsing the textual DSL via
/// [`Spec::parse`]. Operations are stored in topological order — an
/// operand always references a value defined earlier — which every
/// analysis in the workspace relies on.
///
/// # Examples
///
/// ```
/// use bittrans_ir::prelude::*;
///
/// # fn main() -> Result<(), IrError> {
/// let mut b = SpecBuilder::new("example");
/// let a = b.input("A", 16);
/// let bb = b.input("B", 16);
/// let d = b.input("D", 16);
/// let c = b.op(OpKind::Add, vec![a.into(), bb.into()], 16, Signedness::Unsigned, Some("C"))?;
/// let e = b.op(OpKind::Add, vec![c.into(), d.into()], 16, Signedness::Unsigned, Some("E"))?;
/// b.output("E", e);
/// let spec = b.finish()?;
/// assert_eq!(spec.ops().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Spec {
    pub(crate) name: String,
    pub(crate) values: Vec<Value>,
    pub(crate) ops: Vec<Operation>,
    pub(crate) inputs: Vec<ValueId>,
    pub(crate) outputs: Vec<OutputPort>,
}

impl Spec {
    /// Parses the textual DSL form; see [`crate::parse`] for the grammar.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::error::ParseError`] describing the first syntax or
    /// validation problem.
    pub fn parse(text: &str) -> Result<Spec, crate::error::ParseError> {
        crate::parse::parse_spec(text)
    }

    /// The specification's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All operations in topological order.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Looks up one operation.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this spec.
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.index()]
    }

    /// All values (inputs first, then op results, in creation order).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Looks up one value.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this spec.
    pub fn value(&self, id: ValueId) -> &Value {
        &self.values[id.index()]
    }

    /// Input port value ids, in declaration order.
    pub fn inputs(&self) -> &[ValueId] {
        &self.inputs
    }

    /// Output ports, in declaration order.
    pub fn outputs(&self) -> &[OutputPort] {
        &self.outputs
    }

    /// The input port with the given name.
    pub fn input_by_name(&self, name: &str) -> Option<ValueId> {
        self.inputs
            .iter()
            .copied()
            .find(|&v| matches!(self.value(v).def(), ValueDef::Input { name: n } if n == name))
    }

    /// The name of an input port value.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an input.
    pub fn input_name(&self, id: ValueId) -> &str {
        match self.value(id).def() {
            ValueDef::Input { name } => name,
            ValueDef::Op(_) => panic!("{id} is not an input port"),
        }
    }

    /// Effective width of an operand: the slice width, the full value width,
    /// or the constant width.
    ///
    /// # Panics
    ///
    /// Panics if the operand references a value outside this spec.
    pub fn operand_width(&self, operand: &Operand) -> u32 {
        match operand {
            Operand::Value { value, range: Some(r) } => {
                let _ = self.value(*value);
                r.width()
            }
            Operand::Value { value, range: None } => self.value(*value).width(),
            Operand::Const(bits) => bits.width() as u32,
        }
    }

    /// The consumers of every value: `users[v]` lists `(op, operand index)`
    /// pairs reading `v`. Output ports are not included.
    pub fn users(&self) -> BTreeMap<ValueId, Vec<(OpId, usize)>> {
        let mut map: BTreeMap<ValueId, Vec<(OpId, usize)>> = BTreeMap::new();
        for op in &self.ops {
            for (i, operand) in op.operands().iter().enumerate() {
                if let Some(v) = operand.value_id() {
                    map.entry(v).or_default().push((op.id(), i));
                }
            }
        }
        map
    }

    /// `true` when every non-glue operation is an `Add` — the *additive
    /// form* produced by kernel extraction.
    pub fn is_additive_form(&self) -> bool {
        self.ops.iter().all(|op| op.kind() == OpKind::Add || op.kind().is_glue())
    }

    /// Counts of operations by family; the paper reports "number of
    /// operations" deltas between the original and transformed specs.
    pub fn stats(&self) -> SpecStats {
        let mut s = SpecStats::default();
        for op in &self.ops {
            s.total += 1;
            match op.kind() {
                OpKind::Add => s.adds += 1,
                OpKind::Mul => s.muls += 1,
                k if k.is_glue() => s.glue += 1,
                _ => s.other += 1,
            }
            s.max_width = s.max_width.max(op.width());
        }
        s
    }

    /// Re-checks every structural invariant (arity, bounds, widths,
    /// topological order, port uniqueness).
    ///
    /// Builder-produced specs are always valid; call this after manual
    /// surgery on a cloned spec.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), IrError> {
        let mut seen = std::collections::BTreeSet::new();
        for &input in &self.inputs {
            let name = self.input_name(input).to_string();
            if self.value(input).width() == 0 {
                return Err(IrError::ZeroWidthInput(name));
            }
            if !seen.insert(name.clone()) {
                return Err(IrError::DuplicatePort(name));
            }
        }
        for op in &self.ops {
            validate_op(self, op)?;
            // topological order: operands reference values defined earlier
            for operand in op.operands() {
                if let Some(v) = operand.value_id() {
                    if v.index() >= self.values.len() {
                        return Err(IrError::UnknownValue(v));
                    }
                    if let Some(def_op) = self.value(v).defining_op() {
                        if def_op.index() >= op.id().index() {
                            return Err(IrError::WidthMismatch {
                                op: op.id(),
                                reason: format!(
                                    "operand {v} is defined by later operation {def_op} (cycle)"
                                ),
                            });
                        }
                    }
                }
            }
        }
        for port in &self.outputs {
            if !seen.insert(port.name.clone()) {
                return Err(IrError::DuplicatePort(port.name.clone()));
            }
            if let Some(v) = port.operand.value_id() {
                if v.index() >= self.values.len() {
                    return Err(IrError::BadOutput {
                        port: port.name.clone(),
                        reason: format!("references unknown value {v}"),
                    });
                }
                if let Some(r) = port.operand.range() {
                    if r.end() > self.value(v).width() {
                        return Err(IrError::BadOutput {
                            port: port.name.clone(),
                            reason: format!(
                                "slice {r} exceeds value width {}",
                                self.value(v).width()
                            ),
                        });
                    }
                }
            }
        }
        if self.outputs.is_empty() {
            return Err(IrError::NoOutputs);
        }
        Ok(())
    }
}

/// Operation counts reported by [`Spec::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Total number of operations.
    pub total: usize,
    /// Number of `Add` operations.
    pub adds: usize,
    /// Number of `Mul` operations.
    pub muls: usize,
    /// Number of glue (bitwise/wiring) operations.
    pub glue: usize,
    /// Everything else (sub, comparisons, …).
    pub other: usize,
    /// Widest operation result.
    pub max_width: u32,
}

impl SpecStats {
    /// Operations that are not glue — what the paper counts as "operations".
    pub fn non_glue(&self) -> usize {
        self.total - self.glue
    }
}

/// Incrementally constructs a valid [`Spec`].
///
/// Every `op` call validates its arguments against the values added so far,
/// so an invalid graph is rejected at the point of the mistake.
///
/// # Examples
///
/// ```
/// use bittrans_ir::prelude::*;
///
/// # fn main() -> Result<(), IrError> {
/// let mut b = SpecBuilder::new("three_adds");
/// let a = b.input("A", 16);
/// let b_in = b.input("B", 16);
/// let c = b.add("C", a, b_in, 16)?;
/// b.output("C", c);
/// let spec = b.finish()?;
/// assert_eq!(spec.name(), "three_adds");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SpecBuilder {
    spec: Spec,
}

impl SpecBuilder {
    /// Starts a new, empty specification.
    pub fn new(name: impl Into<String>) -> Self {
        SpecBuilder {
            spec: Spec {
                name: name.into(),
                values: Vec::new(),
                ops: Vec::new(),
                inputs: Vec::new(),
                outputs: Vec::new(),
            },
        }
    }

    /// Declares an input port of `width` bits and returns its value.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn input(&mut self, name: impl Into<String>, width: u32) -> ValueId {
        assert!(width > 0, "input ports must be at least one bit wide");
        let id = ValueId::from_index(self.spec.values.len());
        self.spec.values.push(Value { id, width, def: ValueDef::Input { name: name.into() } });
        self.spec.inputs.push(id);
        id
    }

    /// Appends an operation and returns the value it defines.
    ///
    /// # Errors
    ///
    /// Returns an [`IrError`] when the operands violate the kind's arity or
    /// width rules, reference unknown values, or slice out of bounds.
    pub fn op(
        &mut self,
        kind: OpKind,
        operands: Vec<Operand>,
        width: u32,
        signedness: Signedness,
        name: Option<&str>,
    ) -> Result<ValueId, IrError> {
        self.op_with_origin(kind, operands, width, signedness, name, None)
    }

    /// Like [`op`](Self::op) but records provenance to an operation of a
    /// source specification (used by the transformation passes).
    ///
    /// # Errors
    ///
    /// Same as [`op`](Self::op).
    pub fn op_with_origin(
        &mut self,
        kind: OpKind,
        operands: Vec<Operand>,
        width: u32,
        signedness: Signedness,
        name: Option<&str>,
        origin: Option<OpId>,
    ) -> Result<ValueId, IrError> {
        let op_id = OpId::from_index(self.spec.ops.len());
        let result = ValueId::from_index(self.spec.values.len());
        let op = Operation {
            id: op_id,
            kind,
            operands,
            width,
            signedness,
            result,
            name: name.map(str::to_owned),
            origin,
        };
        validate_op(&self.spec, &op)?;
        self.spec.values.push(Value { id: result, width, def: ValueDef::Op(op_id) });
        self.spec.ops.push(op);
        Ok(result)
    }

    /// Declares an output port driven by `operand`.
    pub fn output(&mut self, name: impl Into<String>, operand: impl Into<Operand>) {
        self.spec.outputs.push(OutputPort { name: name.into(), operand: operand.into() });
    }

    /// Finishes construction, validating ports.
    ///
    /// # Errors
    ///
    /// Returns an [`IrError`] if the spec has no outputs, duplicated port
    /// names, or invalid output operands.
    pub fn finish(self) -> Result<Spec, IrError> {
        self.spec.validate()?;
        Ok(self.spec)
    }

    /// The number of operations added so far.
    pub fn op_count(&self) -> usize {
        self.spec.ops.len()
    }

    /// Width of a previously added value.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not created by this builder.
    pub fn width_of(&self, v: ValueId) -> u32 {
        self.spec.value(v).width()
    }

    // --- convenience constructors (all panic on invalid input; use `op`
    //     for the fallible API) -------------------------------------------

    /// Unsigned addition `a + b` at `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if the operands are invalid; see [`op`](Self::op) for the
    /// fallible form.
    pub fn add(
        &mut self,
        name: &str,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        width: u32,
    ) -> Result<ValueId, IrError> {
        self.op(OpKind::Add, vec![a.into(), b.into()], width, Signedness::Unsigned, Some(name))
    }

    /// Addition with carry-in `a + b + cin` at `width` bits.
    ///
    /// # Errors
    ///
    /// Returns an error if `cin` is not one bit wide.
    pub fn add_carry(
        &mut self,
        name: &str,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        cin: impl Into<Operand>,
        width: u32,
    ) -> Result<ValueId, IrError> {
        self.op(
            OpKind::Add,
            vec![a.into(), b.into(), cin.into()],
            width,
            Signedness::Unsigned,
            Some(name),
        )
    }

    /// Subtraction `a - b` at `width` bits.
    ///
    /// # Errors
    ///
    /// Propagates operand validation failures.
    pub fn sub(
        &mut self,
        name: &str,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        width: u32,
        signedness: Signedness,
    ) -> Result<ValueId, IrError> {
        self.op(OpKind::Sub, vec![a.into(), b.into()], width, signedness, Some(name))
    }

    /// Multiplication `a * b` at `width` bits.
    ///
    /// # Errors
    ///
    /// Propagates operand validation failures.
    pub fn mul(
        &mut self,
        name: &str,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        width: u32,
        signedness: Signedness,
    ) -> Result<ValueId, IrError> {
        self.op(OpKind::Mul, vec![a.into(), b.into()], width, signedness, Some(name))
    }

    /// Comparison `a < b` producing one bit.
    ///
    /// # Errors
    ///
    /// Propagates operand validation failures.
    pub fn lt(
        &mut self,
        name: &str,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        signedness: Signedness,
    ) -> Result<ValueId, IrError> {
        self.op(OpKind::Lt, vec![a.into(), b.into()], 1, signedness, Some(name))
    }

    /// A constant value materialised as an operand (no operation is added).
    pub fn constant(&self, v: u64, width: usize) -> Operand {
        Operand::Const(Bits::from_u64(v, width))
    }
}

/// Validates a single operation against the spec built so far.
pub(crate) fn validate_op(spec: &Spec, op: &Operation) -> Result<(), IrError> {
    if op.width == 0 {
        return Err(IrError::ZeroWidth(op.id));
    }
    let (min, max) = op.kind.arity();
    if op.operands.len() < min || op.operands.len() > max {
        return Err(IrError::BadArity {
            op: op.id,
            kind: op.kind.mnemonic(),
            got: op.operands.len(),
            expected: (min, max),
        });
    }
    for operand in &op.operands {
        if let Operand::Value { value, range } = operand {
            if value.index() >= spec.values.len() {
                return Err(IrError::UnknownValue(*value));
            }
            let vw = spec.value(*value).width();
            if let Some(r) = range {
                if r.end() > vw || r.is_empty() {
                    return Err(IrError::RangeOutOfBounds {
                        op: op.id,
                        value: *value,
                        range: *r,
                        value_width: vw,
                    });
                }
            }
        }
    }
    // Kind-specific width rules.
    match op.kind {
        OpKind::Add if op.operands.len() == 3 => {
            let cw = spec.operand_width(&op.operands[2]);
            if cw != 1 {
                return Err(IrError::WidthMismatch {
                    op: op.id,
                    reason: format!("carry-in must be 1 bit, got {cw}"),
                });
            }
        }
        OpKind::Mux => {
            let sw = spec.operand_width(&op.operands[0]);
            if sw != 1 {
                return Err(IrError::WidthMismatch {
                    op: op.id,
                    reason: format!("mux select must be 1 bit, got {sw}"),
                });
            }
        }
        OpKind::Concat => {
            let sum: u32 = op.operands.iter().map(|o| spec.operand_width(o)).sum();
            if sum != op.width {
                return Err(IrError::WidthMismatch {
                    op: op.id,
                    reason: format!("concat of {sum} bits declared as {} bits", op.width),
                });
            }
        }
        _ => {}
    }
    Ok(())
}

impl fmt::Display for Spec {
    /// Renders the human-oriented DSL-like dump used by the examples and
    /// diffs. This format is *not* re-parseable (op ids, unnamed
    /// operations, provenance and glue constructs have no surface
    /// syntax); for a guaranteed round trip use
    /// [`Spec::to_canonical`](crate::canonical) /
    /// [`Spec::from_canonical`], and see `parse` for the hand-written
    /// input grammar.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "spec {} {{", self.name)?;
        for &input in &self.inputs {
            let v = self.value(input);
            writeln!(f, "  input {}: u{};  // {}", self.input_name(input), v.width(), input)?;
        }
        for op in &self.ops {
            let args: Vec<String> = op.operands().iter().map(|o| o.to_string()).collect();
            writeln!(
                f,
                "  {} = {}({}) : {}{};",
                op.result(),
                op.kind(),
                args.join(", "),
                if op.signedness().is_signed() { "i" } else { "u" },
                op.width(),
            )?;
        }
        for port in &self.outputs {
            writeln!(f, "  output {} = {};", port.name(), port.operand())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BitRange;

    fn three_adds() -> Spec {
        let mut b = SpecBuilder::new("ex");
        let a = b.input("A", 16);
        let b_ = b.input("B", 16);
        let d = b.input("D", 16);
        let f = b.input("F", 16);
        let c = b.add("C", a, b_, 16).unwrap();
        let e = b.add("E", c, d, 16).unwrap();
        let g = b.add("G", e, f, 16).unwrap();
        b.output("G", g);
        b.finish().unwrap()
    }

    #[test]
    fn build_and_inspect() {
        let s = three_adds();
        assert_eq!(s.ops().len(), 3);
        assert_eq!(s.inputs().len(), 4);
        assert_eq!(s.outputs().len(), 1);
        assert_eq!(s.op(OpId::from_index(0)).name(), Some("C"));
        assert!(s.is_additive_form());
        assert_eq!(s.stats().adds, 3);
        assert_eq!(s.stats().non_glue(), 3);
        assert_eq!(s.input_by_name("D"), Some(ValueId::from_index(2)));
        assert_eq!(s.input_name(ValueId::from_index(0)), "A");
        s.validate().unwrap();
    }

    #[test]
    fn users_map() {
        let s = three_adds();
        let users = s.users();
        let c = s.op(OpId::from_index(0)).result();
        assert_eq!(users[&c], vec![(OpId::from_index(1), 0)]);
        // G is only used by the output port, not by any op.
        let g = s.op(OpId::from_index(2)).result();
        assert!(!users.contains_key(&g));
    }

    #[test]
    fn rejects_unknown_value() {
        let mut b = SpecBuilder::new("bad");
        let a = b.input("A", 4);
        let ghost = ValueId::from_index(99);
        let err = b
            .op(OpKind::Add, vec![a.into(), ghost.into()], 4, Signedness::Unsigned, None)
            .unwrap_err();
        assert_eq!(err, IrError::UnknownValue(ghost));
    }

    #[test]
    fn rejects_out_of_bounds_slice() {
        let mut b = SpecBuilder::new("bad");
        let a = b.input("A", 4);
        let err = b
            .op(
                OpKind::Not,
                vec![Operand::slice(a, BitRange::new(2, 4))],
                4,
                Signedness::Unsigned,
                None,
            )
            .unwrap_err();
        assert!(matches!(err, IrError::RangeOutOfBounds { .. }));
    }

    #[test]
    fn rejects_bad_arity() {
        let mut b = SpecBuilder::new("bad");
        let a = b.input("A", 4);
        let err = b.op(OpKind::Mux, vec![a.into()], 4, Signedness::Unsigned, None).unwrap_err();
        assert!(matches!(err, IrError::BadArity { .. }));
    }

    #[test]
    fn rejects_wide_carry() {
        let mut b = SpecBuilder::new("bad");
        let a = b.input("A", 4);
        let c = b.input("CIN", 2);
        let err = b.add_carry("X", a, a, c, 5).unwrap_err();
        assert!(matches!(err, IrError::WidthMismatch { .. }));
    }

    #[test]
    fn rejects_bad_concat_width() {
        let mut b = SpecBuilder::new("bad");
        let a = b.input("A", 4);
        let err = b
            .op(OpKind::Concat, vec![a.into(), a.into()], 9, Signedness::Unsigned, None)
            .unwrap_err();
        assert!(matches!(err, IrError::WidthMismatch { .. }));
    }

    #[test]
    fn rejects_zero_width() {
        let mut b = SpecBuilder::new("bad");
        let a = b.input("A", 4);
        let err = b.op(OpKind::Not, vec![a.into()], 0, Signedness::Unsigned, None).unwrap_err();
        assert!(matches!(err, IrError::ZeroWidth(_)));
    }

    #[test]
    fn rejects_no_outputs() {
        let mut b = SpecBuilder::new("empty");
        b.input("A", 4);
        assert_eq!(b.finish().unwrap_err(), IrError::NoOutputs);
    }

    #[test]
    fn rejects_duplicate_ports() {
        let mut b = SpecBuilder::new("dup");
        let a = b.input("A", 4);
        b.input("A", 4);
        b.output("O", a);
        assert_eq!(b.finish().unwrap_err(), IrError::DuplicatePort("A".into()));

        let mut b = SpecBuilder::new("dup2");
        let a = b.input("A", 4);
        b.output("O", a);
        b.output("O", a);
        assert_eq!(b.finish().unwrap_err(), IrError::DuplicatePort("O".into()));
    }

    #[test]
    fn rejects_bad_output_slice() {
        let mut b = SpecBuilder::new("bad");
        let a = b.input("A", 4);
        b.output("O", Operand::slice(a, BitRange::new(2, 4)));
        assert!(matches!(b.finish().unwrap_err(), IrError::BadOutput { .. }));
    }

    #[test]
    fn display_dump() {
        let s = three_adds();
        let text = s.to_string();
        assert!(text.contains("spec ex {"));
        assert!(text.contains("input A: u16"));
        assert!(text.contains("add("));
        assert!(text.contains("output G"));
    }

    #[test]
    fn operand_width_resolution() {
        let s = three_adds();
        let a = ValueId::from_index(0);
        assert_eq!(s.operand_width(&a.into()), 16);
        assert_eq!(s.operand_width(&Operand::slice(a, BitRange::new(3, 5))), 5);
        assert_eq!(s.operand_width(&Operand::const_u64(7, 3)), 3);
    }
}
