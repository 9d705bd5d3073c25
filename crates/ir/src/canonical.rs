//! The canonical artifact codec: versioned, machine-readable text with a
//! guaranteed round trip.
//!
//! [`Spec`]'s `Display` impl renders the human-oriented DSL-like dump —
//! good for examples and diffs, but lossy (op ids, unnamed operations,
//! provenance and glue constructs have no surface syntax). This module is
//! the other half of the split: [`Spec::to_canonical`] /
//! [`Spec::from_canonical`] print and parse a line-oriented, schema-tagged
//! encoding for which `from_canonical(to_canonical(s)) == s` holds for
//! *every* valid spec, not just DSL-expressible ones.
//!
//! `bittrans-core` implements the same pair for the engine's finished
//! jobs (`Implementation` and `Comparison`) on top of the shared plumbing
//! exported here: [`CodecError`], the [`Cursor`] line reader, token
//! escaping ([`escape`]/[`unescape`]) and bit-exact `f64` encoding
//! ([`f64_to_hex`]/[`f64_from_hex`]). Every
//! artifact document opens with `bittrans-canonical <type> <schema>` and
//! closes with `end <type>`; a schema bump invalidates old documents at
//! the header check — decoders reject, never misparse.
//!
//! # Format (schema 1)
//!
//! ```text
//! bittrans-canonical spec 1
//! name <escaped>
//! values <n>
//! v <index> <width> in <escaped-port-name>     (input value)
//! v <index> <width> op <op-index>              (operation result)
//! inputs <n> <value-index>*
//! ops <n>
//! o <index> <kind> <width> <u|i> <result> <name|-> <origin|-> <n> <operand>*
//! outputs <n>
//! out <escaped-port-name> <operand>
//! end spec
//! ```
//!
//! Operand tokens: `v<i>` (full value), `s<i>:<lo>:<width>` (bit slice),
//! `k<width>:<binary>` (constant, MSB first). Parameterised shifts encode
//! as `shl:<k>` / `shr:<k>`.

use crate::bits::Bits;
use crate::op::{OpKind, Operation};
use crate::operand::Operand;
use crate::spec::{OutputPort, Spec, Value, ValueDef};
use crate::types::{BitRange, OpId, Signedness, ValueId};
use crate::MAX_WIDTH;
use std::fmt;
use std::fmt::Write as _;

/// Schema version of the canonical [`Spec`] encoding.
pub const SPEC_SCHEMA: u32 = 1;

/// The magic first token of every canonical artifact document.
pub const MAGIC: &str = "bittrans-canonical";

/// A canonical-codec decode failure: the 1-based line and what was wrong.
///
/// Encoders are infallible; this error only arises from
/// `from_canonical` parsing (truncated documents, wrong schema, malformed
/// tokens) or from the structural re-validation that follows it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// 1-based line number the failure was detected at (0 = whole document).
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "canonical decode: {}", self.msg)
        } else {
            write!(f, "canonical decode at line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for CodecError {}

/// Escapes `s` into a single whitespace-free token: bytes in
/// `[A-Za-z0-9_.-]` pass through, everything else (including `%` itself)
/// becomes `%XX` per UTF-8 byte. The empty string encodes as the empty
/// token (callers place it in a fixed field position).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_' | b'.' | b'-' => out.push(b as char),
            _ => {
                let _ = write!(out, "%{b:02x}");
            }
        }
    }
    out
}

/// Reverses [`escape`].
///
/// # Errors
///
/// A message when a `%` escape is truncated, non-hex, or the decoded bytes
/// are not valid UTF-8.
pub fn unescape(s: &str) -> Result<String, String> {
    let mut bytes = Vec::with_capacity(s.len());
    let raw = s.as_bytes();
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == b'%' {
            let hex = raw.get(i + 1..i + 3).ok_or_else(|| format!("truncated escape in {s:?}"))?;
            let hex = std::str::from_utf8(hex).map_err(|_| format!("bad escape in {s:?}"))?;
            let b = u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape in {s:?}"))?;
            bytes.push(b);
            i += 3;
        } else {
            bytes.push(raw[i]);
            i += 1;
        }
    }
    String::from_utf8(bytes).map_err(|_| format!("escaped token {s:?} is not UTF-8"))
}

/// Encodes an `f64` as its exact bit pattern, 16 lowercase hex digits —
/// the same bit-exact convention the engine's cache keys already use.
pub fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Reverses [`f64_to_hex`].
///
/// # Errors
///
/// A message when the token is not 16 hex digits.
pub fn f64_from_hex(s: &str) -> Result<f64, String> {
    if s.len() != 16 {
        return Err(format!("f64 bit pattern {s:?} is not 16 hex digits"));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("f64 bit pattern {s:?} is not 16 hex digits"))
}

/// A line cursor over a canonical document, shared by every artifact
/// decoder in the workspace. Lines are split on single spaces (tokens are
/// escape-guaranteed space-free), and all errors carry the 1-based line.
pub struct Cursor<'a> {
    lines: Vec<&'a str>,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over `text`'s lines.
    pub fn new(text: &'a str) -> Self {
        Cursor { lines: text.lines().collect(), pos: 0 }
    }

    /// A [`CodecError`] at the current line.
    pub fn err(&self, msg: impl Into<String>) -> CodecError {
        CodecError { line: self.pos, msg: msg.into() }
    }

    /// Consumes and returns the next raw line.
    ///
    /// # Errors
    ///
    /// When the document ends early.
    pub fn next_line(&mut self) -> Result<&'a str, CodecError> {
        let line = self
            .lines
            .get(self.pos)
            .copied()
            .ok_or(CodecError { line: self.pos, msg: "unexpected end of document".into() })?;
        self.pos += 1;
        Ok(line)
    }

    /// Consumes the next line, asserts its first token is `tag`, and
    /// returns the remaining tokens.
    ///
    /// # Errors
    ///
    /// When the document ends or the tag differs.
    pub fn tagged(&mut self, tag: &str) -> Result<Vec<&'a str>, CodecError> {
        let line = self.next_line()?;
        let mut fields = line.split(' ');
        let first = fields.next().unwrap_or("");
        if first != tag {
            return Err(self.err(format!("expected `{tag} …`, got {line:?}")));
        }
        Ok(fields.collect())
    }

    /// Checks the `bittrans-canonical <ty> <schema>` header line.
    ///
    /// # Errors
    ///
    /// When the magic, artifact type or schema version do not match —
    /// including *newer* schemas, so a decoder never misparses a document
    /// written by a later version.
    pub fn header(&mut self, ty: &str, schema: u32) -> Result<(), CodecError> {
        let fields = self.tagged(MAGIC)?;
        if fields.len() != 2 || fields[0] != ty {
            return Err(self.err(format!("expected a canonical `{ty}` document")));
        }
        match fields[1].parse::<u32>() {
            Ok(v) if v == schema => Ok(()),
            Ok(v) => Err(self.err(format!("unsupported {ty} schema {v} (expected {schema})"))),
            Err(_) => Err(self.err(format!("bad schema token {:?}", fields[1]))),
        }
    }

    /// Checks the `end <ty>` trailer line and that nothing follows it.
    ///
    /// # Errors
    ///
    /// When the trailer is missing, mislabelled, or trailed by junk.
    pub fn end(&mut self, ty: &str) -> Result<(), CodecError> {
        let fields = self.tagged("end")?;
        if fields != [ty] {
            return Err(self.err(format!("expected `end {ty}`")));
        }
        if self.pos != self.lines.len() {
            return Err(CodecError {
                line: self.pos + 1,
                msg: format!("trailing content after `end {ty}`"),
            });
        }
        Ok(())
    }

    /// Like [`Cursor::end`] but for embedded sub-documents: allows the
    /// container to continue after the trailer.
    pub fn end_embedded(&mut self, ty: &str) -> Result<(), CodecError> {
        let fields = self.tagged("end")?;
        if fields != [ty] {
            return Err(self.err(format!("expected `end {ty}`")));
        }
        Ok(())
    }

    /// The lines not yet consumed: the room left for a list of one entry
    /// per line.
    pub fn lines_left(&self) -> usize {
        self.lines.len() - self.pos
    }

    /// Parses a declared list length and bounds it by `room`, the entries
    /// the document can still hold: [`Cursor::lines_left`] for a list of
    /// one entry per line, the line's remaining tokens for an in-line
    /// list. A corrupt count errors here instead of sizing an allocation.
    ///
    /// # Errors
    ///
    /// When the token is not a decimal or exceeds `room`.
    pub fn count(&self, token: &str, what: &str, room: usize) -> Result<usize, CodecError> {
        let n: usize = self.num(token, what)?;
        if n > room {
            return Err(self.err(format!("{what} {n} exceeds the {room} entries left")));
        }
        Ok(n)
    }

    /// Parses one decimal token.
    ///
    /// # Errors
    ///
    /// When the token is not a decimal of the requested type.
    pub fn num<T: std::str::FromStr>(&self, token: &str, what: &str) -> Result<T, CodecError> {
        token.parse::<T>().map_err(|_| self.err(format!("bad {what} {token:?}")))
    }
}

/// Writes the standard header line for artifact type `ty`.
pub fn write_header(out: &mut String, ty: &str, schema: u32) {
    let _ = writeln!(out, "{MAGIC} {ty} {schema}");
}

/// Writes the standard trailer line for artifact type `ty`.
pub fn write_end(out: &mut String, ty: &str) {
    let _ = writeln!(out, "end {ty}");
}

// ---------------------------------------------------------------------------
// Operand / kind tokens (shared grammar of the spec encoding)
// ---------------------------------------------------------------------------

/// Encodes one operand as a space-free token (`v3`, `s3:6:6`, `k3:010`).
pub fn operand_token(operand: &Operand) -> String {
    match operand {
        Operand::Value { value, range: None } => format!("v{}", value.index()),
        Operand::Value { value, range: Some(r) } => {
            format!("s{}:{}:{}", value.index(), r.lo(), r.width())
        }
        Operand::Const(bits) => {
            let mut digits = String::with_capacity(bits.width());
            for i in (0..bits.width()).rev() {
                digits.push(if bits.get(i) { '1' } else { '0' });
            }
            format!("k{}:{}", bits.width(), digits)
        }
    }
}

/// Reverses [`operand_token`].
///
/// # Errors
///
/// A message when the token is malformed.
pub fn operand_from_token(token: &str) -> Result<Operand, String> {
    let bad = || format!("bad operand token {token:?}");
    if let Some(rest) = token.strip_prefix('s') {
        let mut it = rest.split(':');
        let (v, lo, w) = (it.next(), it.next(), it.next());
        if it.next().is_some() {
            return Err(bad());
        }
        let v: u32 = v.and_then(|t| t.parse().ok()).ok_or_else(bad)?;
        let lo: u32 = lo.and_then(|t| t.parse().ok()).ok_or_else(bad)?;
        let w: u32 = w.and_then(|t| t.parse().ok()).ok_or_else(bad)?;
        // No value is wider than `MAX_WIDTH`, so no slice ends past it; an
        // end that overflows `u32` would wrap into range in validation.
        if lo.checked_add(w).is_none_or(|end| end > MAX_WIDTH) {
            return Err(format!("slice {token:?} ends past the maximum width of {MAX_WIDTH}"));
        }
        return Ok(Operand::slice(ValueId::from_index(v as usize), BitRange::new(lo, w)));
    }
    if let Some(rest) = token.strip_prefix('v') {
        let v: u32 = rest.parse().map_err(|_| bad())?;
        return Ok(Operand::value(ValueId::from_index(v as usize)));
    }
    if let Some(rest) = token.strip_prefix('k') {
        let (w, digits) = rest.split_once(':').ok_or_else(bad)?;
        let w: usize = w.parse().map_err(|_| bad())?;
        let bits = Bits::parse_binary(digits).ok_or_else(bad)?;
        if bits.width() != w {
            return Err(format!("constant {token:?} declares width {w} but has {}", bits.width()));
        }
        return Ok(Operand::Const(bits));
    }
    Err(bad())
}

/// Encodes an [`OpKind`] as a token (`add`, `shl:3`, …).
pub fn kind_token(kind: OpKind) -> String {
    match kind {
        OpKind::Shl(k) => format!("shl:{k}"),
        OpKind::Shr(k) => format!("shr:{k}"),
        other => other.mnemonic().to_string(),
    }
}

/// Reverses [`kind_token`].
///
/// # Errors
///
/// A message when the token names no kind.
pub fn kind_from_token(token: &str) -> Result<OpKind, String> {
    if let Some(k) = token.strip_prefix("shl:") {
        return k.parse().map(OpKind::Shl).map_err(|_| format!("bad shift amount {token:?}"));
    }
    if let Some(k) = token.strip_prefix("shr:") {
        return k.parse().map(OpKind::Shr).map_err(|_| format!("bad shift amount {token:?}"));
    }
    Ok(match token {
        "add" => OpKind::Add,
        "sub" => OpKind::Sub,
        "neg" => OpKind::Neg,
        "mul" => OpKind::Mul,
        "abs" => OpKind::Abs,
        "lt" => OpKind::Lt,
        "le" => OpKind::Le,
        "gt" => OpKind::Gt,
        "ge" => OpKind::Ge,
        "eq" => OpKind::Eq,
        "ne" => OpKind::Ne,
        "max" => OpKind::Max,
        "min" => OpKind::Min,
        "not" => OpKind::Not,
        "and" => OpKind::And,
        "or" => OpKind::Or,
        "xor" => OpKind::Xor,
        "mux" => OpKind::Mux,
        "redor" => OpKind::RedOr,
        "redand" => OpKind::RedAnd,
        "concat" => OpKind::Concat,
        _ => return Err(format!("unknown operation kind {token:?}")),
    })
}

// ---------------------------------------------------------------------------
// Spec codec
// ---------------------------------------------------------------------------

impl Spec {
    /// Renders the canonical, re-parseable encoding of this spec (schema
    /// [`SPEC_SCHEMA`]). [`Spec::from_canonical`] inverts it exactly:
    /// `from_canonical(to_canonical(s)) == s` for every valid spec.
    pub fn to_canonical(&self) -> String {
        let mut out = String::new();
        write_header(&mut out, "spec", SPEC_SCHEMA);
        let _ = writeln!(out, "name {}", escape(&self.name));
        let _ = writeln!(out, "values {}", self.values.len());
        for v in &self.values {
            match &v.def {
                ValueDef::Input { name } => {
                    let _ = writeln!(out, "v {} {} in {}", v.id.index(), v.width, escape(name));
                }
                ValueDef::Op(op) => {
                    let _ = writeln!(out, "v {} {} op {}", v.id.index(), v.width, op.index());
                }
            }
        }
        let mut inputs = format!("inputs {}", self.inputs.len());
        for input in &self.inputs {
            let _ = write!(inputs, " {}", input.index());
        }
        let _ = writeln!(out, "{inputs}");
        let _ = writeln!(out, "ops {}", self.ops.len());
        for op in &self.ops {
            let mut line = format!(
                "o {} {} {} {} {} {} {} {}",
                op.id.index(),
                kind_token(op.kind),
                op.width,
                if op.signedness.is_signed() { "i" } else { "u" },
                op.result.index(),
                match &op.name {
                    Some(n) => format!("n{}", escape(n)),
                    None => "-".to_string(),
                },
                match op.origin {
                    Some(o) => format!("o{}", o.index()),
                    None => "-".to_string(),
                },
                op.operands.len(),
            );
            for operand in &op.operands {
                let _ = write!(line, " {}", operand_token(operand));
            }
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "outputs {}", self.outputs.len());
        for port in &self.outputs {
            let _ = writeln!(out, "out {} {}", escape(&port.name), operand_token(&port.operand));
        }
        write_end(&mut out, "spec");
        out
    }

    /// Parses a [`Spec::to_canonical`] document back into the identical
    /// spec, re-validating every structural invariant.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] for syntax problems, schema mismatches (old *or*
    /// new — never misparsed), internal inconsistencies (op/value
    /// cross-links, dense-id violations) and any [`Spec::validate`]
    /// failure of the reconstructed graph.
    pub fn from_canonical(text: &str) -> Result<Spec, CodecError> {
        let mut cur = Cursor::new(text);
        let spec = decode_spec(&mut cur)?;
        cur.end("spec")?;
        Ok(spec)
    }
}

fn decode_spec(cur: &mut Cursor<'_>) -> Result<Spec, CodecError> {
    cur.header("spec", SPEC_SCHEMA)?;
    let name = cur.tagged("name")?;
    if name.len() != 1 {
        return Err(cur.err("malformed name line"));
    }
    let name = unescape(name[0]).map_err(|m| cur.err(m))?;

    let count = cur.tagged("values")?;
    if count.len() != 1 {
        return Err(cur.err("malformed values line"));
    }
    let count = cur.count(count[0], "value count", cur.lines_left())?;
    let mut values = Vec::with_capacity(count);
    for i in 0..count {
        let f = cur.tagged("v")?;
        if f.len() != 4 {
            return Err(cur.err("malformed value line"));
        }
        let idx: u32 = cur.num(f[0], "value id")?;
        if idx as usize != i {
            return Err(cur.err(format!("value id v{idx} out of order (expected v{i})")));
        }
        let width: u32 = cur.num(f[1], "value width")?;
        let def = match f[2] {
            "in" => ValueDef::Input { name: unescape(f[3]).map_err(|m| cur.err(m))? },
            "op" => ValueDef::Op(OpId::from_index(cur.num::<u32>(f[3], "op id")? as usize)),
            other => return Err(cur.err(format!("bad value definition tag {other:?}"))),
        };
        values.push(Value { id: ValueId::from_index(i), width, def });
    }

    let f = cur.tagged("inputs")?;
    if f.is_empty() {
        return Err(cur.err("malformed inputs line"));
    }
    let n = cur.count(f[0], "input count", f.len() - 1)?;
    if f.len() != n + 1 {
        return Err(
            cur.err(format!("inputs line declares {n} entries but carries {}", f.len() - 1))
        );
    }
    let mut inputs = Vec::with_capacity(n);
    for token in &f[1..] {
        inputs.push(ValueId::from_index(cur.num::<u32>(token, "input value id")? as usize));
    }

    let count = cur.tagged("ops")?;
    if count.len() != 1 {
        return Err(cur.err("malformed ops line"));
    }
    let count = cur.count(count[0], "op count", cur.lines_left())?;
    let mut ops = Vec::with_capacity(count);
    for i in 0..count {
        let f = cur.tagged("o")?;
        if f.len() < 8 {
            return Err(cur.err("malformed op line"));
        }
        let idx: u32 = cur.num(f[0], "op id")?;
        if idx as usize != i {
            return Err(cur.err(format!("op id o{idx} out of order (expected o{i})")));
        }
        let kind = kind_from_token(f[1]).map_err(|m| cur.err(m))?;
        let width: u32 = cur.num(f[2], "op width")?;
        let signedness = match f[3] {
            "u" => Signedness::Unsigned,
            "i" => Signedness::Signed,
            other => return Err(cur.err(format!("bad signedness {other:?}"))),
        };
        let result = ValueId::from_index(cur.num::<u32>(f[4], "result value id")? as usize);
        let op_name = match f[5] {
            "-" => None,
            tok => match tok.strip_prefix('n') {
                Some(rest) => Some(unescape(rest).map_err(|m| cur.err(m))?),
                None => return Err(cur.err(format!("bad name token {tok:?}"))),
            },
        };
        let origin = match f[6] {
            "-" => None,
            tok => match tok.strip_prefix('o') {
                Some(rest) => {
                    Some(OpId::from_index(cur.num::<u32>(rest, "origin op id")? as usize))
                }
                None => return Err(cur.err(format!("bad origin token {tok:?}"))),
            },
        };
        let n_operands = cur.count(f[7], "operand count", f.len() - 8)?;
        if f.len() != 8 + n_operands {
            return Err(cur.err(format!(
                "op line declares {n_operands} operands but carries {}",
                f.len() - 8
            )));
        }
        let mut operands = Vec::with_capacity(n_operands);
        for token in &f[8..] {
            operands.push(operand_from_token(token).map_err(|m| cur.err(m))?);
        }
        ops.push(Operation {
            id: OpId::from_index(i),
            kind,
            operands,
            width,
            signedness,
            result,
            name: op_name,
            origin,
        });
    }

    let count = cur.tagged("outputs")?;
    if count.len() != 1 {
        return Err(cur.err("malformed outputs line"));
    }
    let count = cur.count(count[0], "output count", cur.lines_left())?;
    let mut outputs = Vec::with_capacity(count);
    for _ in 0..count {
        let f = cur.tagged("out")?;
        if f.len() != 2 {
            return Err(cur.err("malformed output line"));
        }
        outputs.push(OutputPort {
            name: unescape(f[0]).map_err(|m| cur.err(m))?,
            operand: operand_from_token(f[1]).map_err(|m| cur.err(m))?,
        });
    }

    let spec = Spec { name, values, ops, inputs, outputs };
    cross_check(cur, &spec)?;
    spec.validate().map_err(|e| cur.err(format!("reconstructed spec is invalid: {e}")))?;
    Ok(spec)
}

/// Structural cross-links [`Spec::validate`] does not itself re-derive:
/// every value/op link must be mutual, bounds-checked *before* any
/// indexed access, and every declared input must be input-defined.
fn cross_check(cur: &Cursor<'_>, spec: &Spec) -> Result<(), CodecError> {
    let n_values = spec.values().len();
    let n_ops = spec.ops().len();
    for v in spec.values() {
        if let ValueDef::Op(op) = v.def() {
            if op.index() >= n_ops {
                return Err(cur.err(format!("value {} defined by unknown op {op}", v.id())));
            }
            let op = spec.op(*op);
            if op.result() != v.id() || op.width() != v.width() {
                return Err(cur.err(format!("value {} and its defining op disagree", v.id())));
            }
        }
    }
    for op in spec.ops() {
        if op.result().index() >= n_values {
            return Err(cur.err(format!("op {} results in unknown value", op.id())));
        }
        let result = spec.value(op.result());
        if result.def() != &ValueDef::Op(op.id()) {
            return Err(cur.err(format!("op {} and its result value disagree", op.id())));
        }
        if let Some(origin) = op.origin() {
            // Origins refer to ops of a *source* spec; only the index's
            // representability matters, not bounds in this spec.
            let _ = origin;
        }
        for operand in op.operands() {
            if let Some(v) = operand.value_id() {
                if v.index() >= n_values {
                    return Err(cur.err(format!("op {} reads unknown value {v}", op.id())));
                }
            }
        }
    }
    for &input in spec.inputs() {
        if input.index() >= n_values {
            return Err(cur.err(format!("inputs list references unknown value {input}")));
        }
        if !spec.value(input).is_input() {
            return Err(cur.err(format!("inputs list entry {input} is not an input value")));
        }
    }
    // Every input-defined value must be listed exactly once (ports are
    // reachable through the list alone).
    let listed: std::collections::BTreeSet<ValueId> = spec.inputs().iter().copied().collect();
    if listed.len() != spec.inputs().len() {
        return Err(cur.err("inputs list contains duplicates"));
    }
    for v in spec.values() {
        if v.is_input() && !listed.contains(&v.id()) {
            return Err(cur.err(format!("input value {} missing from inputs list", v.id())));
        }
    }
    for port in spec.outputs() {
        if let Some(v) = port.operand().value_id() {
            if v.index() >= n_values {
                return Err(cur.err(format!("output {} reads unknown value {v}", port.name())));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBuilder;

    fn strange_spec() -> Spec {
        // Exercises everything the DSL cannot express: unnamed ops,
        // origins, carry-in adds, slices, constants, shifts, odd names.
        let mut b = SpecBuilder::new("weird name ⊕");
        let a = b.input("A port", 8);
        let c = b.input("B", 8);
        let s = b
            .op(
                OpKind::Add,
                vec![a.into(), c.into(), Operand::const_bit(true)],
                8,
                Signedness::Unsigned,
                None,
            )
            .unwrap();
        let sl = b
            .op_with_origin(
                OpKind::Shl(3),
                vec![Operand::slice(s, BitRange::new(1, 4))],
                7,
                Signedness::Signed,
                Some("shifted"),
                Some(OpId::from_index(0)),
            )
            .unwrap();
        let k = b
            .op(
                OpKind::Concat,
                vec![sl.into(), Operand::const_u64(0b1011, 4)],
                11,
                Signedness::Unsigned,
                None,
            )
            .unwrap();
        b.output("out port", Operand::slice(k, BitRange::new(0, 5)));
        b.finish().unwrap()
    }

    #[test]
    fn round_trip_is_identity() {
        let spec = strange_spec();
        let text = spec.to_canonical();
        let back = Spec::from_canonical(&text).unwrap();
        assert_eq!(back, spec);
        // And the canonical text itself is a fixpoint.
        assert_eq!(back.to_canonical(), text);
    }

    #[test]
    fn parse_dsl_round_trips_too() {
        let spec = Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap();
        assert_eq!(Spec::from_canonical(&spec.to_canonical()).unwrap(), spec);
    }

    #[test]
    fn escaping_round_trips() {
        for s in ["", "plain", "with space", "per%cent", "uni⊕code", "a\nb\tc", "-"] {
            assert_eq!(unescape(&escape(s)).unwrap(), s, "{s:?}");
        }
        assert!(unescape("%").is_err());
        assert!(unescape("%zz").is_err());
    }

    #[test]
    fn f64_hex_round_trips() {
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, 0.47] {
            let back = f64_from_hex(&f64_to_hex(v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        assert!(f64_from_hex("abc").is_err());
        assert!(f64_from_hex("zzzzzzzzzzzzzzzz").is_err());
    }

    #[test]
    fn operand_tokens_round_trip() {
        let ops = [
            Operand::value(ValueId::from_index(3)),
            Operand::slice(ValueId::from_index(0), BitRange::new(6, 6)),
            Operand::const_u64(0b010, 3),
            Operand::Const(Bits::zero(0)),
            Operand::const_bit(true),
        ];
        for o in &ops {
            let token = operand_token(o);
            assert!(!token.contains(' '), "{token}");
            assert_eq!(&operand_from_token(&token).unwrap(), o, "{token}");
        }
        assert!(operand_from_token("x9").is_err());
        assert!(operand_from_token("k3:01").is_err(), "width mismatch");
        // A slice end past `MAX_WIDTH` is corrupt, even when `lo + width`
        // overflows `u32` and would wrap to a small end.
        assert!(operand_from_token("s0:1020:4").is_ok());
        for token in ["s0:1020:5", "s0:4294967295:2", "s0:0:4294967295"] {
            let err = operand_from_token(token).unwrap_err();
            assert!(err.contains("ends past the maximum width of 1024"), "{token}: {err}");
        }
    }

    #[test]
    fn kind_tokens_round_trip() {
        let all = [
            OpKind::Add,
            OpKind::Sub,
            OpKind::Neg,
            OpKind::Mul,
            OpKind::Abs,
            OpKind::Lt,
            OpKind::Le,
            OpKind::Gt,
            OpKind::Ge,
            OpKind::Eq,
            OpKind::Ne,
            OpKind::Max,
            OpKind::Min,
            OpKind::Shl(3),
            OpKind::Shr(0),
            OpKind::Not,
            OpKind::And,
            OpKind::Or,
            OpKind::Xor,
            OpKind::Mux,
            OpKind::RedOr,
            OpKind::RedAnd,
            OpKind::Concat,
        ];
        for k in all {
            assert_eq!(kind_from_token(&kind_token(k)).unwrap(), k);
        }
        assert!(kind_from_token("frobnicate").is_err());
    }

    #[test]
    fn schema_mismatch_is_rejected_not_misparsed() {
        let spec = strange_spec();
        let text = spec.to_canonical();
        let future = text.replace("bittrans-canonical spec 1", "bittrans-canonical spec 999");
        let err = Spec::from_canonical(&future).unwrap_err();
        assert!(err.msg.contains("schema 999"), "{err}");
        let wrong_type = text.replace("bittrans-canonical spec 1", "bittrans-canonical frag 1");
        assert!(Spec::from_canonical(&wrong_type).is_err());
    }

    #[test]
    fn corrupt_documents_error_cleanly() {
        let spec = strange_spec();
        let text = spec.to_canonical();
        // Truncation at every prefix must error, never panic.
        let lines: Vec<&str> = text.lines().collect();
        for n in 0..lines.len() {
            let truncated = lines[..n].join("\n");
            assert!(Spec::from_canonical(&truncated).is_err(), "prefix of {n} lines");
        }
        // Trailing junk is rejected.
        let mut trailing = text.clone();
        trailing.push_str("extra\n");
        assert!(Spec::from_canonical(&trailing).is_err());
        // A broken value/op cross-link is caught even though each line
        // parses: point v4 at op 1, whose result is really v3.
        let broken = text.replace("v 4 11 op 2", "v 4 11 op 1");
        assert_ne!(broken, text, "fixture drift: expected `v 4 11 op 2` in the document");
        let err = Spec::from_canonical(&broken).unwrap_err();
        assert!(err.msg.contains("disagree"), "{err}");
    }

    /// `spec c { input a: u4; input k: u4; s: u4 = a + a; output s; }`,
    /// canonical: its one unused input `k` is `v 1 4 in k`.
    fn unused_input_document() -> String {
        let text = Spec::parse("spec c { input a: u4; input k: u4; s: u4 = a + a; output s; }")
            .unwrap()
            .to_canonical();
        assert!(text.contains("\nv 1 4 in k\n"), "fixture drift: {text}");
        text
    }

    #[test]
    fn declared_counts_are_bounded_by_the_document() {
        let text = unused_input_document();
        // Each count swapped for one the document cannot hold: an entry
        // list's count (once `Vec::with_capacity` of it, which aborted the
        // process), an in-line list's and an op line's operand count.
        for (from, to) in [
            ("\nvalues 3\n", "\nvalues 4294967295\n"),
            ("\nops 1\n", "\nops 18446744073709551615\n"),
            ("\noutputs 1\n", "\noutputs 4\n"),
            ("\ninputs 2 0 1\n", "\ninputs 18446744073709551615 0 1\n"),
            (" 2 v0 v0\n", " 18446744073709551615 v0 v0\n"),
        ] {
            assert!(text.contains(from), "fixture drift: no {from:?} in {text}");
            let err = Spec::from_canonical(&text.replace(from, to)).unwrap_err();
            assert!(err.msg.contains("exceeds"), "{to:?}: {err}");
        }
    }

    #[test]
    fn zero_width_input_is_rejected() {
        let text = unused_input_document().replace("\nv 1 4 in k\n", "\nv 1 0 in k\n");
        let err = Spec::from_canonical(&text).unwrap_err();
        assert!(err.msg.contains("input `k` has zero width"), "{err}");
    }

    #[test]
    fn display_and_canonical_are_distinct() {
        let spec = strange_spec();
        // Display renders the human dump; canonical is machine-shaped.
        assert!(spec.to_string().starts_with("spec "));
        assert!(spec.to_canonical().starts_with("bittrans-canonical spec 1\n"));
    }
}
