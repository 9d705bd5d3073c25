//! Canonical codecs for [`Implementation`] and [`Comparison`] — the
//! core-crate part of the workspace-wide artifact encoding rooted in
//! [`bittrans_ir::canonical`]. A finished job's `Comparison` is what the
//! engine persists.
//!
//! # Implementation format (schema 1)
//!
//! ```text
//! bittrans-canonical implementation 1
//! name <escaped>
//! latency <cycles>
//! cycle_delta <delta>
//! cycle_ns <f64-hex>
//! execution_ns <f64-hex>
//! area <fu-hex> <registers-hex> <routing-hex> <controller-hex>
//! op_count <n>
//! stored_bits <n>
//! end implementation
//! ```
//!
//! # Comparison format (schema 1)
//!
//! ```text
//! bittrans-canonical comparison 1
//! <embedded canonical implementation document: original>
//! <embedded canonical implementation document: optimized>
//! end comparison
//! ```
//!
//! All `f64` figures are bit-exact 16-digit hex, so a decoded
//! implementation (or comparison) serializes byte-identically to a freshly
//! computed one.

use crate::{Comparison, Implementation};
use bittrans_alloc::canonical::{area_from_tokens, area_tokens};
use bittrans_ir::canonical::{
    escape, f64_from_hex, f64_to_hex, unescape, write_end, write_header, CodecError, Cursor,
};
use std::fmt::Write as _;

/// Schema version of the canonical [`Implementation`] encoding.
pub const IMPLEMENTATION_SCHEMA: u32 = 1;

/// Schema version of the canonical [`Comparison`] encoding.
pub const COMPARISON_SCHEMA: u32 = 1;

impl Implementation {
    /// Renders the canonical, re-parseable encoding (schema
    /// [`IMPLEMENTATION_SCHEMA`]); [`Implementation::from_canonical`]
    /// inverts it exactly, bit-exact floats included.
    pub fn to_canonical(&self) -> String {
        let mut out = String::new();
        write_header(&mut out, "implementation", IMPLEMENTATION_SCHEMA);
        let _ = writeln!(out, "name {}", escape(&self.name));
        let _ = writeln!(out, "latency {}", self.latency);
        let _ = writeln!(out, "cycle_delta {}", self.cycle_delta);
        let _ = writeln!(out, "cycle_ns {}", f64_to_hex(self.cycle_ns));
        let _ = writeln!(out, "execution_ns {}", f64_to_hex(self.execution_ns));
        let _ = writeln!(out, "area {}", area_tokens(&self.area));
        let _ = writeln!(out, "op_count {}", self.op_count);
        let _ = writeln!(out, "stored_bits {}", self.stored_bits);
        write_end(&mut out, "implementation");
        out
    }

    /// Parses an [`Implementation::to_canonical`] document back into the
    /// identical implementation.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] for syntax, schema, or token problems.
    pub fn from_canonical(text: &str) -> Result<Implementation, CodecError> {
        let mut cur = Cursor::new(text);
        let implementation = decode_implementation(&mut cur)?;
        cur.end("implementation")?;
        Ok(implementation)
    }
}

impl Comparison {
    /// Renders the canonical, re-parseable encoding (schema
    /// [`COMPARISON_SCHEMA`]): both implementations embedded verbatim as
    /// their own canonical documents. [`Comparison::from_canonical`]
    /// inverts it exactly, bit-exact floats included.
    pub fn to_canonical(&self) -> String {
        let mut out = String::new();
        write_header(&mut out, "comparison", COMPARISON_SCHEMA);
        out.push_str(&self.original.to_canonical());
        out.push_str(&self.optimized.to_canonical());
        write_end(&mut out, "comparison");
        out
    }

    /// Parses a [`Comparison::to_canonical`] document back into the
    /// identical comparison.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] for syntax or schema problems, in the container
    /// or in either embedded implementation.
    pub fn from_canonical(text: &str) -> Result<Comparison, CodecError> {
        let mut cur = Cursor::new(text);
        cur.header("comparison", COMPARISON_SCHEMA)?;
        let original = decode_implementation(&mut cur)?;
        cur.end_embedded("implementation")?;
        let optimized = decode_implementation(&mut cur)?;
        cur.end_embedded("implementation")?;
        cur.end("comparison")?;
        Ok(Comparison { original, optimized })
    }
}

/// Decodes an implementation document from its header through its
/// `stored_bits` line; the caller checks the `end implementation` trailer
/// (final or embedded).
fn decode_implementation(cur: &mut Cursor<'_>) -> Result<Implementation, CodecError> {
    cur.header("implementation", IMPLEMENTATION_SCHEMA)?;
    let f = cur.tagged("name")?;
    if f.len() != 1 {
        return Err(cur.err("malformed name line"));
    }
    let name = unescape(f[0]).map_err(|m| cur.err(m))?;
    let f = cur.tagged("latency")?;
    if f.len() != 1 {
        return Err(cur.err("malformed latency line"));
    }
    let latency = cur.num(f[0], "latency")?;
    let f = cur.tagged("cycle_delta")?;
    if f.len() != 1 {
        return Err(cur.err("malformed cycle_delta line"));
    }
    let cycle_delta = cur.num(f[0], "cycle delta")?;
    let f = cur.tagged("cycle_ns")?;
    if f.len() != 1 {
        return Err(cur.err("malformed cycle_ns line"));
    }
    let cycle_ns = f64_from_hex(f[0]).map_err(|m| cur.err(m))?;
    let f = cur.tagged("execution_ns")?;
    if f.len() != 1 {
        return Err(cur.err("malformed execution_ns line"));
    }
    let execution_ns = f64_from_hex(f[0]).map_err(|m| cur.err(m))?;
    let f = cur.tagged("area")?;
    let area = area_from_tokens(&f).map_err(|m| cur.err(m))?;
    let f = cur.tagged("op_count")?;
    if f.len() != 1 {
        return Err(cur.err("malformed op_count line"));
    }
    let op_count = cur.num(f[0], "op count")?;
    let f = cur.tagged("stored_bits")?;
    if f.len() != 1 {
        return Err(cur.err("malformed stored_bits line"));
    }
    let stored_bits = cur.num(f[0], "stored bits")?;
    Ok(Implementation {
        name,
        latency,
        cycle_delta,
        cycle_ns,
        execution_ns,
        area,
        op_count,
        stored_bits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{baseline, CompareOptions};
    use bittrans_ir::Spec;

    fn sample() -> Implementation {
        let spec = Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap();
        baseline(&spec, 3, &CompareOptions::default()).unwrap().implementation
    }

    #[test]
    fn round_trip_is_exact() {
        let imp = sample();
        let text = imp.to_canonical();
        let back = Implementation::from_canonical(&text).unwrap();
        assert_eq!(back.to_canonical(), text);
        // Byte-identity of the serialized form is the property the stage
        // cache's disk tier rests on.
        assert_eq!(serde_json::to_string(&back).unwrap(), serde_json::to_string(&imp).unwrap());
    }

    #[test]
    fn truncation_errors_cleanly() {
        let text = sample().to_canonical();
        let lines: Vec<&str> = text.lines().collect();
        for n in 0..lines.len() {
            assert!(Implementation::from_canonical(&lines[..n].join("\n")).is_err(), "{n} lines");
        }
    }

    fn sample_comparison() -> Comparison {
        let spec = Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap();
        crate::compare(&spec, 3, &CompareOptions { verify_vectors: 0, ..Default::default() })
            .unwrap()
    }

    #[test]
    fn comparison_round_trip_is_exact() {
        let cmp = sample_comparison();
        let text = cmp.to_canonical();
        let back = Comparison::from_canonical(&text).unwrap();
        assert_eq!(back.to_canonical(), text);
        assert_eq!(serde_json::to_string(&back).unwrap(), serde_json::to_string(&cmp).unwrap());
    }

    #[test]
    fn comparison_truncation_and_junk_error_cleanly() {
        let text = sample_comparison().to_canonical();
        let lines: Vec<&str> = text.lines().collect();
        for n in 0..lines.len() {
            assert!(Comparison::from_canonical(&lines[..n].join("\n")).is_err(), "{n} lines");
        }
        assert!(Comparison::from_canonical(&format!("{text}junk\n")).is_err());
        // A bare implementation is not a comparison.
        let imp = sample_comparison().original.to_canonical();
        assert!(Comparison::from_canonical(&imp).is_err());
    }

    #[test]
    fn schema_bump_is_rejected() {
        let text = sample()
            .to_canonical()
            .replace("bittrans-canonical implementation 1", "bittrans-canonical implementation 2");
        assert!(Implementation::from_canonical(&text).is_err());
    }
}
