//! Canonical codec for [`Fragmented`] — the frag-crate part of the
//! workspace-wide artifact encoding rooted in [`bittrans_ir::canonical`].
//! Schema-tagged, line-oriented, round-trip-exact.
//!
//! # Format (schema 1)
//!
//! ```text
//! bittrans-canonical fragmented 1
//! cycle <delta>
//! latency <cycles>
//! critical_path <delta>
//! <embedded canonical spec document>
//! fragments <n>
//! f <op> <source-op> <index> <lo> <width> <asap> <alap>
//! per_source <n>
//! p <source-op> <k> <fragment-op>*
//! end fragmented
//! ```
//!
//! The transformed spec embeds verbatim as its own canonical document
//! (through its `end spec` line); map entries appear in key order.

use crate::{FragmentInfo, Fragmented};
use bittrans_ir::canonical::{write_end, write_header, CodecError, Cursor};
use bittrans_ir::prelude::*;
use bittrans_timing::Delta;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema version of the canonical [`Fragmented`] encoding.
pub const FRAGMENTED_SCHEMA: u32 = 1;

impl Fragmented {
    /// Renders the canonical, re-parseable encoding (schema
    /// [`FRAGMENTED_SCHEMA`]); [`Fragmented::from_canonical`] inverts it
    /// exactly.
    pub fn to_canonical(&self) -> String {
        let mut out = String::new();
        write_header(&mut out, "fragmented", FRAGMENTED_SCHEMA);
        let _ = writeln!(out, "cycle {}", self.cycle);
        let _ = writeln!(out, "latency {}", self.latency);
        let _ = writeln!(out, "critical_path {}", self.critical_path);
        out.push_str(&self.spec.to_canonical());
        let _ = writeln!(out, "fragments {}", self.fragments.len());
        for (op, info) in &self.fragments {
            let _ = writeln!(
                out,
                "f {} {} {} {} {} {} {}",
                op.index(),
                info.source.index(),
                info.index,
                info.range.lo(),
                info.range.width(),
                info.asap,
                info.alap,
            );
        }
        let _ = writeln!(out, "per_source {}", self.per_source.len());
        for (source, fragments) in &self.per_source {
            let mut line = format!("p {} {}", source.index(), fragments.len());
            for op in fragments {
                let _ = write!(line, " {}", op.index());
            }
            let _ = writeln!(out, "{line}");
        }
        write_end(&mut out, "fragmented");
        out
    }

    /// Parses a [`Fragmented::to_canonical`] document back into the
    /// identical artifact (the embedded spec is fully re-validated).
    ///
    /// # Errors
    ///
    /// A [`CodecError`] for syntax or schema problems, a corrupt embedded
    /// spec, or out-of-order map entries.
    pub fn from_canonical(text: &str) -> Result<Fragmented, CodecError> {
        let mut cur = Cursor::new(text);
        cur.header("fragmented", FRAGMENTED_SCHEMA)?;
        let f = cur.tagged("cycle")?;
        if f.len() != 1 {
            return Err(cur.err("malformed cycle line"));
        }
        let cycle: Delta = cur.num(f[0], "cycle length")?;
        let f = cur.tagged("latency")?;
        if f.len() != 1 {
            return Err(cur.err("malformed latency line"));
        }
        let latency: u32 = cur.num(f[0], "latency")?;
        let f = cur.tagged("critical_path")?;
        if f.len() != 1 {
            return Err(cur.err("malformed critical_path line"));
        }
        let critical_path: Delta = cur.num(f[0], "critical path")?;
        let spec = Spec::decode_embedded(&mut cur)?;

        let f = cur.tagged("fragments")?;
        if f.len() != 1 {
            return Err(cur.err("malformed fragments line"));
        }
        let count = cur.count(f[0], "fragment count", cur.lines_left())?;
        let mut fragments = BTreeMap::new();
        let mut previous: Option<u32> = None;
        for _ in 0..count {
            let f = cur.tagged("f")?;
            if f.len() != 7 {
                return Err(cur.err("malformed fragment entry"));
            }
            let op: u32 = cur.num(f[0], "fragment op index")?;
            if previous.is_some_and(|p| p >= op) {
                return Err(cur.err(format!("fragment entries out of order at o{op}")));
            }
            previous = Some(op);
            let info = FragmentInfo {
                source: OpId::from_index(cur.num::<u32>(f[1], "source op index")? as usize),
                index: cur.num(f[2], "fragment index")?,
                range: BitRange::new(
                    cur.num(f[3], "fragment range lo")?,
                    cur.num(f[4], "fragment range width")?,
                ),
                asap: cur.num(f[5], "asap cycle")?,
                alap: cur.num(f[6], "alap cycle")?,
            };
            if info.alap < info.asap {
                return Err(cur.err(format!("fragment o{op} has alap < asap")));
            }
            fragments.insert(OpId::from_index(op as usize), info);
        }

        let f = cur.tagged("per_source")?;
        if f.len() != 1 {
            return Err(cur.err("malformed per_source line"));
        }
        let count = cur.count(f[0], "per_source count", cur.lines_left())?;
        let mut per_source = BTreeMap::new();
        let mut previous: Option<u32> = None;
        for _ in 0..count {
            let f = cur.tagged("p")?;
            if f.len() < 2 {
                return Err(cur.err("malformed per_source entry"));
            }
            let source: u32 = cur.num(f[0], "source op index")?;
            if previous.is_some_and(|p| p >= source) {
                return Err(cur.err(format!("per_source entries out of order at o{source}")));
            }
            previous = Some(source);
            let k = cur.count(f[1], "per_source fragment count", f.len() - 2)?;
            if f.len() != 2 + k {
                return Err(cur.err(format!(
                    "per_source entry declares {k} fragments but carries {}",
                    f.len() - 2
                )));
            }
            let mut ops = Vec::with_capacity(k);
            for token in &f[2..] {
                ops.push(OpId::from_index(cur.num::<u32>(token, "fragment op index")? as usize));
            }
            per_source.insert(OpId::from_index(source as usize), ops);
        }

        cur.end("fragmented")?;
        Ok(Fragmented { spec, cycle, latency, critical_path, fragments, per_source })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fragment, FragmentOptions};

    fn sample() -> Fragmented {
        let spec = Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap();
        fragment(&spec, &FragmentOptions { latency: 3, cycle_override: None }).unwrap()
    }

    #[test]
    fn round_trip_is_identity() {
        let f = sample();
        let text = f.to_canonical();
        let back = Fragmented::from_canonical(&text).unwrap();
        assert_eq!(back.spec, f.spec);
        assert_eq!(back.cycle, f.cycle);
        assert_eq!(back.latency, f.latency);
        assert_eq!(back.critical_path, f.critical_path);
        assert_eq!(back.fragments, f.fragments);
        assert_eq!(back.per_source, f.per_source);
        assert_eq!(back.to_canonical(), text);
    }

    #[test]
    fn truncation_errors_cleanly() {
        let text = sample().to_canonical();
        let lines: Vec<&str> = text.lines().collect();
        for n in 0..lines.len() {
            assert!(Fragmented::from_canonical(&lines[..n].join("\n")).is_err(), "{n} lines");
        }
    }

    #[test]
    fn schema_bump_is_rejected() {
        let text = sample()
            .to_canonical()
            .replace("bittrans-canonical fragmented 1", "bittrans-canonical fragmented 7");
        assert!(Fragmented::from_canonical(&text).is_err());
    }

    #[test]
    fn corrupt_embedded_spec_is_rejected() {
        let text = sample().to_canonical().replace("end spec", "end spoc");
        assert!(Fragmented::from_canonical(&text).is_err());
    }
}
