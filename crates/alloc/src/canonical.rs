//! Canonical codec for [`Binding`] plus the shared [`Component`] /
//! [`AreaReport`] token helpers — the alloc-crate part of the
//! workspace-wide artifact encoding rooted in [`bittrans_ir::canonical`].
//! (`bittrans-rtl` has no dependencies, so the helpers for its types live
//! here, one crate up, where `bittrans-core` can reuse them.)
//!
//! A [`Datapath`](crate::Datapath) is not stored: it is a binding priced
//! with one adder architecture, cheaper to price again than to read.
//!
//! # Format (schema 1)
//!
//! ```text
//! bittrans-canonical binding 1
//! stored_bits <n>
//! controller <component-token>
//! fus <n>
//! fu <adder|multiplier> <width> <width_b> <k> <op>:<cycle>* <k> <op>*
//! registers <n>
//! r <width> <k> <value>:<lo>:<width>:<def>:<last-use>*
//! muxes <n>
//! m <component-token>
//! glue <n>
//! g <component-token>
//! end binding
//! ```
//!
//! Component tokens: `add:<arch>:<w>`, `mul:<a>:<b>`, `reg:<w>`,
//! `mux:<inputs>:<w>`, `gate:<not|andor|xor>:<w>`,
//! `ctrl:<states>:<signals>`. Area figures are bit-exact `f64` hex
//! (16 digits), the same convention the engine's cache keys use.

use crate::fu::{Fu, FuClass};
use crate::regs::{BitGroup, RegisterInstance};
use crate::Binding;
use bittrans_ir::canonical::{
    f64_from_hex, f64_to_hex, write_end, write_header, CodecError, Cursor,
};
use bittrans_ir::prelude::*;
use bittrans_rtl::{AdderArch, AreaReport, Component, GateKind};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Schema version of the canonical [`Binding`] encoding.
pub const BINDING_SCHEMA: u32 = 1;

/// Encodes one RTL component as a space-free token.
pub fn component_token(c: &Component) -> String {
    match c {
        Component::Adder { arch, width } => format!("add:{}:{width}", arch.code()),
        Component::Register { width } => format!("reg:{width}"),
        Component::Multiplier { a_width, b_width } => format!("mul:{a_width}:{b_width}"),
        Component::Mux { inputs, width } => format!("mux:{inputs}:{width}"),
        Component::Gate { kind, width } => {
            let kind = match kind {
                GateKind::Not => "not",
                GateKind::AndOr => "andor",
                GateKind::Xor => "xor",
            };
            format!("gate:{kind}:{width}")
        }
        Component::Controller { states, signals } => format!("ctrl:{states}:{signals}"),
    }
}

/// Reverses [`component_token`].
///
/// # Errors
///
/// A message when the token is malformed.
pub fn component_from_token(token: &str) -> Result<Component, String> {
    let bad = || format!("bad component token {token:?}");
    let mut it = token.split(':');
    let tag = it.next().ok_or_else(bad)?;
    let fields: Vec<&str> = it.collect();
    let num = |s: &str| s.parse::<u32>().map_err(|_| bad());
    match (tag, fields.as_slice()) {
        ("add", [arch, width]) => Ok(Component::Adder {
            arch: AdderArch::from_code(arch).ok_or_else(bad)?,
            width: num(width)?,
        }),
        ("reg", [width]) => Ok(Component::Register { width: num(width)? }),
        ("mul", [a, b]) => Ok(Component::Multiplier { a_width: num(a)?, b_width: num(b)? }),
        ("mux", [inputs, width]) => Ok(Component::Mux { inputs: num(inputs)?, width: num(width)? }),
        ("gate", [kind, width]) => {
            let kind = match *kind {
                "not" => GateKind::Not,
                "andor" => GateKind::AndOr,
                "xor" => GateKind::Xor,
                _ => return Err(bad()),
            };
            Ok(Component::Gate { kind, width: num(width)? })
        }
        ("ctrl", [states, signals]) => {
            Ok(Component::Controller { states: num(states)?, signals: num(signals)? })
        }
        _ => Err(bad()),
    }
}

/// Encodes an [`AreaReport`] as four bit-exact `f64` hex tokens.
pub fn area_tokens(area: &AreaReport) -> String {
    format!(
        "{} {} {} {}",
        f64_to_hex(area.fu),
        f64_to_hex(area.registers),
        f64_to_hex(area.routing),
        f64_to_hex(area.controller),
    )
}

/// Reverses [`area_tokens`] (given the four already-split tokens).
///
/// # Errors
///
/// A message when a token is not a 16-digit hex bit pattern.
pub fn area_from_tokens(tokens: &[&str]) -> Result<AreaReport, String> {
    if tokens.len() != 4 {
        return Err(format!("expected 4 area tokens, got {}", tokens.len()));
    }
    Ok(AreaReport {
        fu: f64_from_hex(tokens[0])?,
        registers: f64_from_hex(tokens[1])?,
        routing: f64_from_hex(tokens[2])?,
        controller: f64_from_hex(tokens[3])?,
    })
}

impl Binding {
    /// Renders the canonical, re-parseable encoding (schema
    /// [`BINDING_SCHEMA`]); [`Binding::from_canonical`] inverts it
    /// exactly.
    pub fn to_canonical(&self) -> String {
        let mut out = String::new();
        write_header(&mut out, "binding", BINDING_SCHEMA);
        let _ = writeln!(out, "stored_bits {}", self.stored_bits);
        let _ = writeln!(out, "controller {}", component_token(&self.controller));
        let _ = writeln!(out, "fus {}", self.fus.len());
        for fu in &self.fus {
            let class = match fu.class {
                FuClass::Adder => "adder",
                FuClass::Multiplier => "multiplier",
            };
            let mut line = format!("fu {class} {} {} {}", fu.width, fu.width_b, fu.bound.len());
            for (op, cycle) in &fu.bound {
                let _ = write!(line, " {}:{cycle}", op.index());
            }
            let _ = write!(line, " {}", fu.origins().len());
            for op in fu.origins() {
                let _ = write!(line, " {}", op.index());
            }
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "registers {}", self.registers.len());
        for reg in &self.registers {
            let mut line = format!("r {} {}", reg.width, reg.groups.len());
            for g in &reg.groups {
                let _ = write!(
                    line,
                    " {}:{}:{}:{}:{}",
                    g.value.index(),
                    g.range.lo(),
                    g.range.width(),
                    g.def,
                    g.last_use,
                );
            }
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "muxes {}", self.muxes.len());
        for m in &self.muxes {
            let _ = writeln!(out, "m {}", component_token(m));
        }
        let _ = writeln!(out, "glue {}", self.glue.len());
        for g in &self.glue {
            let _ = writeln!(out, "g {}", component_token(g));
        }
        write_end(&mut out, "binding");
        out
    }

    /// Parses a [`Binding::to_canonical`] document back into the
    /// identical binding.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] for syntax, schema, or token problems.
    pub fn from_canonical(text: &str) -> Result<Binding, CodecError> {
        let mut cur = Cursor::new(text);
        let binding = decode_binding(&mut cur)?;
        cur.end("binding")?;
        Ok(binding)
    }

    /// Decodes a binding embedded inside another canonical document:
    /// reads from `cur`'s current position through its `end binding` line.
    ///
    /// # Errors
    ///
    /// Same as [`Binding::from_canonical`].
    pub fn decode_embedded(cur: &mut Cursor<'_>) -> Result<Binding, CodecError> {
        let binding = decode_binding(cur)?;
        cur.end_embedded("binding")?;
        Ok(binding)
    }
}

/// Decodes a binding document from its header through its glue list; the
/// caller checks the `end binding` trailer (final or embedded).
fn decode_binding(cur: &mut Cursor<'_>) -> Result<Binding, CodecError> {
    cur.header("binding", BINDING_SCHEMA)?;
    let f = cur.tagged("stored_bits")?;
    if f.len() != 1 {
        return Err(cur.err("malformed stored_bits line"));
    }
    let stored_bits: u32 = cur.num(f[0], "stored bits")?;
    let f = cur.tagged("controller")?;
    if f.len() != 1 {
        return Err(cur.err("malformed controller line"));
    }
    let controller = component_from_token(f[0]).map_err(|m| cur.err(m))?;

    let f = cur.tagged("fus")?;
    if f.len() != 1 {
        return Err(cur.err("malformed fus line"));
    }
    let count = cur.count(f[0], "fu count", cur.lines_left())?;
    let mut fus = Vec::with_capacity(count);
    for _ in 0..count {
        let f = cur.tagged("fu")?;
        if f.len() < 4 {
            return Err(cur.err("malformed fu line"));
        }
        let class = match f[0] {
            "adder" => FuClass::Adder,
            "multiplier" => FuClass::Multiplier,
            other => return Err(cur.err(format!("unknown fu class {other:?}"))),
        };
        let width: u32 = cur.num(f[1], "fu width")?;
        let width_b: u32 = cur.num(f[2], "fu width_b")?;
        let n_bound = cur.count(f[3], "bound count", f.len() - 4)?;
        if f.len() < 4 + n_bound + 1 {
            return Err(cur.err("fu line shorter than its bound list"));
        }
        let mut bound = Vec::with_capacity(n_bound);
        for token in &f[4..4 + n_bound] {
            let (op, cycle) = token
                .split_once(':')
                .ok_or_else(|| cur.err(format!("bad binding token {token:?}")))?;
            bound.push((
                OpId::from_index(cur.num::<u32>(op, "bound op index")? as usize),
                cur.num::<u32>(cycle, "bound cycle")?,
            ));
        }
        let n_origins = cur.count(f[4 + n_bound], "origin count", f.len() - 5 - n_bound)?;
        if f.len() != 5 + n_bound + n_origins {
            return Err(cur.err("fu line length disagrees with its counts"));
        }
        let mut origins = BTreeSet::new();
        for token in &f[5 + n_bound..] {
            origins.insert(OpId::from_index(cur.num::<u32>(token, "origin op index")? as usize));
        }
        if origins.len() != n_origins {
            return Err(cur.err("duplicate fu origin entries"));
        }
        fus.push(Fu::from_parts(class, width, width_b, bound, origins));
    }

    let f = cur.tagged("registers")?;
    if f.len() != 1 {
        return Err(cur.err("malformed registers line"));
    }
    let count = cur.count(f[0], "register count", cur.lines_left())?;
    let mut registers = Vec::with_capacity(count);
    for _ in 0..count {
        let f = cur.tagged("r")?;
        if f.len() < 2 {
            return Err(cur.err("malformed register line"));
        }
        let width: u32 = cur.num(f[0], "register width")?;
        let n_groups = cur.count(f[1], "group count", f.len() - 2)?;
        if f.len() != 2 + n_groups {
            return Err(cur.err("register line length disagrees with its group count"));
        }
        let mut groups = Vec::with_capacity(n_groups);
        for token in &f[2..] {
            let parts: Vec<&str> = token.split(':').collect();
            if parts.len() != 5 {
                return Err(cur.err(format!("bad bit-group token {token:?}")));
            }
            groups.push(BitGroup {
                value: ValueId::from_index(cur.num::<u32>(parts[0], "group value")? as usize),
                range: BitRange::new(
                    cur.num(parts[1], "group range lo")?,
                    cur.num(parts[2], "group range width")?,
                ),
                def: cur.num(parts[3], "group def cycle")?,
                last_use: cur.num(parts[4], "group last-use cycle")?,
            });
        }
        registers.push(RegisterInstance { width, groups });
    }

    let f = cur.tagged("muxes")?;
    if f.len() != 1 {
        return Err(cur.err("malformed muxes line"));
    }
    let count = cur.count(f[0], "mux count", cur.lines_left())?;
    let mut muxes = Vec::with_capacity(count);
    for _ in 0..count {
        let f = cur.tagged("m")?;
        if f.len() != 1 {
            return Err(cur.err("malformed mux line"));
        }
        muxes.push(component_from_token(f[0]).map_err(|m| cur.err(m))?);
    }

    let f = cur.tagged("glue")?;
    if f.len() != 1 {
        return Err(cur.err("malformed glue line"));
    }
    let count = cur.count(f[0], "glue count", cur.lines_left())?;
    let mut glue = Vec::with_capacity(count);
    for _ in 0..count {
        let f = cur.tagged("g")?;
        if f.len() != 1 {
            return Err(cur.err("malformed glue line"));
        }
        glue.push(component_from_token(f[0]).map_err(|m| cur.err(m))?);
    }

    Ok(Binding { fus, registers, muxes, glue, controller, stored_bits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind;
    use bittrans_sched::conventional::{schedule_conventional, ConventionalOptions};

    fn sample() -> Binding {
        let spec = Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap();
        let sched = schedule_conventional(&spec, &ConventionalOptions::with_latency(3)).unwrap();
        bind(&spec, &sched)
    }

    #[test]
    fn round_trip_reencodes_identically() {
        let binding = sample();
        let text = binding.to_canonical();
        let back = Binding::from_canonical(&text).unwrap();
        // Binding carries no PartialEq; the canonical fixpoint is the
        // identity check, plus spot checks on the priced totals.
        assert_eq!(back.to_canonical(), text);
        assert_eq!(back.stored_bits, binding.stored_bits);
        assert_eq!(back.fus.len(), binding.fus.len());
        for arch in [AdderArch::RippleCarry, AdderArch::CarryLookahead, AdderArch::CarrySelect] {
            let (dp, reheated) = (binding.price(arch), back.price(arch));
            assert_eq!(reheated.area.total().to_bits(), dp.area.total().to_bits());
        }
    }

    #[test]
    fn component_tokens_round_trip() {
        let all = [
            Component::Adder { arch: AdderArch::CarrySelect, width: 16 },
            Component::Register { width: 9 },
            Component::Multiplier { a_width: 12, b_width: 8 },
            Component::Mux { inputs: 4, width: 16 },
            Component::Gate { kind: GateKind::Not, width: 3 },
            Component::Gate { kind: GateKind::AndOr, width: 5 },
            Component::Gate { kind: GateKind::Xor, width: 7 },
            Component::Controller { states: 4, signals: 20 },
        ];
        for c in &all {
            let token = component_token(c);
            assert!(!token.contains(' '), "{token}");
            assert_eq!(&component_from_token(&token).unwrap(), c, "{token}");
        }
        assert!(component_from_token("add:rca").is_err());
        assert!(component_from_token("warp:9").is_err());
    }

    #[test]
    fn truncation_errors_cleanly() {
        let text = sample().to_canonical();
        let lines: Vec<&str> = text.lines().collect();
        for n in 0..lines.len() {
            assert!(Binding::from_canonical(&lines[..n].join("\n")).is_err(), "{n} lines");
        }
    }

    #[test]
    fn counts_beyond_the_document_are_rejected() {
        let text = sample().to_canonical();
        let line = |tag: &str| {
            text.lines()
                .find(|l| l.starts_with(tag))
                .unwrap_or_else(|| panic!("no {tag}"))
                .to_owned()
        };
        // A list count, and a `fu` line's bound count: `fu <class> <w> <wb> <n> ...`.
        let fu = line("fu ");
        let mut fields: Vec<&str> = fu.split(' ').collect();
        fields[4] = "18446744073709551615";
        for (from, to) in
            [(line("fus "), "fus 4294967295".to_owned()), (fu.clone(), fields.join(" "))]
        {
            let err = Binding::from_canonical(&text.replace(&from, &to)).unwrap_err();
            assert!(err.msg.contains("exceeds"), "{to}: {err}");
        }
    }

    #[test]
    fn corrupt_component_is_rejected() {
        let text = sample().to_canonical();
        let controller =
            text.lines().find(|l| l.starts_with("controller ")).expect("controller line");
        let broken = text.replace(controller, "controller ctrl:zz:zz");
        assert!(Binding::from_canonical(&broken).is_err());
    }
}
