//! Canonical codec for [`Schedule`] — the sched-crate
//! half of the workspace-wide artifact encoding rooted in
//! [`bittrans_ir::canonical`]. Schema-tagged, line-oriented, and
//! round-trip-exact: `from_canonical(to_canonical(x)) == x`.
//!
//! # Format (schema 1)
//!
//! ```text
//! bittrans-canonical schedule 1
//! latency <cycles>
//! cycle <delta>
//! assignment <n>
//! a <op-index> <cycle>        (strictly increasing op index)
//! end schedule
//! ```

use crate::conventional::Chaining;
use crate::Schedule;
use bittrans_ir::canonical::{write_end, write_header, CodecError, Cursor};
use bittrans_ir::types::OpId;
use bittrans_timing::Delta;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema version of the canonical [`Schedule`] encoding.
pub const SCHEDULE_SCHEMA: u32 = 1;

impl Schedule {
    /// Renders the canonical, re-parseable encoding of this schedule
    /// (schema [`SCHEDULE_SCHEMA`]); [`Schedule::from_canonical`] inverts
    /// it exactly.
    pub fn to_canonical(&self) -> String {
        let mut out = String::new();
        write_header(&mut out, "schedule", SCHEDULE_SCHEMA);
        let _ = writeln!(out, "latency {}", self.latency);
        let _ = writeln!(out, "cycle {}", self.cycle);
        let _ = writeln!(out, "assignment {}", self.len());
        for (op, cycle) in self.iter() {
            let _ = writeln!(out, "a {} {cycle}", op.index());
        }
        write_end(&mut out, "schedule");
        out
    }

    /// Parses a [`Schedule::to_canonical`] document back into the
    /// identical schedule.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] for syntax or schema problems, out-of-order or
    /// duplicate op indices, or an assigned cycle outside `1..=latency`
    /// (checked here so a corrupt document can never trip
    /// [`Schedule::new`]'s panic).
    pub fn from_canonical(text: &str) -> Result<Schedule, CodecError> {
        let mut cur = Cursor::new(text);
        let schedule = decode_schedule(&mut cur)?;
        cur.end("schedule")?;
        Ok(schedule)
    }

    /// Decodes a schedule embedded inside another canonical document:
    /// reads from `cur`'s current position through its `end schedule`
    /// line.
    ///
    /// # Errors
    ///
    /// Same as [`Schedule::from_canonical`].
    pub fn decode_embedded(cur: &mut Cursor<'_>) -> Result<Schedule, CodecError> {
        let schedule = decode_schedule(cur)?;
        cur.end_embedded("schedule")?;
        Ok(schedule)
    }
}

/// Decodes a schedule document from its header through its assignment
/// list; the caller checks the `end schedule` trailer (final or embedded).
fn decode_schedule(cur: &mut Cursor<'_>) -> Result<Schedule, CodecError> {
    cur.header("schedule", SCHEDULE_SCHEMA)?;
    let f = cur.tagged("latency")?;
    if f.len() != 1 {
        return Err(cur.err("malformed latency line"));
    }
    let latency: u32 = cur.num(f[0], "latency")?;
    let f = cur.tagged("cycle")?;
    if f.len() != 1 {
        return Err(cur.err("malformed cycle line"));
    }
    let cycle: Delta = cur.num(f[0], "cycle length")?;
    let f = cur.tagged("assignment")?;
    if f.len() != 1 {
        return Err(cur.err("malformed assignment line"));
    }
    let count = cur.count(f[0], "assignment count", cur.lines_left())?;
    let mut assignment = BTreeMap::new();
    let mut previous: Option<u32> = None;
    for _ in 0..count {
        let f = cur.tagged("a")?;
        if f.len() != 2 {
            return Err(cur.err("malformed assignment entry"));
        }
        let op: u32 = cur.num(f[0], "op index")?;
        let k: u32 = cur.num(f[1], "assigned cycle")?;
        if previous.is_some_and(|p| p >= op) {
            return Err(cur.err(format!("assignment entries out of order at o{op}")));
        }
        previous = Some(op);
        if !(1..=latency).contains(&k) {
            return Err(cur.err(format!("o{op} assigned to cycle {k}, outside 1..={latency}")));
        }
        assignment.insert(OpId::from_index(op as usize), k);
    }
    Ok(Schedule::new(latency, cycle, assignment))
}

impl Chaining {
    /// Stable short code for this chaining mode, suitable for cache keys
    /// and canonical documents.
    pub fn code(self) -> &'static str {
        match self {
            Chaining::ComponentSum => "component_sum",
            Chaining::BitLevel => "bit_level",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        let mut assignment = BTreeMap::new();
        assignment.insert(OpId::from_index(0), 1);
        assignment.insert(OpId::from_index(2), 3);
        assignment.insert(OpId::from_index(7), 2);
        Schedule::new(3, 16, assignment)
    }

    #[test]
    fn schedule_round_trip_is_identity() {
        let s = sample();
        let text = s.to_canonical();
        let back = Schedule::from_canonical(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_canonical(), text);
    }

    #[test]
    fn empty_schedule_round_trips() {
        let s = Schedule::new(1, 4, BTreeMap::new());
        assert_eq!(Schedule::from_canonical(&s.to_canonical()).unwrap(), s);
    }

    #[test]
    fn out_of_range_cycle_errors_instead_of_panicking() {
        let text = sample().to_canonical().replace("a 2 3", "a 2 9");
        let err = Schedule::from_canonical(&text).unwrap_err();
        assert!(err.msg.contains("outside"), "{err}");
    }

    #[test]
    fn out_of_order_entries_are_rejected() {
        let text = sample().to_canonical().replace("a 2 3", "a 0 1");
        assert!(Schedule::from_canonical(&text).is_err());
    }

    #[test]
    fn truncation_errors_cleanly() {
        let text = sample().to_canonical();
        let lines: Vec<&str> = text.lines().collect();
        for n in 0..lines.len() {
            assert!(Schedule::from_canonical(&lines[..n].join("\n")).is_err(), "{n} lines");
        }
    }

    #[test]
    fn chaining_codes_are_stable() {
        let codes = [Chaining::ComponentSum, Chaining::BitLevel].map(Chaining::code);
        assert_eq!(codes, ["component_sum", "bit_level"]);
    }
}
