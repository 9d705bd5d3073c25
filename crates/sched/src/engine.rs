//! Shared bit-exact placement engine.
//!
//! Both schedulers place operations cycle by cycle while tracking, for
//! every produced bit, *which cycle it is produced in and at what absolute
//! δ time it settles*. Chaining is bit-level: a consumer in the same cycle
//! sees the producer's real settle times (the ripple overlap of Fig. 1 e),
//! while a consumer in a later cycle reads registered bits available at its
//! cycle start. Glue is transparent wiring: committing a glue op records
//! each output bit as the latest of the bits it reads
//! ([`bittrans_timing::bitref::glue_sources`]).

use crate::SchedError;
use bittrans_ir::prelude::*;
use bittrans_timing::bitref::{add_profile, glue_sources, operand_bit, BitRef};
use bittrans_timing::{op_delay_delta, Delta};
use std::collections::BTreeMap;

/// How operations chained within one cycle accumulate delay.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ChainModel {
    /// Chained operations add their full component delays — the way a
    /// conventional tool (Synopsys BC with characterised component delays)
    /// sees chaining. Two chained 16-bit adders cost 32δ.
    #[default]
    ComponentSum,
    /// Bit-level chaining: the ripple paths overlap (the paper's Fig. 1 e
    /// and the BLC prior art \[3\]). Two chained 16-bit adders cost 17δ.
    BitLevel,
}

/// Production record of one bit: the cycle it is produced in (0 = constant
/// or primary input, available always) and its absolute settle time.
/// Records order by cycle, then time: the later of two is the max.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct BitProd {
    /// Producing cycle; 0 means available from the start of any cycle.
    pub cycle: u32,
    /// Absolute settle time in δ.
    pub time: Delta,
}

const CONST_BIT: BitProd = BitProd { cycle: 0, time: 0 };

/// Bit-exact incremental placer.
pub struct Placer<'s> {
    spec: &'s Spec,
    /// Cycle duration in δ.
    pub cycle: Delta,
    /// Latency bound in cycles.
    pub latency: u32,
    /// Delay accumulation rule for in-cycle chaining.
    pub chain: ChainModel,
    /// Bit production records of inputs and committed results, glue
    /// included; `None` until the value's op is committed. Users commit
    /// in topological order, so every bit an op reads already has a row.
    states: Vec<Option<Vec<BitProd>>>,
    /// Cycle assignment of placed operations.
    pub assignment: BTreeMap<OpId, u32>,
    /// Number of non-glue operations placed per cycle (for balancing).
    pub usage: BTreeMap<u32, u32>,
}

impl<'s> Placer<'s> {
    /// Creates an empty placer with bit-level chaining: inputs are
    /// available from cycle start.
    pub fn new(spec: &'s Spec, cycle: Delta, latency: u32) -> Self {
        Self::with_chain(spec, cycle, latency, ChainModel::BitLevel)
    }

    /// Creates an empty placer with an explicit chain model.
    pub fn with_chain(spec: &'s Spec, cycle: Delta, latency: u32, chain: ChainModel) -> Self {
        let mut states: Vec<Option<Vec<BitProd>>> = vec![None; spec.values().len()];
        for &input in spec.inputs() {
            let w = spec.value(input).width() as usize;
            states[input.index()] = Some(vec![CONST_BIT; w]);
        }
        Placer {
            spec,
            cycle,
            latency,
            chain,
            states,
            assignment: BTreeMap::new(),
            usage: BTreeMap::new(),
        }
    }

    /// Start time (absolute δ) of cycle `k` (1-based).
    fn cycle_start(&self, k: u32) -> Delta {
        Delta::from(k - 1) * self.cycle
    }

    /// Effective availability of a produced bit inside cycle `k`:
    /// registered bits appear at cycle start, same-cycle bits at their
    /// settle time, future bits are unavailable.
    fn eff(&self, p: BitProd, k: u32) -> Option<Delta> {
        if p.cycle < k {
            Some(self.cycle_start(k))
        } else if p.cycle == k {
            Some(p.time)
        } else {
            None
        }
    }

    /// The production record of bit `i` of a committed `value`.
    fn prod_of(&self, value: ValueId, i: u32) -> BitProd {
        self.states[value.index()].as_ref().expect("value read before its op was committed")
            [i as usize]
    }

    /// Effective time of bit `j` of `operand` inside cycle `k`; `None`
    /// when the bit is produced in a later cycle.
    fn operand_eff(&self, op: &Operation, operand: &Operand, j: u32, k: u32) -> Option<Delta> {
        match operand_bit(self.spec, operand, j, op.signedness().is_signed()) {
            BitRef::Const => Some(self.cycle_start(k)),
            BitRef::Value { value, bit } => self.eff(self.prod_of(value, bit), k),
        }
    }

    /// Attempts to compute the output settle times of a non-glue `op`
    /// executed in cycle `k`. Returns `None` if an input bit is not yet
    /// available in `k` or an output bit would settle past the cycle end.
    pub fn try_place(&self, op: &Operation, k: u32) -> Option<Vec<Delta>> {
        debug_assert!(!op.kind().is_glue());
        let w = op.width();
        let end = self.cycle_start(k) + self.cycle;
        if self.chain == ChainModel::ComponentSum || op.kind() == OpKind::Mul {
            // Conventional chaining, and a multiplier under either model:
            // the whole component starts after its latest input bit and
            // takes its full characterised delay.
            let mut start = self.cycle_start(k);
            for operand in op.operands() {
                let ow = self.spec.operand_width(operand);
                for j in 0..ow {
                    start = start.max(self.operand_eff(op, operand, j, k)?);
                }
            }
            let finish = start + op_delay_delta(self.spec, op);
            if finish > end {
                return None;
            }
            return Some(vec![finish; w as usize]);
        }
        let out = match op.kind() {
            OpKind::Add => self.add_times(op, k)?,
            OpKind::Sub | OpKind::Neg | OpKind::Abs => {
                let mut prev = self.cycle_start(k);
                let mut out = Vec::with_capacity(w as usize);
                for i in 0..w {
                    let mut t = prev;
                    for operand in &op.operands()[..op.operands().len().min(2)] {
                        t = t.max(self.operand_eff(op, operand, i, k)?);
                    }
                    prev = t + 1;
                    out.push(prev);
                }
                out
            }
            OpKind::Lt | OpKind::Le | OpKind::Gt | OpKind::Ge | OpKind::Max | OpKind::Min => {
                let w_in =
                    op.operands().iter().map(|o| self.spec.operand_width(o)).max().unwrap_or(1);
                let mut chain = self.cycle_start(k);
                for i in 0..w_in {
                    let mut t = chain;
                    for operand in op.operands() {
                        t = t.max(self.operand_eff(op, operand, i, k)?);
                    }
                    chain = t + 1;
                }
                vec![chain; w as usize]
            }
            other => unreachable!("{other} handled as glue"),
        };
        if out.iter().any(|&t| t > end) {
            return None;
        }
        Some(out)
    }

    /// Refined ripple chain for `Add` (mirrors `bittrans-timing`).
    fn add_times(&self, op: &Operation, k: u32) -> Option<Vec<Delta>> {
        let w = op.width();
        let profile = add_profile(self.spec, op);
        let base = self.cycle_start(k);
        let mut t_carry = if profile.carry_live[0] {
            self.operand_eff(op, &op.operands()[2], 0, k)?
        } else {
            base
        };
        let mut out = Vec::with_capacity(w as usize);
        for i in 0..w {
            let ta = self.operand_eff(op, &op.operands()[0], i, k)?;
            let tb = self.operand_eff(op, &op.operands()[1], i, k)?;
            let t = profile.settle(i, ta, tb, t_carry, base);
            out.push(t);
            t_carry = if profile.carry_live[i as usize + 1] { t } else { base };
        }
        Some(out)
    }

    /// Commits `op` to cycle `k` with the settle times returned by
    /// [`Self::try_place`].
    pub fn commit(&mut self, op: &Operation, k: u32, times: Vec<Delta>) {
        let row: Vec<BitProd> = times.into_iter().map(|t| BitProd { cycle: k, time: t }).collect();
        self.states[op.result().index()] = Some(row);
        self.assignment.insert(op.id(), k);
        *self.usage.entry(k).or_insert(0) += 1;
    }

    /// Commits a glue (or `Eq`/`Ne`) operation: each output bit is the
    /// (cycle, time)-latest of the bits it reads, and the op is assigned
    /// (for bookkeeping) to the latest of those cycles, at least 1.
    pub fn commit_glue(&mut self, op: &Operation) {
        let row: Vec<BitProd> = (0..op.width())
            .map(|i| {
                let mut latest = CONST_BIT;
                glue_sources(self.spec, op, i, |value, bit| {
                    latest = latest.max(self.prod_of(value, bit));
                });
                latest
            })
            .collect();
        let k = row.iter().map(|p| p.cycle).max().unwrap_or(0).max(1);
        self.states[op.result().index()] = Some(row);
        self.assignment.insert(op.id(), k.min(self.latency.max(1)));
    }

    /// The latest producing cycle among `op`'s input bits (0 when every
    /// input is a port or constant) — the earliest cycle the op could
    /// possibly chain in is `max(this, 1)`.
    pub fn earliest_input_cycle(&self, op: &Operation) -> u32 {
        let signed = op.signedness().is_signed();
        let mut k = 0;
        for operand in op.operands() {
            let ow = self.spec.operand_width(operand);
            for j in 0..ow {
                if let BitRef::Value { value, bit } = operand_bit(self.spec, operand, j, signed) {
                    k = k.max(self.prod_of(value, bit).cycle);
                }
            }
        }
        k
    }

    /// Places `op` at the first valid cycle in `lo..=hi`; with
    /// `preferred`, tries the balance-chosen cycles first (falling back to
    /// the earliest valid).
    ///
    /// # Errors
    ///
    /// [`SchedError::NoFeasibleCycle`] when no cycle in the window works.
    pub fn place_in_window(
        &mut self,
        op: &Operation,
        lo: u32,
        hi: u32,
        balance: bool,
    ) -> Result<u32, SchedError> {
        let mut valid: Vec<u32> = Vec::new();
        for k in lo..=hi.min(self.latency) {
            if self.try_place(op, k).is_some() {
                valid.push(k);
                if !balance {
                    break;
                }
            }
        }
        let Some(&chosen) = (if balance {
            valid.iter().min_by_key(|&&k| (self.usage.get(&k).copied().unwrap_or(0), k))
        } else {
            valid.first()
        }) else {
            return Err(SchedError::NoFeasibleCycle { op: op.id(), window: (lo, hi) });
        };
        let times = self.try_place(op, chosen).expect("cycle was validated above");
        self.commit(op, chosen, times);
        Ok(chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bittrans_timing::arrival_times;

    fn three_adds() -> Spec {
        Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap()
    }

    #[test]
    fn single_cycle_matches_arrival_times() {
        // Placing everything in cycle 1 of a wide cycle must reproduce the
        // pure dataflow arrival times.
        let spec = three_adds();
        let arr = arrival_times(&spec);
        let mut p = Placer::new(&spec, 100, 1);
        for op in spec.ops() {
            let t = p.try_place(op, 1).unwrap();
            for (i, &ti) in t.iter().enumerate() {
                assert_eq!(ti, arr.bit(op.result(), i as u32), "{} bit {i}", op.label());
            }
            p.commit(op, 1, t);
        }
    }

    #[test]
    fn registered_inputs_restart_chain() {
        let spec = three_adds();
        let mut p = Placer::new(&spec, 16, 3);
        let ops = spec.ops();
        let t = p.try_place(&ops[0], 1).unwrap();
        p.commit(&ops[0], 1, t);
        // E in cycle 2 reads registered C: bits settle at 16 + i + 1.
        let t = p.try_place(&ops[1], 2).unwrap();
        assert_eq!(t[0], 17);
        assert_eq!(t[15], 32);
    }

    #[test]
    fn chaining_in_same_cycle_overlaps() {
        let spec = three_adds();
        let mut p = Placer::new(&spec, 18, 1);
        let ops = spec.ops();
        for op in ops {
            let t = p.try_place(op, 1).unwrap();
            p.commit(op, 1, t);
        }
        // G's msb settles at 18δ — the Fig. 1 e) number.
        let g = &ops[2];
        assert_eq!(p.prod_of(g.result(), 15).time, 18);
    }

    #[test]
    fn rejects_overflowing_cycle() {
        let spec = three_adds();
        let p = Placer::new(&spec, 15, 1);
        assert!(p.try_place(&spec.ops()[0], 1).is_none(), "16δ add in 15δ cycle");
    }

    #[test]
    fn rejects_future_inputs() {
        let spec = three_adds();
        let mut p = Placer::new(&spec, 16, 3);
        let ops = spec.ops();
        let t = p.try_place(&ops[0], 2).unwrap();
        p.commit(&ops[0], 2, t);
        assert!(p.try_place(&ops[1], 1).is_none(), "consumer before producer");
        assert_eq!(p.earliest_input_cycle(&ops[1]), 2);
    }

    #[test]
    fn glue_is_transparent_across_cycles() {
        let spec = Spec::parse(
            "spec s { input a: u8; input b: u8;
              x: u8 = a + b;
              n: u8 = ~x;
              y: u8 = n + b;
              output y; }",
        )
        .unwrap();
        let mut p = Placer::new(&spec, 9, 2);
        let ops = spec.ops();
        let t = p.try_place(&ops[0], 1).unwrap();
        p.commit(&ops[0], 1, t);
        p.commit_glue(&ops[1]);
        // y in cycle 2 sees ~x as registered data at cycle start (9δ).
        let t = p.try_place(&ops[2], 2).unwrap();
        assert_eq!(t[0], 10);
        assert_eq!(p.assignment[&ops[1].id()], 1);
    }

    #[test]
    fn place_in_window_balances() {
        let spec = Spec::parse(
            "spec s { input a: u8; input b: u8;
              w: u8 = a + b; x: u8 = a + b; y: u8 = a + b; z: u8 = a + b;
              output w; output x; output y; output z; }",
        )
        .unwrap();
        let mut p = Placer::new(&spec, 8, 2);
        for op in spec.ops() {
            p.place_in_window(op, 1, 2, true).unwrap();
        }
        assert_eq!(p.usage[&1], 2);
        assert_eq!(p.usage[&2], 2);
    }

    #[test]
    fn component_sum_accumulates_delays() {
        let spec = three_adds();
        let mut p = Placer::with_chain(&spec, 48, 1, ChainModel::ComponentSum);
        let ops = spec.ops();
        // Chained in one cycle: finishes at 16, 32, 48 — summed delays.
        let t = p.try_place(&ops[0], 1).unwrap();
        assert!(t.iter().all(|&x| x == 16));
        p.commit(&ops[0], 1, t);
        let t = p.try_place(&ops[1], 1).unwrap();
        assert!(t.iter().all(|&x| x == 32));
        p.commit(&ops[1], 1, t);
        let t = p.try_place(&ops[2], 1).unwrap();
        assert!(t.iter().all(|&x| x == 48));
    }

    #[test]
    fn component_sum_rejects_what_bitlevel_accepts() {
        let spec = three_adds();
        // 18δ is enough for the ripple overlap but not for summed delays.
        let mut bit = Placer::with_chain(&spec, 18, 1, ChainModel::BitLevel);
        let mut sum = Placer::with_chain(&spec, 18, 1, ChainModel::ComponentSum);
        for op in spec.ops() {
            let t = bit.try_place(op, 1).expect("bit-level fits 18δ");
            bit.commit(op, 1, t);
        }
        let t = sum.try_place(&spec.ops()[0], 1).unwrap();
        sum.commit(&spec.ops()[0], 1, t);
        assert!(
            sum.try_place(&spec.ops()[1], 1).is_none(),
            "component-sum cannot chain two 16-bit adds into 18δ"
        );
    }

    #[test]
    fn no_feasible_cycle_error() {
        let spec = three_adds();
        let mut p = Placer::new(&spec, 10, 2);
        let err = p.place_in_window(&spec.ops()[0], 1, 2, false).unwrap_err();
        assert!(matches!(err, SchedError::NoFeasibleCycle { .. }));
    }
}
