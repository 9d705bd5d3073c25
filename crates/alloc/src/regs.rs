//! Bit-level register allocation.
//!
//! The paper's storage savings come from a simple observation: a result bit
//! only needs a register if some operation consumes it in a *later* cycle
//! than the one producing it. In the transformed specification most bits
//! are consumed in their own cycle by the chained successor fragment, so
//! only fragment boundary bits (top sum bits and carries) survive a cycle
//! edge — "just C5 and E4 plus the 3 carry outs must be stored" (§2).
//!
//! Transparent glue (wiring, inverters, muxes) is traced through: storing
//! happens at the *producing* additive operation, not at the wires. Gate
//! glue read in a later cycle than it computes is the one exception: it is
//! registered itself (see [`allocate_registers`]).
//!
//! Both passes over glue work a row at a time on the op's wiring spans
//! ([`bittrans_timing::bitref::glue_wires`]): liveness gathers each glue
//! row forward with [`gather_max`] over `bool` (the max is an or), and the
//! need pass scatters each glue row of last-read cycles backward with
//! [`scatter`] (max), after applying the wiring / `min(k)` rule to that
//! row.

use crate::fu::class_of;
use bittrans_ir::prelude::*;
use bittrans_rtl::Component;
use bittrans_sched::Schedule;
use bittrans_timing::bitref::{gather_max, scatter};
use bittrans_timing::BitTable;

/// A contiguous run of stored bits of one value sharing a lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitGroup {
    /// The producing value.
    pub value: ValueId,
    /// The stored bits.
    pub range: BitRange,
    /// Producing cycle.
    pub def: u32,
    /// Last consuming cycle (exclusive end of the lifetime is this cycle).
    pub last_use: u32,
}

/// A physical register holding one or more bit groups with disjoint
/// lifetimes.
#[derive(Clone, Debug)]
pub struct RegisterInstance {
    /// Width in bits (the widest group stored).
    pub width: u32,
    /// The stored groups, in assignment order.
    pub groups: Vec<BitGroup>,
}

impl RegisterInstance {
    /// The RTL component realising this register.
    pub fn component(&self) -> Component {
        Component::Register { width: self.width }
    }
}

/// `true` for operations whose results are storable producers; `false` for
/// transparent wiring/glue that the analysis traces through.
pub(crate) fn is_base_producer(kind: OpKind) -> bool {
    class_of(kind).is_some()
        || matches!(kind, OpKind::RedOr | OpKind::RedAnd | OpKind::Eq | OpKind::Ne)
}

/// Pure wiring: zero hardware, *always* traced through — it makes no sense
/// to register the output of a concatenation or constant shift.
pub(crate) fn is_wiring(kind: OpKind) -> bool {
    matches!(kind, OpKind::Concat | OpKind::Shl(_) | OpKind::Shr(_) | OpKind::Not)
}

/// Per value, per bit: whether the bit carries live data. Input-port and
/// base-producer bits are live; a glue bit is live when a bit it reads is
/// (constants and zero padding are not). One forward pass over the ops.
pub(crate) fn live_bits(spec: &Spec) -> BitTable<bool> {
    let mut live = BitTable::filled(spec, false);
    for value in spec.values().iter().filter(|v| v.is_input()) {
        live[value.id()].fill(true);
    }
    let mut glue = Vec::new();
    for op in spec.ops() {
        let z = op.result();
        if is_base_producer(op.kind()) {
            live[z].fill(true);
            continue;
        }
        glue.clear();
        glue.resize(op.width() as usize, false);
        gather_max(spec, op, &mut glue, |value, _| &live[value]);
        live[z].copy_from_slice(&glue);
    }
    live
}

/// The need pass: per value, per bit, the last cycle the bit is read in
/// (0 if never). One backward sweep over the ops. A base producer reads
/// its operands' bits in its own cycle `k`. A gate-glue bit read in cycles
/// `k'` needs its own sources at `min(k', gk)`, where `gk` is its own cycle
/// (in its own cycle when it is registered, at the read otherwise), and
/// the latest of those is `min(max k', gk)`; wiring passes `max k'`
/// through unchanged. Each glue op applies that rule to its result row and
/// scatters the row onto the bits it reads with `max`.
pub(crate) fn last_reads(spec: &Spec, schedule: &Schedule) -> BitTable<u32> {
    let mut need = BitTable::filled(spec, 0u32);
    let mut glue = Vec::new();
    for op in spec.ops().iter().rev() {
        let k = schedule.cycle_of(op.id()).unwrap_or(1);
        if is_base_producer(op.kind()) {
            for operand in op.operands() {
                if let Operand::Value { value, range } = operand {
                    let (lo, w) = match range {
                        Some(r) => (r.lo(), r.width()),
                        None => (0, spec.value(*value).width()),
                    };
                    for slot in &mut need[*value][lo as usize..(lo + w) as usize] {
                        *slot = (*slot).max(k);
                    }
                }
            }
            continue;
        }
        // Transparent glue: every consumer comes later, so `need` of its
        // result is final here. A bit never read stays 0, which `max`
        // ignores.
        let wiring = is_wiring(op.kind());
        glue.clear();
        glue.extend(need[op.result()].iter().map(|&last| if wiring { last } else { last.min(k) }));
        scatter(spec, op, &glue, &mut need, u32::max);
    }
    need
}

/// Computes the physical registers for `spec` under `schedule`.
///
/// Uses are traced through glue *within a cycle*; a glue result consumed in
/// a **later** cycle than the one it is computed in gets registered at the
/// boundary (register-after-the-array: a carry-save tree's sum/carry
/// vectors are stored rather than recomputed, which frees the array for
/// other operations — the storage-vs-recompute choice real datapaths make).
///
/// The need pass (`last_reads`) says when each bit is last read. Only
/// that maximum matters: a base-producer bit is stored until its last
/// read, and a gate-glue bit computed in cycle `gk` is stored exactly when
/// its last read is after `gk`.
///
/// I/O-port bits are excluded (the paper does not count port-holding
/// registers). Bit groups with disjoint lifetimes share registers
/// (left-edge).
pub fn allocate_registers(spec: &Spec, schedule: &Schedule) -> Vec<RegisterInstance> {
    let need = last_reads(spec, schedule);
    // Build per-value stored-bit groups (base producers and
    // boundary-crossing glue alike).
    let mut groups: Vec<BitGroup> = Vec::new();
    for value in spec.values() {
        let Some(def_op) = value.defining_op() else {
            continue; // input ports: excluded
        };
        if is_wiring(spec.op(def_op).kind()) {
            continue; // wiring is traced through, never stored
        }
        let def = schedule.cycle_of(def_op).unwrap_or(1);
        let mut current: Option<BitGroup> = None;
        for i in 0..value.width() {
            let lu = need[value.id()][i as usize];
            if lu > def {
                match &mut current {
                    Some(g) if g.last_use == lu && g.range.end() == i => {
                        g.range = BitRange::new(g.range.lo(), g.range.width() + 1);
                    }
                    _ => {
                        if let Some(g) = current.take() {
                            groups.push(g);
                        }
                        current = Some(BitGroup {
                            value: value.id(),
                            range: BitRange::new(i, 1),
                            def,
                            last_use: lu,
                        });
                    }
                }
            } else if let Some(g) = current.take() {
                groups.push(g);
            }
        }
        if let Some(g) = current.take() {
            groups.push(g);
        }
    }
    // Left-edge assignment into register instances.
    groups.sort_by_key(|g| (g.def, g.value, g.range.lo()));
    let mut instances: Vec<(RegisterInstance, u32)> = Vec::new(); // (reg, free_at)
    for g in groups {
        let slot = instances
            .iter_mut()
            .filter(|(_, free_at)| *free_at <= g.def)
            .min_by_key(|(reg, _)| (g.range.width().saturating_sub(reg.width), reg.width));
        match slot {
            Some((reg, free_at)) => {
                reg.width = reg.width.max(g.range.width());
                reg.groups.push(g);
                *free_at = g.last_use;
            }
            None => instances
                .push((RegisterInstance { width: g.range.width(), groups: vec![g] }, g.last_use)),
        }
    }
    instances.into_iter().map(|(reg, _)| reg).collect()
}

/// Multiplexers in front of registers fed from more than one source group.
pub fn register_muxes(registers: &[RegisterInstance]) -> Vec<Component> {
    registers
        .iter()
        .filter(|r| r.groups.len() >= 2)
        .map(|r| Component::Mux { inputs: r.groups.len() as u32, width: r.width })
        .collect()
}

/// Specs with glue and a schedule of each: the kind zoo, and random specs
/// across the fuzz shapes, raw and as kernels at λ 3 under the baseline
/// scheduler, and fragmented at λ 2, 3, 4 and 6 under the fragment
/// scheduler.
#[cfg(test)]
pub(crate) fn scheduled_glue_corpus() -> Vec<(Spec, Schedule)> {
    use bittrans_benchmarks::{kind_zoo, random_spec, FUZZ_SHAPES};
    use bittrans_frag::{fragment, FragmentOptions};
    use bittrans_sched::conventional::{schedule_conventional, ConventionalOptions};
    use bittrans_sched::fragment::{schedule_fragments, FragmentScheduleOptions};
    let baseline = |spec: Spec| {
        let schedule = schedule_conventional(&spec, &ConventionalOptions::with_latency(3)).unwrap();
        (spec, schedule)
    };
    let mut out = vec![baseline(kind_zoo(true)), baseline(kind_zoo(false))];
    for seed in 0..64 {
        let spec = random_spec(seed, &FUZZ_SHAPES[seed as usize % 4]);
        let kernel = bittrans_kernel::extract(&spec).unwrap();
        for latency in [2, 3, 4, 6] {
            if let Ok(f) = fragment(&kernel, &FragmentOptions::with_latency(latency)) {
                let schedule = schedule_fragments(&f, &FragmentScheduleOptions::default()).unwrap();
                out.push((f.spec, schedule));
            }
        }
        out.extend([baseline(spec), baseline(kernel)]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bittrans_sched::conventional::{schedule_conventional, ConventionalOptions};
    use bittrans_timing::bitref::glue_wires;

    /// [`live_bits`] with each glue bit or-ed from its sources one by one.
    fn per_bit_live(spec: &Spec) -> BitTable<bool> {
        let mut live = BitTable::filled(spec, false);
        for value in spec.values().iter().filter(|v| v.is_input()) {
            live[value.id()].fill(true);
        }
        for op in spec.ops() {
            if is_base_producer(op.kind()) {
                live[op.result()].fill(true);
                continue;
            }
            let mut row = vec![false; op.width() as usize];
            glue_wires(spec, op, |wire| {
                wire.for_each_bit(|i, bit| row[i as usize] |= live[wire.value()][bit as usize]);
            });
            live[op.result()].copy_from_slice(&row);
        }
        live
    }

    /// [`last_reads`] with each glue bit's last read pushed to its sources
    /// one by one.
    fn per_bit_last_reads(spec: &Spec, schedule: &Schedule) -> BitTable<u32> {
        let mut need = BitTable::filled(spec, 0u32);
        for op in spec.ops().iter().rev() {
            let k = schedule.cycle_of(op.id()).unwrap_or(1);
            if is_base_producer(op.kind()) {
                for operand in op.operands() {
                    if let Operand::Value { value, range } = operand {
                        let r = range.unwrap_or(BitRange::new(0, spec.value(*value).width()));
                        for slot in &mut need[*value][r.lo() as usize..r.end() as usize] {
                            *slot = (*slot).max(k);
                        }
                    }
                }
                continue;
            }
            let z = op.result();
            glue_wires(spec, op, |wire| {
                wire.for_each_bit(|i, bit| {
                    let last = need[z][i as usize];
                    let n = if is_wiring(op.kind()) { last } else { last.min(k) };
                    let slot = &mut need[wire.value()][bit as usize];
                    *slot = (*slot).max(n);
                });
            });
        }
        need
    }

    #[test]
    fn live_and_need_rows_equal_the_per_bit_passes() {
        let corpus = scheduled_glue_corpus();
        assert!(corpus.len() > 300, "{} specs", corpus.len());
        for (spec, schedule) in &corpus {
            assert_eq!(live_bits(spec), per_bit_live(spec), "`{}`", spec.name());
            let need = last_reads(spec, schedule);
            assert_eq!(need, per_bit_last_reads(spec, schedule), "`{}`", spec.name());
        }
    }

    /// The schedule running `spec`'s ops, in order, in `cycles`.
    fn schedule_at(spec: &Spec, latency: u32, cycle: u32, cycles: &[u32]) -> Schedule {
        let assignment = spec.ops().iter().zip(cycles).map(|(op, &k)| (op.id(), k));
        Schedule::new(latency, cycle, assignment)
    }

    fn three_adds() -> Spec {
        Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap()
    }

    #[test]
    fn conventional_shares_one_register() {
        let spec = three_adds();
        let sched = schedule_conventional(&spec, &ConventionalOptions::with_latency(3)).unwrap();
        let regs = allocate_registers(&spec, &sched);
        // C lives [1,2), E lives [2,3): one shared 16-bit register.
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].width, 16);
        assert_eq!(regs[0].groups.len(), 2);
        let muxes = register_muxes(&regs);
        assert_eq!(muxes, vec![Component::Mux { inputs: 2, width: 16 }]);
    }

    #[test]
    fn chained_schedule_stores_nothing() {
        let spec = three_adds();
        let sched = schedule_conventional(&spec, &ConventionalOptions::with_latency(1)).unwrap();
        assert!(allocate_registers(&spec, &sched).is_empty());
    }

    #[test]
    fn same_cycle_use_is_not_stored() {
        let spec = Spec::parse(
            "spec s { input a: u8; input b: u8;
              x: u8 = a + b;
              y: u8 = x + b;
              output y; }",
        )
        .unwrap();
        // λ=1: x chains into y combinationally.
        let sched = schedule_conventional(&spec, &ConventionalOptions::with_latency(1)).unwrap();
        assert!(allocate_registers(&spec, &sched).is_empty());
    }

    #[test]
    fn glue_is_traced_to_producer() {
        let spec = Spec::parse(
            "spec s { input a: u8; input b: u8;
              x: u8 = a + b;
              n: u8 = ~x;
              y: u8 = n + b;
              output y; }",
        )
        .unwrap();
        let sched = schedule_at(&spec, 2, 9, &[1, 2, 2]);
        let regs = allocate_registers(&spec, &sched);
        // Inverters are wiring-class glue: the stored value is x (the
        // adder result), traced through the inverter.
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].width, 8);
        assert_eq!(regs[0].groups[0].value, spec.ops()[0].result());
    }

    #[test]
    fn gate_glue_read_in_a_later_cycle_is_registered() {
        // Register-after-the-array: `g` is gate glue computed in cycle 1.
        // The add in cycle 3 reads it across two cycle edges, so `g`
        // itself is stored; its producer `x` is only needed in cycle 1.
        let spec = Spec::parse(
            "spec s { input a: u8; input b: u8; input c: u8;
              x: u8 = a + b;
              g: u8 = x & b;
              y: u8 = g + c;
              z: u8 = g + a;
              output y; output z; }",
        )
        .unwrap();
        let ops = spec.ops();
        let sched = schedule_at(&spec, 3, 16, &[1, 1, 1, 3]);
        let regs = allocate_registers(&spec, &sched);
        let g = ops[1].result();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(
            regs[0].groups,
            vec![BitGroup { value: g, range: BitRange::new(0, 8), def: 1, last_use: 3 }]
        );
        let x = ops[0].result();
        assert!(regs.iter().flat_map(|r| &r.groups).all(|grp| grp.value != x), "x is stored");
    }

    #[test]
    fn partial_bit_storage() {
        // Only the high nibble of x crosses the cycle boundary.
        let spec = Spec::parse(
            "spec s { input a: u8; input b: u8; input c1: u4;
              x: u8 = a + b;
              lo: u8 = x + b;
              hi: u4 = x[7:4] + c1;
              output lo; output hi; }",
        )
        .unwrap();
        // lo chains with x in cycle 1; hi reads x[7:4] in cycle 2.
        let sched = schedule_at(&spec, 2, 10, &[1, 1, 2]);
        let regs = allocate_registers(&spec, &sched);
        let x = spec.ops()[0].result();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].width, 4);
        assert_eq!(
            regs[0].groups,
            vec![BitGroup { value: x, range: BitRange::new(4, 4), def: 1, last_use: 2 }]
        );
    }

    #[test]
    fn output_ports_are_not_stored() {
        let spec =
            Spec::parse("spec s { input a: u8; input b: u8; x: u8 = a + b; output x; }").unwrap();
        let sched = schedule_at(&spec, 3, 8, &[1]);
        assert!(allocate_registers(&spec, &sched).is_empty());
    }
}
