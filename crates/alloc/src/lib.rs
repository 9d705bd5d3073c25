//! # bittrans-alloc
//!
//! Allocation and binding: turns a scheduled specification into a datapath
//! of RTL components and prices it with the calibrated models of
//! `bittrans-rtl`.
//!
//! Four sub-problems, solved in the classic order:
//!
//! 1. **Functional units** ([`fu`]) — operations of compatible classes
//!    scheduled in different cycles share one unit (greedy left-edge style
//!    binding). Fragments of one source operation prefer the same dedicated
//!    adder, reproducing the paper's "every adder is dedicated to calculate
//!    just one addition" shape.
//! 2. **Registers** ([`regs`]) — *bit-level* lifetime analysis: only bits
//!    consumed in a later cycle than they are produced need storage — the
//!    key to the paper's storage savings ("most result bits calculated in
//!    every cycle are also consumed in that same cycle"). Bit groups with
//!    disjoint lifetimes share physical registers (left-edge).
//! 3. **Interconnect** — a mux in front of every functional-unit port and
//!    register with more than one source.
//! 4. **Controller** — an FSM with one state per cycle driving the mux
//!    selects and register enables.
//!
//! I/O-port holding registers are excluded, as in the paper ("they
//! coincide in both implementations").
//!
//! [`bind`] solves all four. None of them reads the adder architecture:
//! only the FU area does, so [`Binding::price`] prices one binding for
//! any number of architectures, and [`allocate`] is the two in a row.
//!
//! ```
//! use bittrans_ir::prelude::*;
//! use bittrans_sched::conventional::{schedule_conventional, ConventionalOptions};
//! use bittrans_alloc::{allocate, AllocOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = Spec::parse(
//!     "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
//!       C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
//! )?;
//! let sched = schedule_conventional(&spec, &ConventionalOptions::with_latency(3))?;
//! let dp = allocate(&spec, &sched, &AllocOptions::default());
//! // Paper Table I, first column: one shared 16-bit adder (162 gates).
//! assert_eq!(dp.binding.fus.len(), 1);
//! assert_eq!(dp.area.fu.round(), 162.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod fu;
pub mod regs;

use bittrans_ir::prelude::*;
use bittrans_rtl::{AdderArch, AreaReport, Component, GateKind};
use bittrans_sched::Schedule;
use bittrans_timing::BitTable;

/// Options for [`allocate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct AllocOptions {
    /// Adder micro-architecture for the functional units.
    pub adder_arch: AdderArch,
}

/// The adder-invariant half of allocation: everything [`bind`] decides
/// from a spec and its schedule. Only the FU area reads the adder
/// architecture, so one binding serves every [`Binding::price`].
#[derive(Clone, Debug)]
pub struct Binding {
    /// Functional units with their bound operations.
    pub fus: Vec<fu::Fu>,
    /// Physical registers.
    pub registers: Vec<regs::RegisterInstance>,
    /// Multiplexers in front of FU ports and register inputs.
    pub muxes: Vec<Component>,
    /// Dedicated glue logic (inverters, partial-product muxes, …).
    pub glue: Vec<Component>,
    /// The FSM controller.
    pub controller: Component,
    /// Total stored bits (register bits before grouping overhead).
    pub stored_bits: u32,
}

/// The allocated datapath: a [`Binding`] priced with one adder
/// architecture.
#[derive(Clone, Debug)]
pub struct Datapath {
    /// Units, registers, muxes, glue and controller as [`bind`] decided
    /// them.
    pub binding: Binding,
    /// Adder micro-architecture the units were priced with.
    pub adder_arch: AdderArch,
    /// Priced area, Table-I style.
    pub area: AreaReport,
}

impl Datapath {
    /// Builds the structural netlist view of this datapath (named
    /// instances per cost category, bill of materials, VHDL skeleton).
    pub fn netlist(&self, name: &str) -> bittrans_rtl::Netlist {
        use bittrans_rtl::Category;
        let binding = &self.binding;
        let mut n = bittrans_rtl::Netlist::new(name);
        for f in &binding.fus {
            n.push(Category::Fu, f.component(self.adder_arch));
        }
        for r in &binding.registers {
            n.push(Category::Register, r.component());
        }
        for &m in &binding.muxes {
            n.push(Category::Routing, m);
        }
        for &g in &binding.glue {
            n.push(Category::Routing, g);
        }
        n.push(Category::Controller, binding.controller);
        n
    }
}

/// Allocates and prices a datapath for `spec` under `schedule`:
/// [`bind`], then [`Binding::price`].
///
/// Works for both conventional schedules of raw specifications and fragment
/// schedules of fragmented specifications — the schedule's cycle assignment
/// is all it needs.
pub fn allocate(spec: &Spec, schedule: &Schedule, options: &AllocOptions) -> Datapath {
    bind(spec, schedule).price(options.adder_arch)
}

/// Binds `spec` under `schedule` to units, registers, muxes, glue and a
/// controller: every allocation decision, none of which reads the adder
/// architecture.
pub fn bind(spec: &Spec, schedule: &Schedule) -> Binding {
    let fus = fu::bind_fus(spec, schedule);
    let registers = regs::allocate_registers(spec, schedule);
    let mut muxes = fu::port_muxes(spec, &fus);
    muxes.extend(regs::register_muxes(&registers));
    let glue = glue_units(spec, schedule);

    let mux_sel_bits: u32 = muxes
        .iter()
        .map(|m| match m {
            Component::Mux { inputs, .. } => 32 - u32::leading_zeros(inputs.saturating_sub(1)),
            _ => 0,
        })
        .sum();
    let signals = mux_sel_bits + registers.len() as u32;
    let controller = Component::Controller { states: schedule.latency, signals };
    let stored_bits = registers.iter().map(|r| r.width).sum();
    Binding { fus, registers, muxes, glue, controller, stored_bits }
}

impl Binding {
    /// Prices this binding with `adder_arch` adders, Table-I style.
    pub fn price(&self, adder_arch: AdderArch) -> Datapath {
        let fu_area: f64 = self.fus.iter().map(|f| f.component(adder_arch).area_gates()).sum();
        let reg_area: f64 = self.registers.iter().map(|r| r.component().area_gates()).sum();
        let mux_area: f64 = self.muxes.iter().map(Component::area_gates).sum();
        let glue_area: f64 = self.glue.iter().map(Component::area_gates).sum();
        let area = AreaReport {
            fu: fu_area,
            registers: reg_area,
            routing: mux_area + glue_area,
            controller: self.controller.area_gates(),
        };
        Datapath { binding: self.clone(), adder_arch, area }
    }
}

/// Combinational glue of the spec (kernel-extraction inverters,
/// partial-product muxes and carry-save compressors, comparison XORs, …)
/// priced at **live width** (structurally-zero padding bits cost nothing)
/// and grouped into **per-origin blocks** that share hardware across
/// cycles: the glue block of one source multiplication (its whole
/// carry-save array) is reused by another multiplication whose kernel runs
/// in disjoint cycles, just like functional units are. Wiring kinds
/// (concat, shifts by constants, slices) are free.
fn glue_units(spec: &Spec, schedule: &bittrans_sched::Schedule) -> Vec<Component> {
    use std::collections::{BTreeMap, HashMap};
    let live = regs::live_bits(spec);
    struct Block {
        components: Vec<Component>,
        cycles: CycleSet,
    }
    // Keyed by origin, which names an op of the source spec rather than
    // of `spec`, so it cannot index a table sized by `spec`.
    let mut blocks: BTreeMap<OpId, Block> = BTreeMap::new();
    for op in spec.ops() {
        if !op.kind().is_glue() && !matches!(op.kind(), OpKind::Eq | OpKind::Ne) {
            continue;
        }
        let origin = op.origin().unwrap_or(op.id());
        let comps = glue_components_of(spec, op, &live);
        if comps.is_empty() {
            continue;
        }
        let block = blocks
            .entry(origin)
            .or_insert_with(|| Block { components: Vec::new(), cycles: CycleSet::new(schedule) });
        block.components.extend(comps);
        // The block is busy in the cycles its glue actually computes —
        // results crossing a cycle boundary are registered (see `regs`),
        // so later consumers do not keep the logic occupied.
        if let Some(k) = schedule.cycle_of(op.id()) {
            block.cycles.insert(k);
        }
    }
    // Greedy sharing: blocks with the same component multiset share one
    // physical unit when their busy-cycle sets are disjoint.
    type GlueSlot = (CycleSet, Vec<Component>);
    let mut units: HashMap<Vec<Component>, Vec<GlueSlot>> = HashMap::new();
    for block in blocks.into_values() {
        let mut multiset = block.components.clone();
        multiset.sort_unstable();
        let slots = units.entry(multiset).or_default();
        match slots.iter_mut().find(|(busy, _)| busy.is_disjoint(&block.cycles)) {
            Some((busy, _)) => busy.extend(&block.cycles),
            None => slots.push((block.cycles, block.components)),
        }
    }
    // Units come out in the order of each group's signature text: its
    // components' display forms, sorted and joined.
    let mut signed: Vec<(String, Vec<GlueSlot>)> = units
        .into_iter()
        .map(|(multiset, slots)| {
            let mut parts: Vec<String> = multiset.iter().map(|c| format!("{c}")).collect();
            parts.sort();
            (parts.join("|"), slots)
        })
        .collect();
    signed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    signed.into_iter().flat_map(|(_, slots)| slots).flat_map(|(_, comps)| comps).collect()
}

/// A set of a schedule's cycles as a bitset: bit `k` of the words is
/// cycle `k`, with one word per 64 cycles of the latency.
#[derive(Clone, Debug)]
struct CycleSet(Vec<u64>);

impl CycleSet {
    /// The empty set over the cycles of `schedule`.
    fn new(schedule: &Schedule) -> Self {
        CycleSet(vec![0; schedule.latency as usize / 64 + 1])
    }

    fn insert(&mut self, k: u32) {
        self.0[k as usize / 64] |= 1 << (k % 64);
    }

    /// Whether no cycle is in both sets: a word-wise AND.
    fn is_disjoint(&self, other: &CycleSet) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a & b == 0)
    }

    fn extend(&mut self, other: &CycleSet) {
        self.0.iter_mut().zip(&other.0).for_each(|(a, b)| *a |= b);
    }
}

/// Which bits of `operand`, unextended, carry live data (see
/// [`regs::live_bits`]): its slice of its value's row, empty for a
/// constant.
fn live_row<'a>(spec: &Spec, live: &'a BitTable<bool>, operand: &Operand) -> &'a [bool] {
    match operand {
        Operand::Const(_) => &[],
        Operand::Value { value, range } => {
            let (lo, w) = match range {
                Some(r) => (r.lo(), r.width()),
                None => (0, spec.value(*value).width()),
            };
            &live[*value][lo as usize..][..w as usize]
        }
    }
}

/// Counts the live bits in `row`.
fn count_live(row: &[bool]) -> u32 {
    row.iter().filter(|&&b| b).count() as u32
}

/// The number of output bits of a glue op that actually depend on live
/// data (everything else is structural zero padding and costs no gates).
fn live_width(op: &Operation, live: &BitTable<bool>) -> u32 {
    count_live(&live[op.result()])
}

/// Positions where *both* operands of a two-input gate carry live data.
fn live_pair_width(spec: &Spec, op: &Operation, live: &BitTable<bool>) -> u32 {
    let [a, b] = [&op.operands()[0], &op.operands()[1]].map(|o| live_row(spec, live, o));
    a.iter().zip(b).take(op.width() as usize).filter(|&(&x, &y)| x && y).count() as u32
}

/// Live input bits of an operation (for reduction-style glue).
fn live_input_bits(spec: &Spec, op: &Operation, live: &BitTable<bool>) -> u32 {
    op.operands().iter().map(|o| count_live(live_row(spec, live, o))).sum()
}

/// The priced glue components one operation contributes: none for wiring,
/// and none of zero width (no live bits).
fn glue_components_of(spec: &Spec, op: &Operation, live: &BitTable<bool>) -> Vec<Component> {
    let gate = |kind, width| Component::Gate { kind, width };
    let components = match op.kind() {
        OpKind::Not => vec![gate(GateKind::Not, live_width(op, live))],
        OpKind::Mux => vec![Component::Mux { inputs: 2, width: live_width(op, live) }],
        // A two-input gate position only costs gates when *both* inputs
        // carry live data; with one constant input it folds to a wire or
        // inverter-level cost we ignore.
        OpKind::And | OpKind::Or => vec![gate(GateKind::AndOr, live_pair_width(spec, op, live))],
        OpKind::Xor => vec![gate(GateKind::Xor, live_pair_width(spec, op, live))],
        OpKind::RedOr | OpKind::RedAnd => {
            vec![gate(GateKind::AndOr, live_input_bits(spec, op, live).saturating_sub(1))]
        }
        OpKind::Eq | OpKind::Ne => {
            let pairs = live_input_bits(spec, op, live) / 2;
            vec![gate(GateKind::Xor, pairs), gate(GateKind::AndOr, pairs.saturating_sub(1))]
        }
        _ => Vec::new(),
    };
    components
        .into_iter()
        .filter(|c| {
            !matches!(c, Component::Gate { width: 0, .. } | Component::Mux { width: 0, .. })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bittrans_frag::{fragment, FragmentOptions};

    /// Whether bit `i` of `operand`, unextended, carries live data: the
    /// per-bit statement of [`live_row`].
    fn live_at(spec: &Spec, live: &BitTable<bool>, operand: &Operand, i: u32) -> bool {
        match operand {
            Operand::Const(_) => false,
            Operand::Value { value, range } => {
                let r = range.unwrap_or(BitRange::new(0, spec.value(*value).width()));
                i < r.width() && live[*value][(r.lo() + i) as usize]
            }
        }
    }

    #[test]
    fn glue_widths_count_the_live_bits_one_by_one() {
        for (spec, _) in regs::scheduled_glue_corpus() {
            let live = regs::live_bits(&spec);
            let at = |o: &Operand, i| live_at(&spec, &live, o, i);
            for op in spec.ops().iter().filter(|op| bittrans_timing::is_zero_delay(op.kind())) {
                let result = Operand::value(op.result());
                let width = (0..op.width()).filter(|&i| at(&result, i)).count() as u32;
                assert_eq!(live_width(op, &live), width, "{}", op.label());
                if let [a, b, ..] = op.operands() {
                    let pairs = (0..op.width()).filter(|&i| at(a, i) && at(b, i)).count() as u32;
                    assert_eq!(live_pair_width(&spec, op, &live), pairs, "{}", op.label());
                }
                let inputs: u32 = op
                    .operands()
                    .iter()
                    .map(|o| (0..spec.operand_width(o)).filter(|&j| at(o, j)).count() as u32)
                    .sum();
                assert_eq!(live_input_bits(&spec, op, &live), inputs, "{}", op.label());
            }
        }
    }
    use bittrans_sched::conventional::{schedule_conventional, ConventionalOptions};
    use bittrans_sched::fragment::{schedule_fragments, FragmentScheduleOptions};

    fn three_adds() -> Spec {
        Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap()
    }

    /// Paper Table I, column 1 (conventional schedule, Fig. 1 b):
    /// 1 × 16-bit adder (162), 1 × 16-bit register (81),
    /// 2 × 3:1 + 1 × 2:1 16-bit muxes (176), controller ≈ 60.
    #[test]
    fn table1_conventional_column() {
        let spec = three_adds();
        let sched = schedule_conventional(&spec, &ConventionalOptions::with_latency(3)).unwrap();
        let dp = allocate(&spec, &sched, &AllocOptions::default());
        assert_eq!(dp.binding.fus.len(), 1, "one shared adder");
        assert_eq!(dp.area.fu.round(), 162.0);
        assert_eq!(dp.binding.registers.len(), 1, "C and E share one register");
        assert_eq!(dp.binding.registers[0].width, 16);
        assert!((dp.area.registers - 81.0).abs() < 1.0);
        assert_eq!(dp.area.routing.round(), 176.0, "muxes: {:?}", dp.binding.muxes);
        assert!((dp.area.controller - 60.0).abs() < 3.0);
        let total = dp.area.total();
        assert!((total - 479.0).abs() / 479.0 < 0.02, "total {total} vs paper 479");
    }

    /// Paper Table I, column 2 (chained BLC schedule, Fig. 1 d):
    /// 3 × 16-bit adders (486), no registers, no muxes, controller ≈ 32.
    #[test]
    fn table1_chained_column() {
        let spec = three_adds();
        let sched = schedule_conventional(&spec, &ConventionalOptions::blc(1)).unwrap();
        let dp = allocate(&spec, &sched, &AllocOptions::default());
        assert_eq!(dp.binding.fus.len(), 3);
        assert_eq!(dp.area.fu.round(), 486.0);
        assert!(dp.binding.registers.is_empty(), "everything chains in one cycle");
        assert!(dp.binding.muxes.is_empty(), "single source per port");
        let total = dp.area.total();
        assert!((total - 518.0).abs() / 518.0 < 0.02, "total {total} vs paper 518");
    }

    /// Paper Table I, column 3 (optimized specification, Fig. 2):
    /// 3 × 6-bit adders (~176), ~5 stored bits (~55), 6 × 3:1 6-bit plus
    /// small 2:1 muxes (~159), controller ≈ 62; total ≈ 452.
    #[test]
    fn table1_optimized_column() {
        let spec = three_adds();
        let f = fragment(&spec, &FragmentOptions::with_latency(3)).unwrap();
        let sched = schedule_fragments(&f, &FragmentScheduleOptions::default()).unwrap();
        let dp = allocate(&f.spec, &sched, &AllocOptions::default());
        assert_eq!(dp.binding.fus.len(), 3, "one dedicated adder per source addition");
        for fu_ in &dp.binding.fus {
            assert!(fu_.width <= 6, "fragment adders are 6-bit: {}", fu_.width);
        }
        assert!((dp.area.fu - 176.0).abs() / 176.0 < 0.05, "FU area {} vs paper 176", dp.area.fu);
        assert!(
            dp.binding.stored_bits <= 8,
            "only boundary bits are stored, got {}",
            dp.binding.stored_bits
        );
        assert!(
            (dp.area.registers - 55.0).abs() / 55.0 < 0.35,
            "register area {} vs paper 55",
            dp.area.registers
        );
        let total = dp.area.total();
        assert!((total - 452.0).abs() / 452.0 < 0.10, "total {total} vs paper 452");
    }

    /// The headline claim of Table I: the optimized implementation is both
    /// much faster than the conventional one and *smaller* than either
    /// alternative.
    #[test]
    fn table1_ordering_holds() {
        let spec = three_adds();
        let conv = {
            let s = schedule_conventional(&spec, &ConventionalOptions::with_latency(3)).unwrap();
            (s.cycle, allocate(&spec, &s, &AllocOptions::default()).area.total())
        };
        let chained = {
            let s = schedule_conventional(&spec, &ConventionalOptions::blc(1)).unwrap();
            (s.cycle, allocate(&spec, &s, &AllocOptions::default()).area.total())
        };
        let opt = {
            let f = fragment(&spec, &FragmentOptions::with_latency(3)).unwrap();
            let s = schedule_fragments(&f, &FragmentScheduleOptions::default()).unwrap();
            (s.cycle, allocate(&f.spec, &s, &AllocOptions::default()).area.total())
        };
        assert!(opt.0 < conv.0, "optimized cycle beats conventional");
        assert!(opt.1 < conv.1, "optimized area beats conventional");
        assert!(opt.1 < chained.1, "optimized area beats chained");
        // 3 cycles × 6δ ≈ 18δ total vs 1 × 18δ: compare execution shapes.
        assert_eq!(opt.0, 6);
        assert_eq!(chained.0, 18);
    }

    #[test]
    fn glue_is_priced() {
        let spec = Spec::parse(
            "spec s { input a: u8; input b: u8; input se: u1;
              n: u8 = ~a;
              x: u8 = n & b;
              m: u8 = mux(se, a, b);
              r: u1 = redor(x);
              q: u1 = a == b;
              o: u8 = a + m;
              output o; output r; output q; }",
        )
        .unwrap();
        let sched = schedule_conventional(&spec, &ConventionalOptions::with_latency(1)).unwrap();
        let dp = allocate(&spec, &sched, &AllocOptions::default());
        assert!(dp.binding.glue.len() >= 5, "{:?}", dp.binding.glue);
        assert!(dp.area.routing > 0.0);
    }

    #[test]
    fn netlist_matches_datapath() {
        let spec = three_adds();
        let sched = schedule_conventional(&spec, &ConventionalOptions::with_latency(3)).unwrap();
        let dp = allocate(&spec, &sched, &AllocOptions::default());
        let netlist = dp.netlist("three_adds");
        assert_eq!(netlist.count(bittrans_rtl::Category::Fu), dp.binding.fus.len());
        assert!((netlist.area().total() - dp.area.total()).abs() < 1e-6);
        assert!(netlist.to_vhdl().contains("entity three_adds_datapath"));
        assert!(netlist.bill_of_materials().contains("fu_0"));
    }

    #[test]
    fn one_binding_prices_every_adder_and_only_its_fu_area_moves() {
        let spec = three_adds();
        let sched = schedule_conventional(&spec, &ConventionalOptions::with_latency(3)).unwrap();
        let binding = bind(&spec, &sched);
        let rca = binding.price(AdderArch::RippleCarry);
        for arch in [AdderArch::RippleCarry, AdderArch::CarryLookahead, AdderArch::CarrySelect] {
            let priced = binding.price(arch);
            let fresh = allocate(&spec, &sched, &AllocOptions { adder_arch: arch });
            assert_eq!(format!("{priced:?}"), format!("{fresh:?}"), "{arch:?}");
            let rest = |a: &AreaReport| [a.registers, a.routing, a.controller].map(f64::to_bits);
            assert_eq!(rest(&priced.area), rest(&rca.area), "{arch:?}");
            assert_eq!(format!("{:?}", priced.binding), format!("{binding:?}"));
        }
    }

    #[test]
    fn cycle_sets_span_several_words() {
        let schedule = Schedule::new(130, 1, []);
        let (mut a, mut b) = (CycleSet::new(&schedule), CycleSet::new(&schedule));
        a.insert(63);
        a.insert(130);
        b.insert(64);
        assert!(a.is_disjoint(&b));
        b.insert(130);
        assert!(!a.is_disjoint(&b));
        let mut c = CycleSet::new(&schedule);
        c.insert(64);
        assert!(a.is_disjoint(&c));
        a.extend(&b);
        assert!(!a.is_disjoint(&c));
    }

    #[test]
    fn glue_of_any_origin_binds() {
        // An origin names an op of the source spec, and a decoded spec may
        // carry any origin id; binding must not size anything by it.
        let spec = Spec::parse("spec s { input a: u8; x: u8 = ~a; output x; }").unwrap();
        let text = spec.to_canonical().replace(" nx - 1 v0", " nx o4294967295 1 v0");
        let decoded = Spec::from_canonical(&text).unwrap();
        assert_eq!(decoded.ops()[0].origin(), Some(OpId::from_index(u32::MAX as usize)));
        let sched = Schedule::new(1, 1, decoded.ops().iter().map(|op| (op.id(), 1)));
        let binding = bind(&decoded, &sched);
        assert_eq!(binding.glue.len(), 1);
        assert_eq!(format!("{binding:?}"), format!("{:?}", bind(&spec, &sched)));
    }

    #[test]
    fn faster_adder_architecture_costs_area() {
        let spec = three_adds();
        let sched = schedule_conventional(&spec, &ConventionalOptions::with_latency(3)).unwrap();
        let rc = allocate(&spec, &sched, &AllocOptions { adder_arch: AdderArch::RippleCarry });
        let cla = allocate(&spec, &sched, &AllocOptions { adder_arch: AdderArch::CarryLookahead });
        assert!(cla.area.fu > rc.area.fu);
    }
}
