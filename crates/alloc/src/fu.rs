//! Functional-unit allocation, binding, and port-mux inference.

use bittrans_ir::prelude::*;
use bittrans_rtl::{AdderArch, Component};
use bittrans_sched::Schedule;
use std::collections::HashSet;

/// The hardware class an operation executes on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FuClass {
    /// Adder-based units: additions, subtractions, comparisons, max/min.
    Adder,
    /// Array multipliers (conventional baseline only).
    Multiplier,
}

/// Classifies an operation; `None` for glue (no functional unit).
pub fn class_of(kind: OpKind) -> Option<FuClass> {
    match kind {
        OpKind::Add
        | OpKind::Sub
        | OpKind::Neg
        | OpKind::Abs
        | OpKind::Lt
        | OpKind::Le
        | OpKind::Gt
        | OpKind::Ge
        | OpKind::Max
        | OpKind::Min => Some(FuClass::Adder),
        OpKind::Mul => Some(FuClass::Multiplier),
        _ => None,
    }
}

/// One allocated functional unit and the operations bound to it.
#[derive(Clone, Debug)]
pub struct Fu {
    /// Hardware class.
    pub class: FuClass,
    /// Operand width in bits (for multipliers: the wider operand; the
    /// narrower is [`Fu::width_b`]).
    pub width: u32,
    /// Second operand width (multipliers only; adders repeat `width`).
    pub width_b: u32,
    /// Bound operations with their cycles.
    pub bound: Vec<(OpId, u32)>,
    /// Source (origin) operations represented here, for the dedicated-adder
    /// preference; at most one per bound operation.
    origins: Vec<OpId>,
}

impl Fu {
    /// The RTL component realising this unit.
    pub fn component(&self, arch: AdderArch) -> Component {
        match self.class {
            FuClass::Adder => Component::Adder { arch, width: self.width },
            FuClass::Multiplier => {
                Component::Multiplier { a_width: self.width, b_width: self.width_b }
            }
        }
    }

    fn busy_in(&self, cycle: u32) -> bool {
        self.bound.iter().any(|&(_, k)| k == cycle)
    }

    fn bind(&mut self, op: OpId, cycle: u32, origin: OpId) {
        self.bound.push((op, cycle));
        if !self.origins.contains(&origin) {
            self.origins.push(origin);
        }
    }
}

/// The operand width an operation needs from its unit (the adder width is
/// the widest *addend*, not the result width — a 6-bit adder produces a
/// 7-bit result including its carry-out).
fn op_operand_width(spec: &Spec, op: &Operation) -> u32 {
    op.operands()
        .iter()
        .take(2) // the carry-in port is not an addend
        .map(|o| spec.operand_width(o))
        .max()
        .unwrap_or(op.width())
}

/// Binds every non-glue operation to a functional unit.
///
/// Greedy in cycle order. Preference order for an operation:
/// 1. a unit already executing another fragment of the same source
///    operation (the paper's dedicated adders);
/// 2. the free unit whose width grows the least;
/// 3. a new unit.
pub fn bind_fus(spec: &Spec, schedule: &Schedule) -> Vec<Fu> {
    let mut ops: Vec<&Operation> =
        spec.ops().iter().filter(|op| class_of(op.kind()).is_some()).collect();
    ops.sort_by_key(|op| {
        (
            schedule.cycle_of(op.id()).unwrap_or(u32::MAX),
            std::cmp::Reverse(op_operand_width(spec, op)),
            op.id(),
        )
    });
    let mut fus: Vec<Fu> = Vec::new();
    for op in ops {
        let class = class_of(op.kind()).expect("filtered to classed ops");
        let cycle = schedule.cycle_of(op.id()).unwrap_or(1);
        let w = op_operand_width(spec, op);
        let wb = op.operands().iter().take(2).map(|o| spec.operand_width(o)).min().unwrap_or(w);
        let origin = op.origin().unwrap_or(op.id());
        let candidate = fus
            .iter_mut()
            .enumerate()
            .filter(|(_, f)| f.class == class && !f.busy_in(cycle))
            .min_by_key(|(i, f)| {
                let growth = w.saturating_sub(f.width);
                let dedicated = !f.origins.contains(&origin);
                (growth, dedicated, f.width, *i)
            });
        let f = match candidate {
            Some((_, f)) => {
                f.width = f.width.max(w);
                f.width_b = f.width_b.max(wb);
                f
            }
            None => {
                let (bound, origins) = (Vec::new(), Vec::new());
                fus.push(Fu { class, width: w, width_b: wb, bound, origins });
                fus.last_mut().expect("just pushed")
            }
        };
        f.bind(op.id(), cycle, origin);
    }
    fus
}

/// Infers the multiplexers in front of every functional-unit input port:
/// one `n:1` mux per port with `n ≥ 2` distinct sources. Ports do not
/// depend on the adder architecture, so neither do their muxes.
pub fn port_muxes(spec: &Spec, fus: &[Fu]) -> Vec<Component> {
    let mut out = Vec::new();
    for f in fus {
        // Ports 0 and 1 are addend ports at the unit width; port 2 (carry
        // in) is one bit.
        for port in 0..3 {
            let sources: HashSet<&Operand> =
                f.bound.iter().filter_map(|&(op, _)| spec.op(op).operands().get(port)).collect();
            if sources.len() >= 2 {
                let width = if port == 2 { 1 } else { f.width };
                out.push(Component::Mux { inputs: sources.len() as u32, width });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bittrans_sched::conventional::{schedule_conventional, ConventionalOptions};

    #[test]
    fn classes() {
        assert_eq!(class_of(OpKind::Add), Some(FuClass::Adder));
        assert_eq!(class_of(OpKind::Lt), Some(FuClass::Adder));
        assert_eq!(class_of(OpKind::Mul), Some(FuClass::Multiplier));
        assert_eq!(class_of(OpKind::Not), None);
        assert_eq!(class_of(OpKind::Concat), None);
    }

    #[test]
    fn sharing_across_cycles() {
        let spec = Spec::parse(
            "spec s { input a: u8; input b: u8;
              x: u8 = a + b;
              y: u8 = x + b;
              output y; }",
        )
        .unwrap();
        let sched = schedule_conventional(&spec, &ConventionalOptions::with_latency(2)).unwrap();
        let fus = bind_fus(&spec, &sched);
        assert_eq!(fus.len(), 1);
        assert_eq!(fus[0].bound.len(), 2);
        assert_eq!(fus[0].width, 8);
    }

    #[test]
    fn no_sharing_within_a_cycle() {
        let spec = Spec::parse(
            "spec s { input a: u8; input b: u8;
              x: u8 = a + b;
              y: u8 = a + b;
              output x; output y; }",
        )
        .unwrap();
        let assignment = spec.ops().iter().map(|op| (op.id(), 1));
        let sched = Schedule::new(1, 8, assignment);
        let fus = bind_fus(&spec, &sched);
        assert_eq!(fus.len(), 2);
    }

    #[test]
    fn multipliers_get_their_own_units() {
        let spec = Spec::parse(
            "spec s { input a: u8; input b: u8;
              p: u16 = a * b;
              q: u16 = p + b;
              output q; }",
        )
        .unwrap();
        let sched = schedule_conventional(&spec, &ConventionalOptions::with_latency(2)).unwrap();
        let fus = bind_fus(&spec, &sched);
        let classes: Vec<FuClass> = fus.iter().map(|f| f.class).collect();
        assert!(classes.contains(&FuClass::Multiplier));
        assert!(classes.contains(&FuClass::Adder));
    }

    #[test]
    fn mux_inference_counts_distinct_sources() {
        let spec = Spec::parse(
            "spec s { input a: u8; input b: u8; input c1: u8;
              x: u8 = a + b;
              y: u8 = x + c1;
              z: u8 = y + a;
              output z; }",
        )
        .unwrap();
        let sched = schedule_conventional(&spec, &ConventionalOptions::with_latency(3)).unwrap();
        let fus = bind_fus(&spec, &sched);
        assert_eq!(fus.len(), 1);
        let muxes = port_muxes(&spec, &fus);
        // port a: {a, x, y} → 3:1; port b: {b, c1, a} → 3:1.
        assert_eq!(muxes.len(), 2);
        for m in &muxes {
            assert_eq!(*m, Component::Mux { inputs: 3, width: 8 });
        }
    }

    #[test]
    fn adder_width_is_operand_width_not_result() {
        let spec =
            Spec::parse("spec s { input a: u6; input b: u6; x: u7 = a + b; output x; }").unwrap();
        let sched = schedule_conventional(&spec, &ConventionalOptions::with_latency(1)).unwrap();
        let fus = bind_fus(&spec, &sched);
        assert_eq!(fus[0].width, 6, "carry-out does not widen the adder");
    }
}
