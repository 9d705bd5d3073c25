//! Scheduling of fragmented specifications (the paper's Fig. 3 g).
//!
//! Fragments arrive with a mobility window `[ASAP, ALAP]` computed by
//! `bittrans-frag`. This scheduler places every fragment inside its window
//! with a list scheduler that balances additions per cycle ("In order to
//! balance the number of operations executed per cycle, operation A is
//! calculated in cycles 1 and 3" — §3.3) while verifying, bit-exactly, that
//! every placement fits its cycle: carry chains, operand slices produced in
//! the same cycle, and registered values are all honoured by the placer
//! both schedulers share, under bit-level chaining.

use crate::engine::{Chain, Placer};
use crate::{SchedError, Schedule};
use bittrans_frag::Fragmented;
use bittrans_ir::prelude::*;

/// Options for [`schedule_fragments`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FragmentScheduleOptions {
    /// Balance the number of fragment additions per cycle.
    pub balance: bool,
}

impl Default for FragmentScheduleOptions {
    fn default() -> Self {
        FragmentScheduleOptions { balance: true }
    }
}

/// Schedules the fragments of `f` into its λ cycles.
///
/// Every fragment is placed within `[ASAP, ALAP]`; when balancing, the
/// least-loaded feasible cycle wins (ties to the earliest). If the balanced
/// pass fails — possible when earlier balance choices consume the slack a
/// later fragment needed — a pure-ASAP pass is retried.
///
/// # Errors
///
/// [`SchedError::NoFeasibleCycle`] if some fragment fits no cycle of its
/// window even in the ASAP pass (cannot happen for plans produced by
/// `bittrans_frag::fragment`, whose windows are consistent).
pub fn schedule_fragments(
    f: &Fragmented,
    options: &FragmentScheduleOptions,
) -> Result<Schedule, SchedError> {
    let mut assignment = match run_pass(f, options.balance) {
        Err(_) if options.balance => run_pass(f, false),
        result => result,
    }?;
    crate::finalize_glue_cycles(&f.spec, &mut assignment);
    let ops = f.spec.ops().iter().map(|op| op.id());
    Ok(Schedule::new(f.latency, f.cycle, ops.zip(assignment)))
}

/// One placement pass: the cycle of every op by op index.
pub(crate) fn run_pass(f: &Fragmented, balance: bool) -> Result<Vec<u32>, SchedError> {
    let spec = &f.spec;
    let mut p = Placer::new(spec, f.cycle, f.latency, Chain::BitLevel);
    for op in spec.ops() {
        match f.fragments.get(&op.id()) {
            None => {
                debug_assert!(op.kind().is_glue());
                p.commit_glue(op);
            }
            Some(info) => {
                let lo = info.asap.max(p.earliest_input_cycle(op)).max(1);
                p.place_in_window(op, lo, info.alap, balance)?;
            }
        }
    }
    Ok(p.assignment)
}

/// Checks a fragment schedule bit-exactly: replays the placement and
/// verifies every fragment fits the cycle it was assigned.
///
/// Returns the first offending op, or `None` when the schedule is valid.
pub fn verify_schedule(f: &Fragmented, schedule: &Schedule) -> Option<OpId> {
    let spec = &f.spec;
    let mut p = Placer::new(spec, schedule.cycle, schedule.latency, Chain::BitLevel);
    for op in spec.ops() {
        if f.fragments.contains_key(&op.id()) {
            let k = schedule.cycle_of(op.id())?;
            match p.try_place(op, k) {
                Some(times) => p.commit(op, k, times),
                None => return Some(op.id()),
            }
        } else {
            p.commit_glue(op);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use bittrans_frag::{fragment, FragmentOptions};
    use bittrans_kernel::extract;

    fn three_adds() -> Spec {
        Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap()
    }

    fn fig3() -> Spec {
        Spec::parse(
            "spec fig3 {
               input i1: u6; input i2: u6; input i3: u6; input i4: u6;
               input i5: u5; input i6: u5;
               input j1: u8; input j2: u8; input j3: u8; input j4: u8;
               B: u6 = i1 + i2;
               C: u6 = B + i3;
               E: u6 = C + i4;
               A: u5 = i5 + i6;
               D: u6 = i3 + i4;
               F: u8 = j1 + j2;
               G: u8 = j3 + j4;
               H: u8 = F + G;
               output E; output H; output A; output D;
            }",
        )
        .unwrap()
    }

    #[test]
    fn motivational_example_schedules_one_fragment_per_cycle() {
        // Paper Fig. 2 b): a fragment of each original addition in every
        // cycle, at a 6δ cycle.
        let spec = three_adds();
        let f = fragment(&spec, &FragmentOptions::with_latency(3)).unwrap();
        let s = schedule_fragments(&f, &FragmentScheduleOptions::default()).unwrap();
        assert_eq!(s.cycle, 6);
        for k in 1..=3 {
            let adds = s.ops_in_cycle(k).filter(|&op| f.spec.op(op).kind() == OpKind::Add).count();
            assert_eq!(adds, 3, "cycle {k} runs one fragment of each addition");
        }
        assert_eq!(verify_schedule(&f, &s), None);
    }

    #[test]
    fn fixed_fragments_land_on_their_cycle() {
        let spec = three_adds();
        let f = fragment(&spec, &FragmentOptions::with_latency(3)).unwrap();
        let s = schedule_fragments(&f, &FragmentScheduleOptions::default()).unwrap();
        for (op, info) in &f.fragments {
            if info.is_fixed() {
                assert_eq!(s.cycle_of(*op), Some(info.asap));
            }
        }
    }

    #[test]
    fn fig3_balances_additions() {
        let spec = fig3();
        let f = fragment(&spec, &FragmentOptions::with_latency(3)).unwrap();
        let s = schedule_fragments(&f, &FragmentScheduleOptions::default()).unwrap();
        assert_eq!(verify_schedule(&f, &s), None);
        // 8 source ops fragment into per-cycle work; balancing should keep
        // the per-cycle addition count within a small band.
        let counts: Vec<usize> = (1..=3)
            .map(|k| s.ops_in_cycle(k).filter(|&op| f.spec.op(op).kind() == OpKind::Add).count())
            .collect();
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 2, "unbalanced schedule {counts:?}:\n{}", s.render(&f.spec));
    }

    #[test]
    fn respects_mobility_windows() {
        let spec = fig3();
        let f = fragment(&spec, &FragmentOptions::with_latency(3)).unwrap();
        let s = schedule_fragments(&f, &FragmentScheduleOptions::default()).unwrap();
        for (op, info) in &f.fragments {
            let k = s.cycle_of(*op).unwrap();
            assert!(
                (info.asap..=info.alap).contains(&k),
                "{op} at {k}, window {}..={}",
                info.asap,
                info.alap
            );
        }
    }

    #[test]
    fn carry_order_is_respected() {
        let spec = fig3();
        let f = fragment(&spec, &FragmentOptions::with_latency(3)).unwrap();
        let s = schedule_fragments(&f, &FragmentScheduleOptions::default()).unwrap();
        for ids in f.per_source.values() {
            let cycles: Vec<u32> = ids.iter().map(|id| s.cycle_of(*id).unwrap()).collect();
            for w in cycles.windows(2) {
                assert!(w[0] <= w[1], "carry chain out of order: {cycles:?}");
            }
        }
    }

    #[test]
    fn kernel_then_fragment_then_schedule_diffeq_like() {
        let spec = Spec::parse(
            "spec hal { input x: u8; input y: u8; input u: u8; input dx: u8; input a: u8;
              x1: u8 = x + dx;
              t2: u8 = u * dx;
              u1: u8 = u - t2;
              y1: u8 = y + t2;
              c: u1 = x1 < a;
              output x1; output u1; output y1; output c; }",
        )
        .unwrap();
        let kernel = extract(&spec).unwrap();
        for latency in 1..=5 {
            let f = fragment(&kernel, &FragmentOptions::with_latency(latency)).unwrap();
            let s = schedule_fragments(&f, &FragmentScheduleOptions::default())
                .unwrap_or_else(|e| panic!("λ={latency}: {e}"));
            assert_eq!(verify_schedule(&f, &s), None, "λ={latency}");
        }
    }

    #[test]
    fn unbalanced_pass_is_asap() {
        let spec = three_adds();
        let f = fragment(&spec, &FragmentOptions::with_latency(3)).unwrap();
        let s = schedule_fragments(&f, &FragmentScheduleOptions { balance: false }).unwrap();
        assert_eq!(verify_schedule(&f, &s), None);
        for (op, info) in &f.fragments {
            if info.is_fixed() {
                assert_eq!(s.cycle_of(*op), Some(info.asap));
            }
        }
    }
}
