//! The conventional (baseline) scheduler: atomic operations, operator
//! chaining, time-constrained list scheduling.
//!
//! This models what the paper's experiments run Synopsys Behavioral
//! Compiler as: operations cannot be split across cycles (no
//! fragmentation), but data-dependent operations may chain combinationally
//! within one cycle — with *physical* chained delays (the ripple paths of
//! Fig. 1 e), since that is what gate-level timing reports for chained
//! adders. The minimal feasible cycle length for a given latency λ — found
//! by [`minimal_cycle`] — is the "Original specification" cycle the tables
//! report; at λ = 1 the same scheduler reproduces the chained BLC-style
//! design of Fig. 1 d).

use crate::engine::{ChainModel, Placer};
use crate::{SchedError, Schedule};
use bittrans_ir::prelude::*;
use bittrans_timing::{critical_path, is_zero_delay, required_times, Delta};

/// How the baseline scheduler may combine operations within one cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Chaining {
    /// No chaining: every operation starts at a cycle boundary.
    Disabled,
    /// Operator chaining with summed component delays — what a conventional
    /// tool (the paper's Synopsys Behavioral Compiler baseline) does.
    #[default]
    ComponentSum,
    /// Bit-level chaining (the BLC prior art \[3\]; the paper's Fig. 1 d).
    BitLevel,
}

impl Chaining {
    fn model(self) -> ChainModel {
        match self {
            Chaining::BitLevel => ChainModel::BitLevel,
            _ => ChainModel::ComponentSum,
        }
    }

    fn enabled(self) -> bool {
        self != Chaining::Disabled
    }
}

/// Options for [`schedule_conventional`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConventionalOptions {
    /// Target latency λ in cycles.
    pub latency: u32,
    /// Cycle duration override in δ; `None` picks the minimum feasible via
    /// [`minimal_cycle`].
    pub cycle_override: Option<Delta>,
    /// In-cycle chaining rule.
    pub chaining: Chaining,
    /// Balance operation counts across cycles (distribution-graph style).
    pub balance: bool,
}

impl ConventionalOptions {
    /// The Behavioral-Compiler-like baseline for latency `λ`: component-sum
    /// chaining, balancing on, minimal feasible cycle.
    pub fn with_latency(latency: u32) -> Self {
        ConventionalOptions {
            latency,
            cycle_override: None,
            chaining: Chaining::ComponentSum,
            balance: true,
        }
    }

    /// The bit-level-chaining (BLC) design point for latency `λ`.
    pub fn blc(latency: u32) -> Self {
        ConventionalOptions {
            latency,
            cycle_override: None,
            chaining: Chaining::BitLevel,
            balance: true,
        }
    }
}

/// The standalone delay of every non-glue operation: its settle time with
/// all inputs registered (available at cycle start). The maximum is the
/// smallest cycle any atomic schedule can use.
pub fn standalone_delays(spec: &Spec) -> Vec<(OpId, Delta)> {
    spec.ops()
        .iter()
        .filter(|op| !is_zero_delay(op.kind()))
        .map(|op| (op.id(), bittrans_timing::op_delay_delta(spec, op)))
        .collect()
}

/// The longest standalone operation delay — the lower bound on the cycle
/// length of any atomic schedule.
pub fn max_op_delay(spec: &Spec) -> Delta {
    standalone_delays(spec).into_iter().map(|(_, d)| d).max().unwrap_or(1).max(1)
}

/// Number of cycles a pure-ASAP chained schedule needs at cycle length `c`,
/// or `None` when some operation cannot fit at all.
pub fn cycles_needed(spec: &Spec, c: Delta, chaining: Chaining) -> Option<u32> {
    let cap = spec.ops().len() as u32 + 2;
    let mut p = Placer::with_chain(spec, c, cap, chaining.model());
    let mut needed = 1;
    for op in spec.ops() {
        if is_zero_delay(op.kind()) {
            p.commit_glue(op);
            continue;
        }
        let raw = p.earliest_input_cycle(op);
        let e0 = if chaining.enabled() { raw.max(1) } else { (raw + 1).max(1) };
        // e0 may need chaining that doesn't fit; e0 + 1 has all inputs
        // registered, so it works iff the op fits a cycle at all.
        let k = [e0, e0 + 1].into_iter().find(|&k| p.try_place(op, k).is_some())?;
        let times = p.try_place(op, k).expect("validated");
        p.commit(op, k, times);
        needed = needed.max(k);
    }
    Some(needed)
}

/// The summed-delay length of the longest dependence path — the single
/// cycle a component-sum chained schedule needs.
pub fn component_sum_length(spec: &Spec) -> Delta {
    let mut finish: Vec<Delta> = vec![0; spec.values().len()];
    let mut total = 1;
    for op in spec.ops() {
        let start = op
            .operands()
            .iter()
            .filter_map(|o| o.value_id())
            .map(|v| finish[v.index()])
            .max()
            .unwrap_or(0);
        let f = start + bittrans_timing::op_delay_delta(spec, op);
        finish[op.result().index()] = f;
        total = total.max(f);
    }
    total
}

/// The smallest cycle length (δ) at which the spec schedules atomically in
/// `latency` cycles.
///
/// # Errors
///
/// Returns [`SchedError::ZeroLatency`] when `latency` is zero.
pub fn minimal_cycle(spec: &Spec, latency: u32, chaining: Chaining) -> Result<Delta, SchedError> {
    if latency == 0 {
        return Err(SchedError::ZeroLatency);
    }
    let lo = max_op_delay(spec);
    let hi = match chaining {
        Chaining::BitLevel => critical_path(spec),
        Chaining::ComponentSum | Chaining::Disabled => component_sum_length(spec),
    }
    .max(lo);
    for c in lo..=hi {
        if let Some(needed) = cycles_needed(spec, c, chaining) {
            if needed <= latency {
                return Ok(c);
            }
        }
    }
    Ok(hi)
}

/// Schedules `spec` with the conventional baseline.
///
/// Operations are placed in topological order. With `balance`, each
/// operation may slide within its mobility window to the least-used cycle
/// (a light-weight distribution-graph balance, reducing the number of
/// concurrently needed functional units); every placement is verified
/// bit-exactly against the cycle capacity. If the balanced pass fails, a
/// pure-ASAP pass is retried before reporting failure.
///
/// # Errors
///
/// * [`SchedError::ZeroLatency`] — zero latency;
/// * [`SchedError::CycleTooShort`] — an operation exceeds the cycle length;
/// * [`SchedError::LatencyExceeded`] — the spec does not fit in λ cycles.
pub fn schedule_conventional(
    spec: &Spec,
    options: &ConventionalOptions,
) -> Result<Schedule, SchedError> {
    if options.latency == 0 {
        return Err(SchedError::ZeroLatency);
    }
    let c = match options.cycle_override {
        Some(c) => c,
        None => minimal_cycle(spec, options.latency, options.chaining)?,
    };
    for (op, d) in standalone_delays(spec) {
        if d > c {
            return Err(SchedError::CycleTooShort { op, delay: d, cycle: c });
        }
    }
    match cycles_needed(spec, c, options.chaining) {
        Some(needed) if needed <= options.latency => {}
        Some(needed) => {
            return Err(SchedError::LatencyExceeded { needed, latency: options.latency })
        }
        None => {
            // standalone check above should have caught this
            return Err(SchedError::LatencyExceeded { needed: u32::MAX, latency: options.latency });
        }
    }
    match run_pass(spec, c, options, options.balance) {
        Ok(s) => Ok(s),
        Err(_) if options.balance => run_pass(spec, c, options, false),
        Err(e) => Err(e),
    }
}

fn run_pass(
    spec: &Spec,
    c: Delta,
    options: &ConventionalOptions,
    balance: bool,
) -> Result<Schedule, SchedError> {
    // Advisory latest cycles from the δ-exact required times: the tightest
    // output bit of an op bounds how late it can run.
    let req = required_times(spec, c * options.latency);
    let mut p = Placer::with_chain(spec, c, options.latency, options.chaining.model());
    for op in spec.ops() {
        if is_zero_delay(op.kind()) {
            p.commit_glue(op);
            continue;
        }
        let raw = p.earliest_input_cycle(op);
        let e0 = if options.chaining.enabled() { raw.max(1) } else { (raw + 1).max(1) };
        let l_adv = (0..op.width())
            .map(|i| req.bit(op.result(), i).div_ceil(c).max(1))
            .min()
            .unwrap_or(options.latency)
            .max(e0);
        match p.place_in_window(op, e0, l_adv, balance) {
            Ok(_) => {}
            Err(_) => {
                // Advisory window failed; fall back to any cycle up to λ.
                p.place_in_window(op, e0, options.latency, false).map_err(|_| {
                    SchedError::LatencyExceeded {
                        needed: options.latency + 1,
                        latency: options.latency,
                    }
                })?;
            }
        }
    }
    let mut assignment = p.assignment;
    crate::finalize_glue_cycles(spec, &mut assignment);
    Ok(Schedule::new(options.latency, c, assignment))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_adds() -> Spec {
        Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap()
    }

    #[test]
    fn fig1b_one_add_per_cycle() {
        // λ = 3: each 16-bit addition in its own cycle, 16δ cycles.
        let spec = three_adds();
        let s = schedule_conventional(&spec, &ConventionalOptions::with_latency(3)).unwrap();
        assert_eq!(s.cycle, 16);
        let cycles: Vec<u32> = spec.ops().iter().map(|op| s.cycle_of(op.id()).unwrap()).collect();
        assert_eq!(cycles, vec![1, 2, 3]);
    }

    #[test]
    fn fig1d_blc_single_cycle() {
        // λ = 1 with *bit-level* chaining: the whole chain in one 18δ cycle
        // (Fig. 1 d) — physical ripple overlap, not 48δ of summed delays.
        let spec = three_adds();
        let s = schedule_conventional(&spec, &ConventionalOptions::blc(1)).unwrap();
        assert_eq!(s.cycle, 18);
        assert!(spec.ops().iter().all(|op| s.cycle_of(op.id()) == Some(1)));
    }

    #[test]
    fn component_sum_chaining_is_pessimistic() {
        // The conventional tool sums component delays: one cycle needs 48δ.
        let spec = three_adds();
        let c = minimal_cycle(&spec, 1, Chaining::ComponentSum).unwrap();
        assert_eq!(c, 48);
        // λ = 2 with component-sum chaining: 32δ (two adds in one cycle).
        assert_eq!(minimal_cycle(&spec, 2, Chaining::ComponentSum).unwrap(), 32);
    }

    #[test]
    fn two_cycles_chains_two_adds() {
        // λ = 2 with bit-level chaining: two additions ripple-chain in 17δ.
        let spec = three_adds();
        let c = minimal_cycle(&spec, 2, Chaining::BitLevel).unwrap();
        assert_eq!(c, 17);
    }

    #[test]
    fn without_chaining_cycle_count_is_depth() {
        let spec = three_adds();
        assert_eq!(cycles_needed(&spec, 16, Chaining::Disabled), Some(3));
        assert_eq!(cycles_needed(&spec, 17, Chaining::BitLevel), Some(2));
        assert_eq!(cycles_needed(&spec, 18, Chaining::BitLevel), Some(1));
        // Too short for a single 16-bit addition:
        assert_eq!(cycles_needed(&spec, 10, Chaining::BitLevel), None);
    }

    #[test]
    fn minimal_cycle_lower_bound_is_max_op() {
        let spec = Spec::parse(
            "spec s { input a: u8; input b: u8; input k: u8;
              p: u16 = a * b;
              q: u16 = p + k;
              output q; }",
        )
        .unwrap();
        // The 8×8 array multiplier (8 + 2·8 = 24δ) dominates at large λ.
        let c = minimal_cycle(&spec, 8, Chaining::BitLevel).unwrap();
        assert_eq!(c, 24);
        assert_eq!(max_op_delay(&spec), 24);
    }

    #[test]
    fn cycle_too_short_reported() {
        let spec = three_adds();
        let err = schedule_conventional(
            &spec,
            &ConventionalOptions {
                latency: 3,
                cycle_override: Some(8),
                chaining: Chaining::ComponentSum,
                balance: false,
            },
        )
        .unwrap_err();
        assert!(matches!(err, SchedError::CycleTooShort { delay: 16, cycle: 8, .. }));
    }

    #[test]
    fn latency_exceeded_reported() {
        let spec = three_adds();
        let err = schedule_conventional(
            &spec,
            &ConventionalOptions {
                latency: 2,
                cycle_override: Some(16),
                chaining: Chaining::Disabled,
                balance: false,
            },
        )
        .unwrap_err();
        assert!(matches!(err, SchedError::LatencyExceeded { needed: 3, latency: 2 }));
    }

    #[test]
    fn zero_latency_rejected() {
        let spec = three_adds();
        assert_eq!(
            schedule_conventional(&spec, &ConventionalOptions::with_latency(0)).unwrap_err(),
            SchedError::ZeroLatency
        );
    }

    #[test]
    fn balancing_spreads_independent_ops() {
        // Four independent additions, λ = 2: balancing puts two per cycle.
        let spec = Spec::parse(
            "spec s { input a: u8; input b: u8;
              w: u8 = a + b; x: u8 = a + b; y: u8 = a + b; z: u8 = a + b;
              output w; output x; output y; output z; }",
        )
        .unwrap();
        let s = schedule_conventional(
            &spec,
            &ConventionalOptions {
                latency: 2,
                cycle_override: Some(8),
                chaining: Chaining::ComponentSum,
                balance: true,
            },
        )
        .unwrap();
        let c1 = s.ops_in_cycle(1).count();
        let c2 = s.ops_in_cycle(2).count();
        assert_eq!((c1, c2), (2, 2), "{}", s.render(&spec));
    }

    #[test]
    fn glue_is_scheduled_with_producers() {
        let spec = Spec::parse(
            "spec s { input a: u8; input b: u8;
              n: u8 = ~a;
              x: u8 = n + b;
              output x; }",
        )
        .unwrap();
        let s = schedule_conventional(&spec, &ConventionalOptions::with_latency(1)).unwrap();
        assert_eq!(s.cycle_of(spec.ops()[0].id()), Some(1));
    }

    #[test]
    fn dependencies_respected_across_all_latencies() {
        let spec = three_adds();
        for latency in 1..=5 {
            let s =
                schedule_conventional(&spec, &ConventionalOptions::with_latency(latency)).unwrap();
            let users = spec.users();
            for op in spec.ops() {
                let kc = s.cycle_of(op.id()).unwrap();
                for (user, _) in users.get(&op.result()).into_iter().flatten() {
                    let ku = s.cycle_of(*user).unwrap();
                    assert!(ku >= kc, "λ={latency}: {user} before its producer");
                }
            }
        }
    }

    #[test]
    fn larger_latency_never_increases_cycle() {
        let spec = Spec::parse(
            "spec s { input a: u12; input b: u12; input c1: u12; input d: u12;
              x: u12 = a + b;
              y: u12 = x + c1;
              z: u12 = y + d;
              w: u12 = z + a;
              output w; }",
        )
        .unwrap();
        let mut prev = Delta::MAX;
        for latency in 1..=8 {
            let c = minimal_cycle(&spec, latency, Chaining::BitLevel).unwrap();
            assert!(c <= prev, "λ={latency}: {c} > {prev}");
            prev = c;
        }
    }
}
