//! The conventional (baseline) scheduler: atomic operations, operator
//! chaining, time-constrained list scheduling.
//!
//! This models what the paper's experiments run Synopsys Behavioral
//! Compiler as: operations cannot be split across cycles (no
//! fragmentation), but data-dependent operations may chain combinationally
//! within one cycle. [`Chaining`] is the one chaining rule: summed
//! component delays (the tool's view), or *physical* chained delays (the
//! ripple paths of Fig. 1 e). The minimal feasible cycle length for a given
//! latency λ — found by [`minimal_cycle`] — is the "Original specification"
//! cycle the tables report; at λ = 1 the bit-level rule reproduces the
//! chained BLC-style design of Fig. 1 d).
//!
//! One ASAP pass puts each operation in the first cycle it fits. Whether
//! it fits in λ cycles is monotone in the cycle length, so the search
//! bisects the lengths for the first that fits;
//! [`schedule_conventional`] keeps the pass that fit, as the schedule when
//! balancing is off and as the fallback when the balanced pass fails.

use crate::engine::{Chain, Placer};
use crate::{SchedError, Schedule};
use bittrans_ir::prelude::*;
use bittrans_timing::{critical_path, is_zero_delay, required_times, Delta};

/// How the baseline scheduler may combine operations within one cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Chaining {
    /// Operator chaining with summed component delays — what a conventional
    /// tool (the paper's Synopsys Behavioral Compiler baseline) does. Two
    /// chained 16-bit adders cost 32δ.
    #[default]
    ComponentSum,
    /// Bit-level chaining (the BLC prior art \[3\]; the paper's Fig. 1 d):
    /// the ripple paths overlap, so two chained 16-bit adders cost 17δ.
    BitLevel,
}

impl Chaining {
    /// Stable short code for this chaining mode, suitable for cache keys.
    pub fn code(self) -> &'static str {
        match self {
            Chaining::ComponentSum => "component_sum",
            Chaining::BitLevel => "bit_level",
        }
    }
}

/// Options for [`schedule_conventional`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConventionalOptions {
    /// Target latency λ in cycles.
    pub latency: u32,
    /// In-cycle chaining rule.
    pub chaining: Chaining,
    /// Balance operation counts across cycles (distribution-graph style).
    pub balance: bool,
}

impl ConventionalOptions {
    /// The Behavioral-Compiler-like baseline for latency `λ`: component-sum
    /// chaining, balancing on, minimal feasible cycle.
    pub fn with_latency(latency: u32) -> Self {
        ConventionalOptions { latency, chaining: Chaining::ComponentSum, balance: true }
    }

    /// The bit-level-chaining (BLC) design point for latency `λ`.
    pub fn blc(latency: u32) -> Self {
        ConventionalOptions { latency, chaining: Chaining::BitLevel, balance: true }
    }
}

/// The longest standalone operation delay — an op's settle time with all
/// inputs registered — and so the lower bound on the cycle length of any
/// atomic schedule.
pub fn max_op_delay(spec: &Spec) -> Delta {
    op_delays(spec).into_iter().max().unwrap_or(1).max(1)
}

/// The standalone delay of every op by op index, 0 for the ops that take
/// no δ: what component-sum chaining charges an op. One search computes it
/// once for all its passes.
pub(crate) fn op_delays(spec: &Spec) -> Vec<Delta> {
    let delay = |op: &Operation| match is_zero_delay(op.kind()) {
        true => 0,
        false => bittrans_timing::op_delay_delta(spec, op),
    };
    spec.ops().iter().map(delay).collect()
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
/// * [`SchedError::ZeroLatency`] — zero latency;
/// * [`SchedError::LatencyExceeded`] — no cycle length fits, which cannot
///   happen: the search ends at a length that fits the spec in one cycle.
pub fn minimal_cycle(spec: &Spec, latency: u32, chaining: Chaining) -> Result<Delta, SchedError> {
    search(spec, &op_delays(spec), latency, chaining).map(|(c, _)| c)
}

/// The first cycle length in `max_op_delay ..= top` whose ASAP pass fits
/// in `latency` cycles, with that pass's assignment (see [`run_pass`]).
/// `top` is the length that fits the whole spec in one cycle, and `delays`
/// are [`op_delays`]. The fit is monotone in the length (a pass that fits
/// at `c` fits at `c + 1`), so a bisection finds the first fitting length
/// in `log2` of the range's size passes. Its first probe is
/// `max_op_delay` itself, where most searches end (when λ leaves every
/// op a cycle of its own).
pub(crate) fn search(
    spec: &Spec,
    delays: &[Delta],
    latency: u32,
    chaining: Chaining,
) -> Result<(Delta, Vec<u32>), SchedError> {
    if latency == 0 {
        return Err(SchedError::ZeroLatency);
    }
    // No length below `lo` fits, and `hi` fits (`top + 1` stands for none).
    let (mut lo, top) = cycle_range(spec, delays, chaining).into_inner();
    let (mut hi, mut found, mut mid) = (top + 1, None, lo);
    while lo < hi {
        match run_pass(spec, delays, mid, latency, chaining, false) {
            Some(pass) => (hi, found) = (mid, Some((mid, pass))),
            None => lo = mid + 1,
        }
        mid = lo + (hi - lo) / 2;
    }
    found.ok_or(SchedError::LatencyExceeded { needed: latency + 1, latency })
}

/// The cycle lengths [`search`] tries: `max_op_delay ..= top`, where `top`
/// fits the whole spec in one cycle under `chaining`.
fn cycle_range(
    spec: &Spec,
    delays: &[Delta],
    chaining: Chaining,
) -> std::ops::RangeInclusive<Delta> {
    let lo = delays.iter().copied().max().unwrap_or(1).max(1);
    let top = match chaining {
        Chaining::BitLevel => critical_path(spec),
        Chaining::ComponentSum => component_sum_length(spec),
    };
    lo..=top.max(lo)
}

/// Schedules `spec` with the conventional baseline at its minimal cycle.
///
/// Operations are placed in topological order. With `balance`, each
/// operation may slide within its mobility window to the least-used cycle
/// (a light-weight distribution-graph balance, reducing the number of
/// concurrently needed functional units); every placement is verified
/// bit-exactly against the cycle capacity. Without `balance`, or when the
/// balanced pass fails, the schedule is the ASAP pass that found the cycle.
///
/// # Errors
///
/// * [`SchedError::ZeroLatency`] — zero latency;
/// * [`SchedError::LatencyExceeded`] — as for [`minimal_cycle`].
pub fn schedule_conventional(
    spec: &Spec,
    options: &ConventionalOptions,
) -> Result<Schedule, SchedError> {
    let (latency, chaining) = (options.latency, options.chaining);
    let delays = op_delays(spec);
    let (c, asap) = search(spec, &delays, latency, chaining)?;
    let balanced = options.balance.then(|| run_pass(spec, &delays, c, latency, chaining, true));
    let mut assignment = balanced.flatten().unwrap_or(asap);
    crate::finalize_glue_cycles(spec, &mut assignment);
    Ok(Schedule::new(latency, c, spec.ops().iter().map(|op| op.id()).zip(assignment)))
}

/// One placement pass at cycle length `c`: the cycle of every op by op
/// index, or `None` when some operation fits no cycle up to `latency`.
/// Every operation may go in the first valid cycle from `e0`, its latest
/// input's cycle; the balanced pass first tries the least-used cycle up to
/// an advisory latest cycle. `delays` are [`op_delays`].
pub(crate) fn run_pass(
    spec: &Spec,
    delays: &[Delta],
    c: Delta,
    latency: u32,
    chaining: Chaining,
    balance: bool,
) -> Option<Vec<u32>> {
    // Advisory latest cycles from the δ-exact required times: the tightest
    // output bit of an op bounds how late it can run. They cannot change
    // the first valid cycle, so the ASAP pass skips them.
    let req = balance.then(|| required_times(spec, c * latency));
    let mut p = Placer::new(spec, c, latency, Chain::new(chaining, delays));
    for op in spec.ops() {
        if is_zero_delay(op.kind()) {
            p.commit_glue(op);
            continue;
        }
        let e0 = p.earliest_input_cycle(op).max(1);
        if let Some(req) = &req {
            let l_adv = (0..op.width())
                .map(|i| req.bit(op.result(), i).div_ceil(c).max(1))
                .min()
                .unwrap_or(latency)
                .max(e0);
            if p.place_in_window(op, e0, l_adv, true).is_ok() {
                continue;
            }
        }
        // At e0 + 1 every input is registered, so no later cycle fits
        // when that one does not.
        p.place_in_window(op, e0, e0 + 1, false).ok()?;
    }
    Some(p.assignment)
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
    fn asap_pass_fits_bit_level_chains() {
        let spec = three_adds();
        let delays = op_delays(&spec);
        let fits =
            |c, latency| run_pass(&spec, &delays, c, latency, Chaining::BitLevel, false).is_some();
        assert!(fits(17, 2) && !fits(17, 1));
        assert!(fits(18, 1));
        // Too short for a single 16-bit addition:
        assert!((1..=4).all(|latency| !fits(10, latency)));
    }

    /// An 8×8 multiply feeding an addition.
    fn mul_then_add() -> Spec {
        Spec::parse(
            "spec mul_add { input a: u8; input b: u8; input k: u8;
              p: u16 = a * b;
              q: u16 = p + k;
              output q; }",
        )
        .unwrap()
    }

    /// A chain of four 12-bit additions.
    fn u12_chain() -> Spec {
        Spec::parse(
            "spec chain12 { input a: u12; input b: u12; input c1: u12; input d: u12;
              x: u12 = a + b;
              y: u12 = x + c1;
              z: u12 = y + d;
              w: u12 = z + a;
              output w; }",
        )
        .unwrap()
    }

    #[test]
    fn minimal_cycle_lower_bound_is_max_op() {
        let spec = mul_then_add();
        // The 8×8 array multiplier (8 + 2·8 = 24δ) dominates at large λ.
        let c = minimal_cycle(&spec, 8, Chaining::BitLevel).unwrap();
        assert_eq!(c, 24);
        assert_eq!(max_op_delay(&spec), 24);
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
        let s = schedule_conventional(&spec, &ConventionalOptions::with_latency(2)).unwrap();
        assert_eq!(s.cycle, 8);
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
        let spec = u12_chain();
        let mut prev = Delta::MAX;
        for latency in 1..=8 {
            let c = minimal_cycle(&spec, latency, Chaining::BitLevel).unwrap();
            assert!(c <= prev, "λ={latency}: {c} > {prev}");
            prev = c;
        }
    }

    #[test]
    fn search_stops_at_the_first_fitting_cycle() {
        for spec in [three_adds(), u12_chain(), mul_then_add()] {
            let (lo, delays) = (max_op_delay(&spec), op_delays(&spec));
            for chaining in [Chaining::ComponentSum, Chaining::BitLevel] {
                for latency in 1..=8 {
                    let c = minimal_cycle(&spec, latency, chaining).unwrap();
                    let fits = |c| run_pass(&spec, &delays, c, latency, chaining, false).is_some();
                    let case = format!("{} λ={latency} {chaining:?}", spec.name());
                    assert!(fits(c), "{case}: ASAP pass misses {c}δ");
                    assert!(c == lo || !fits(c - 1), "{case}: {}δ fits too", c - 1);
                }
            }
        }
    }

    /// The search's bisection rests on this: over random specs, a fit of
    /// the ASAP pass at `c` implies a fit at `c + 1` across the whole
    /// searched range, so the first fitting length is the only boundary
    /// between lengths that do not fit and lengths that do.
    #[test]
    fn the_asap_pass_fit_is_monotone_in_the_cycle_length() {
        use bittrans_benchmarks::{random_spec, RandomSpecOptions};
        for seed in 0..16 {
            let spec = random_spec(seed, &RandomSpecOptions::default());
            let delays = op_delays(&spec);
            for chaining in [Chaining::ComponentSum, Chaining::BitLevel] {
                for latency in 1..=8 {
                    let fits: Vec<bool> = cycle_range(&spec, &delays, chaining)
                        .map(|c| run_pass(&spec, &delays, c, latency, chaining, false).is_some())
                        .collect();
                    let case = format!("seed {seed} λ={latency} {chaining:?}");
                    assert!(fits.windows(2).all(|w| !w[0] || w[1]), "{case}: fit then no fit");
                    assert_eq!(fits.last(), Some(&true), "{case}: the top length fits");
                }
            }
        }
    }

    #[test]
    fn chaining_codes_are_stable() {
        let codes = [Chaining::ComponentSum, Chaining::BitLevel].map(Chaining::code);
        assert_eq!(codes, ["component_sum", "bit_level"]);
    }
}
