//! Property-based tests over the whole pipeline: for random specifications
//! and random latencies, every transformation stage must preserve
//! behaviour, every schedule must respect structure, and the cost model
//! must behave monotonically.

use bittrans::benchmarks::{random_spec, RandomSpecOptions};
use bittrans::prelude::*;
use bittrans::sched::fragment::verify_schedule;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kernel extraction preserves behaviour for arbitrary DFGs.
    #[test]
    fn prop_kernel_equivalent(seed in 0u64..500, ops in 4usize..14) {
        let spec = random_spec(seed, &RandomSpecOptions { ops, ..Default::default() });
        let kernel = extract(&spec).unwrap();
        prop_assert!(kernel.is_additive_form());
        check_equivalence(&spec, &kernel, seed ^ 0xAB, 40)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }

    /// Fragmentation preserves behaviour at every feasible latency.
    #[test]
    fn prop_fragmentation_equivalent(seed in 0u64..500, latency in 1u32..6) {
        let spec = random_spec(seed, &RandomSpecOptions { ops: 8, ..Default::default() });
        let kernel = extract(&spec).unwrap();
        let f = fragment(&kernel, &FragmentOptions::with_latency(latency)).unwrap();
        check_equivalence(&spec, &f.spec, seed ^ 0xCD, 40)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }

    /// Fragment schedules verify bit-exactly and respect data dependence.
    #[test]
    fn prop_schedules_verify(seed in 0u64..300, latency in 1u32..5) {
        let spec = random_spec(seed, &RandomSpecOptions { ops: 8, ..Default::default() });
        let kernel = extract(&spec).unwrap();
        let f = fragment(&kernel, &FragmentOptions::with_latency(latency)).unwrap();
        let s = schedule_fragments(&f, &FragmentScheduleOptions::default()).unwrap();
        prop_assert_eq!(verify_schedule(&f, &s), None);
        // Op-level dependence holds between non-glue producers and non-glue
        // consumers (glue is bit-level wiring: a consumer may legitimately
        // read a concatenation's low bits before its high inputs exist).
        let users = f.spec.users();
        for op in f.spec.ops() {
            if op.kind().is_glue() {
                continue;
            }
            let k = s.cycle_of(op.id()).unwrap();
            for (u, _) in users.get(&op.result()).into_iter().flatten() {
                if !f.spec.op(*u).kind().is_glue() {
                    prop_assert!(s.cycle_of(*u).unwrap() >= k);
                }
            }
        }
    }

    /// The optimized cycle length never increases when latency grows.
    #[test]
    fn prop_cycle_monotone_in_latency(seed in 0u64..200) {
        let spec = random_spec(seed, &RandomSpecOptions { ops: 8, ..Default::default() });
        let kernel = extract(&spec).unwrap();
        let mut prev = u32::MAX;
        for latency in 1..=6 {
            let f = fragment(&kernel, &FragmentOptions::with_latency(latency)).unwrap();
            prop_assert!(f.cycle <= prev, "λ={latency}: {} > {prev}", f.cycle);
            prev = f.cycle;
        }
    }

    /// Fragment widths partition every kernel addition exactly.
    #[test]
    fn prop_fragments_partition(seed in 0u64..300, latency in 1u32..6) {
        let spec = random_spec(seed, &RandomSpecOptions { ops: 8, ..Default::default() });
        let kernel = extract(&spec).unwrap();
        let f = fragment(&kernel, &FragmentOptions::with_latency(latency)).unwrap();
        for op in kernel.ops() {
            if op.kind() != OpKind::Add {
                continue;
            }
            let ids = &f.per_source[&op.id()];
            let mut covered = 0;
            for id in ids {
                let info = &f.fragments[id];
                prop_assert_eq!(info.range.lo(), covered, "gap in {}", op.label());
                prop_assert!(info.asap <= info.alap);
                prop_assert!(info.alap <= latency);
                covered = info.range.end();
            }
            prop_assert_eq!(covered, op.width(), "{} not fully covered", op.label());
        }
    }

    /// The conventional baseline, component-sum or bit-level (BLC), is
    /// feasible and its minimal cycle shrinks (weakly) as latency grows.
    #[test]
    fn prop_baseline_monotone(seed in 0u64..200, blc in any::<bool>()) {
        let spec = random_spec(seed, &RandomSpecOptions { ops: 8, ..Default::default() });
        let options =
            if blc { ConventionalOptions::blc } else { ConventionalOptions::with_latency };
        let mut prev = u32::MAX;
        for latency in 1..=6 {
            let s = schedule_conventional(&spec, &options(latency)).unwrap();
            prop_assert!(s.cycle <= prev);
            prev = s.cycle;
        }
    }

    /// End-to-end: the optimized implementation's execution time never
    /// exceeds the baseline's at equal latency.
    #[test]
    fn prop_optimized_never_slower(seed in 0u64..100, latency in 2u32..5) {
        let spec = random_spec(seed, &RandomSpecOptions { ops: 8, ..Default::default() });
        let options = CompareOptions { verify_vectors: 0, ..Default::default() };
        let cmp = compare(&spec, latency, &options).unwrap();
        prop_assert!(cmp.optimized.cycle_ns <= cmp.original.cycle_ns + 1e-9);
    }
}
