//! Cross-crate property test of the canonical artifact codec: over
//! randomly generated specifications, `from_canonical ∘ to_canonical`
//! is the identity for the spec (and the kernel extracted from it) — job
//! keys and the shard wire read specs in this form — and for the finished
//! comparison the engine persists per job, down to its two
//! implementations' bit-exact floats.

use bittrans_benchmarks::{random_spec, RandomSpecOptions};
use bittrans_core::{compare, stage_extract, CompareOptions, Comparison, Implementation};
use bittrans_ir::Spec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn specs_and_comparisons_round_trip(
        seed in 0u64..1_000_000,
        ops in 3usize..14,
        inputs in 2usize..6,
        latency in 2u32..5,
    ) {
        let spec = random_spec(
            seed,
            &RandomSpecOptions { ops, inputs, ..RandomSpecOptions::default() },
        );

        // Spec: decoded value equal, encoded text a fixpoint.
        let text = spec.to_canonical();
        let decoded = Spec::from_canonical(&text).expect("canonical spec parses");
        prop_assert_eq!(&decoded, &spec);
        prop_assert_eq!(decoded.to_canonical(), text);

        // The extraction stage's output is a spec too.
        let kernel = stage_extract(&spec).expect("extraction succeeds");
        let ktext = kernel.to_canonical();
        let kdec = Spec::from_canonical(&ktext).expect("canonical kernel parses");
        prop_assert_eq!(&kdec, &kernel);

        // The finished comparison (the engine's `job` artifact): decoded
        // value equal field-for-field with bit-exact floats, encoded text
        // a fixpoint.
        let options = CompareOptions { verify_vectors: 0, ..CompareOptions::default() };
        if let Ok(cmp) = compare(&spec, latency, &options) {
            let ctext = cmp.to_canonical();
            let cdec = Comparison::from_canonical(&ctext).expect("canonical comparison parses");
            prop_assert_eq!(cdec.to_canonical(), ctext);
            let itext = cmp.original.to_canonical();
            let idec =
                Implementation::from_canonical(&itext).expect("canonical implementation parses");
            prop_assert_eq!(idec.to_canonical(), itext);
            for (a, b) in [(&cdec.original, &cmp.original), (&cdec.optimized, &cmp.optimized)] {
                prop_assert_eq!(&a.name, &b.name);
                prop_assert_eq!((a.latency, a.cycle_delta), (b.latency, b.cycle_delta));
                prop_assert_eq!(a.cycle_ns.to_bits(), b.cycle_ns.to_bits());
                prop_assert_eq!(a.execution_ns.to_bits(), b.execution_ns.to_bits());
                let bits = |imp: &Implementation| {
                    [imp.area.fu, imp.area.registers, imp.area.routing, imp.area.controller]
                        .map(f64::to_bits)
                };
                prop_assert_eq!(bits(a), bits(b));
                prop_assert_eq!((a.op_count, a.stored_bits), (b.op_count, b.stored_bits));
            }
        }
    }
}
