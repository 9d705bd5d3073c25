//! The unit of work: one specification at one latency under one
//! configuration.
//!
//! Jobs are what every front end bottoms out in: [`crate::Engine::run`]
//! takes them directly, and a [`crate::Study`] grid expands each axis
//! coordinate into one job before deduplicating by [`JobKey`]. Either way
//! each job comes back as one labelled [`crate::StudyCell`].

use crate::key::JobKey;
use bittrans_core::{CompareOptions, Comparison, PipelineError};
use bittrans_ir::Spec;

/// What one job produces: the baseline-vs-optimized [`Comparison`], or the
/// pipeline error that stopped it (e.g. an infeasible latency).
pub type JobResult = Result<Comparison, PipelineError>;

/// One unit of batch work: run both flows on `spec` at `latency` under
/// `options` (the same work as [`bittrans_core::compare`]).
#[derive(Clone, Debug)]
pub struct Job {
    /// The specification to optimize.
    pub spec: Spec,
    /// The latency constraint λ in cycles.
    pub latency: u32,
    /// Pipeline configuration (adder architecture, timing model, …).
    pub options: CompareOptions,
}

impl Job {
    /// A job with default [`CompareOptions`].
    pub fn new(spec: Spec, latency: u32) -> Self {
        Job { spec, latency, options: CompareOptions::default() }
    }

    /// A job with explicit options.
    pub fn with_options(spec: Spec, latency: u32, options: CompareOptions) -> Self {
        Job { spec, latency, options }
    }

    /// The job's content-addressed cache key: a stable hash of the
    /// canonicalized specification text, the latency and the options.
    ///
    /// Two jobs built from different `Spec` values have equal keys exactly
    /// when their canonical forms agree — e.g. the same source parsed
    /// twice, or re-read from disk with different whitespace.
    pub fn key(&self) -> JobKey {
        JobKey::of(&self.spec, self.latency, &self.options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(src: &str) -> Spec {
        Spec::parse(src).unwrap()
    }

    #[test]
    fn key_ignores_source_formatting() {
        let a = Job::new(spec("spec s { input a: u8; input b: u8; output o = a + b; }"), 3);
        let b =
            Job::new(spec("spec s {\n  input a: u8;\n  input b: u8;\n  output o = a + b;\n}"), 3);
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn key_separates_latency_options_and_content() {
        let s = spec("spec s { input a: u8; input b: u8; output o = a + b; }");
        let base = Job::new(s.clone(), 3);
        assert_ne!(base.key(), Job::new(s.clone(), 4).key());
        let options = CompareOptions { balance: false, ..Default::default() };
        assert_ne!(base.key(), Job::with_options(s, 3, options).key());
        let other = spec("spec s { input a: u8; input b: u8; output o = a - b; }");
        assert_ne!(base.key(), Job::new(other, 3).key());
    }
}
