//! # bittrans
//!
//! A complete, from-scratch reproduction of *"Behavioural Transformation to
//! Improve Circuit Performance in High-Level Synthesis"* (R. Ruiz-Sautua,
//! M. C. Molina, J. M. Mendías, R. Hermida — DATE 2005) as a Rust library.
//!
//! The paper's method is a presynthesis source-to-source optimisation for
//! time-constrained high-level synthesis: it breaks additive operations
//! into **bit-range fragments** that a conventional scheduler can place in
//! different — possibly unconsecutive — clock cycles, so the clock can be
//! much shorter than any single operation while result bits flow to
//! consumers in the very cycle they are produced.
//!
//! This facade re-exports the whole workspace:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`ir`] | `bittrans-ir` | bit-accurate behavioural IR, textual DSL, VHDL emission |
//! | [`sim`] | `bittrans-sim` | functional simulation + equivalence checking |
//! | [`timing`] | `bittrans-timing` | δ-unit ripple timing, critical path, cycle estimation |
//! | [`kernel`] | `bittrans-kernel` | operative kernel extraction (§3.1) |
//! | [`frag`] | `bittrans-frag` | bit-level ASAP/ALAP + fragmentation (§3.3) |
//! | [`sched`] | `bittrans-sched` | conventional & fragment schedulers |
//! | [`alloc`] | `bittrans-alloc` | FU/register/interconnect/controller allocation |
//! | [`rtl`] | `bittrans-rtl` | component library with calibrated cost models |
//! | [`benchmarks`] | `bittrans-benchmarks` | the paper's workloads |
//! | [`core`] | `bittrans-core` | the end-to-end pipeline and comparison harness |
//! | [`engine`] | `bittrans-engine` | parallel batch engine, persistent result cache, `Study` exploration grids |
//!
//! ## Quickstart
//!
//! ```
//! use bittrans::ir::Spec;
//! use bittrans::core::{compare, CompareOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's motivational example: three chained 16-bit additions.
//! let spec = Spec::parse(
//!     "spec example {
//!          input A: u16; input B: u16; input D: u16; input F: u16;
//!          C: u16 = A + B;
//!          E: u16 = C + D;
//!          G: u16 = E + F;
//!          output G;
//!      }",
//! )?;
//! let cmp = compare(&spec, 3, &CompareOptions::default())?;
//! // Table I: the optimized circuit runs on a 6δ cycle instead of 16δ
//! // (62 % shorter) and is no larger.
//! assert!(cmp.cycle_saved_pct() > 55.0);
//! assert!(cmp.area_delta_pct() < 5.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bittrans_alloc as alloc;
pub use bittrans_benchmarks as benchmarks;
pub use bittrans_core as core;
pub use bittrans_engine as engine;
pub use bittrans_frag as frag;
pub use bittrans_ir as ir;
pub use bittrans_kernel as kernel;
pub use bittrans_rtl as rtl;
pub use bittrans_sched as sched;
pub use bittrans_sim as sim;
pub use bittrans_timing as timing;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use bittrans_alloc::{allocate, AllocOptions, Datapath};
    pub use bittrans_core::{
        baseline, blc, compare, latency_sweep, optimize, CompareOptions, CompareOptionsBuilder,
        Comparison, Implementation, OptionsError,
    };
    pub use bittrans_engine::{
        Engine, EngineOptions, EngineStats, Job, PrunePolicy, PruneReport, Study, StudyCell,
        StudyReport,
    };
    pub use bittrans_frag::{fragment, FragmentInfo, FragmentOptions, Fragmented};
    pub use bittrans_ir::prelude::*;
    pub use bittrans_kernel::{extract, extract_with_options, ExtractOptions, MulStrategy};
    pub use bittrans_rtl::{AdderArch, AreaReport, Component};
    pub use bittrans_sched::conventional::{schedule_conventional, Chaining, ConventionalOptions};
    pub use bittrans_sched::fragment::{schedule_fragments, FragmentScheduleOptions};
    pub use bittrans_sched::Schedule;
    pub use bittrans_sim::equivalence::check_equivalence;
    pub use bittrans_sim::{evaluate, InputVector};
    pub use bittrans_timing::{critical_path, estimate_cycle, TimingModel};
}
