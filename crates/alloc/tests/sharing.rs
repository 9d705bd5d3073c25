//! Resource-sharing behaviour of the allocator: functional units, glue
//! blocks and registers must share hardware across cycles exactly when
//! their busy windows are disjoint.

use bittrans_alloc::{allocate, AllocOptions};
use bittrans_frag::{fragment, FragmentOptions};
use bittrans_ir::prelude::*;
use bittrans_kernel::extract;
use bittrans_sched::conventional::{schedule_conventional, ConventionalOptions};
use bittrans_sched::fragment::{schedule_fragments, FragmentScheduleOptions};
use bittrans_sched::Schedule;

/// Two multiplications forced into different cycles share one carry-save
/// array (the glue block of the second multiply reuses the first's).
#[test]
fn serialised_multiplications_share_glue() {
    // p2 depends on p1 (through a truncating slice, keeping both
    // multipliers 8x8-shaped), so their kernels execute in different
    // cycles and the identical arrays can share.
    let spec = Spec::parse(
        "spec serial {
            input a: u8; input b: u8;
            p1: u16 = a * b;
            q: u8 = p1[7:0];
            p2: u16 = q * b;
            output p2; }",
    )
    .unwrap();
    let kernel = extract(&spec).unwrap();
    let f = fragment(&kernel, &FragmentOptions::with_latency(4)).unwrap();
    let s = schedule_fragments(&f, &FragmentScheduleOptions::default()).unwrap();
    let dp = allocate(&f.spec, &s, &AllocOptions::default());

    // Compare against a single multiplication's datapath: the glue should
    // be well below 2x (sharing kicked in).
    let one =
        Spec::parse("spec one { input a: u8; input b: u8; p1: u16 = a * b; output p1; }").unwrap();
    let k1 = extract(&one).unwrap();
    let f1 = fragment(&k1, &FragmentOptions::with_latency(2)).unwrap();
    let s1 = schedule_fragments(&f1, &FragmentScheduleOptions::default()).unwrap();
    let dp1 = allocate(&f1.spec, &s1, &AllocOptions::default());

    let glue = |d: &bittrans_alloc::Datapath| -> f64 {
        d.binding.glue.iter().map(|c| c.area_gates()).sum()
    };
    assert!(
        glue(&dp) < 1.6 * glue(&dp1),
        "two serialised muls should nearly share one array: {} vs {}",
        glue(&dp),
        glue(&dp1)
    );
}

/// Independent multiplications in overlapping cycles cannot share arrays.
#[test]
fn parallel_multiplications_do_not_share_glue() {
    let spec = Spec::parse(
        "spec par {
            input a: u8; input b: u8; input c1: u8; input d: u8;
            p1: u16 = a * b;
            p2: u16 = c1 * d;
            output p1; output p2; }",
    )
    .unwrap();
    let kernel = extract(&spec).unwrap();
    // λ = 1: both kernels in the same cycle — two full arrays.
    let f = fragment(&kernel, &FragmentOptions::with_latency(1)).unwrap();
    let s = schedule_fragments(&f, &FragmentScheduleOptions::default()).unwrap();
    let dp = allocate(&f.spec, &s, &AllocOptions::default());
    let mux2_16ish =
        dp.binding.glue.iter().filter(|c| matches!(c, bittrans_rtl::Component::Mux { .. })).count();
    assert!(
        mux2_16ish >= 16,
        "two parallel arrays keep both partial-product mux banks: {mux2_16ish}"
    );
}

/// FU sharing across cycles in the conventional flow: a chain of four
/// additions at λ = 4 runs on one adder; at λ = 1 (bit-chained) it needs
/// four.
#[test]
fn fu_count_tracks_concurrency() {
    let spec = Spec::parse(
        "spec chain4 {
            input a: u8; input b: u8; input c1: u8; input d: u8; input e: u8;
            w: u8 = a + b; x: u8 = w + c1; y: u8 = x + d; z: u8 = y + e;
            output z; }",
    )
    .unwrap();
    let serial = schedule_conventional(&spec, &ConventionalOptions::with_latency(4)).unwrap();
    let dp = allocate(&spec, &serial, &AllocOptions::default());
    assert_eq!(dp.binding.fus.len(), 1, "{:?}", dp.binding.fus);

    let chained = schedule_conventional(&spec, &ConventionalOptions::blc(1)).unwrap();
    let dp = allocate(&spec, &chained, &AllocOptions::default());
    assert_eq!(dp.binding.fus.len(), 4);
}

/// The schedule running `spec`'s ops, in order, in `cycles`.
fn schedule_at(spec: &Spec, latency: u32, cycle: u32, cycles: &[u32]) -> Schedule {
    let assignment = spec.ops().iter().zip(cycles).map(|(op, &k)| (op.id(), k));
    Schedule::new(latency, cycle, assignment)
}

/// Register sharing (left-edge): values with disjoint lifetimes share a
/// register; simultaneous live values do not.
#[test]
fn register_left_edge_sharing() {
    // x live [1,2), y live [2,3): share. Both consumed by the final add.
    let spec = Spec::parse(
        "spec regs {
            input a: u8; input b: u8;
            x: u8 = a + b;
            y: u8 = x + a;
            z: u8 = y + b;
            output z; }",
    )
    .unwrap();
    let s = schedule_at(&spec, 3, 8, &[1, 2, 3]);
    let dp = allocate(&spec, &s, &AllocOptions::default());
    assert_eq!(dp.binding.registers.len(), 1, "x and y share one register");
    assert_eq!(dp.binding.registers[0].groups.len(), 2);

    // Now make both x and y live across the same boundary: two registers.
    let spec2 = Spec::parse(
        "spec regs2 {
            input a: u8; input b: u8;
            x: u8 = a + b;
            y: u8 = a - b;
            z: u8 = x + y;
            output z; }",
    )
    .unwrap();
    let s2 = schedule_at(&spec2, 3, 8, &[1, 1, 2]);
    let dp2 = allocate(&spec2, &s2, &AllocOptions::default());
    // x and y are both produced in cycle 1 and read by z in cycle 2: they
    // overlap and need two registers.
    assert_eq!(dp2.binding.registers.len(), 2, "{:?}", dp2.binding.registers);
}

/// The dedicated-origin preference keeps fragments of one source addition
/// on one adder when it costs nothing (the paper's dedicated adders).
#[test]
fn dedicated_adders_for_the_motivational_example() {
    let spec = Spec::parse(
        "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
          C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
    )
    .unwrap();
    let f = fragment(&spec, &FragmentOptions::with_latency(3)).unwrap();
    let s = schedule_fragments(&f, &FragmentScheduleOptions::default()).unwrap();
    let dp = allocate(&f.spec, &s, &AllocOptions::default());
    assert_eq!(dp.binding.fus.len(), 3);
    for fu in &dp.binding.fus {
        // Each unit executes one fragment per cycle for one source op.
        assert_eq!(fu.bound.len(), 3, "{:?}", fu.bound);
    }
}
