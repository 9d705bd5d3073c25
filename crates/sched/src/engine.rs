//! Shared bit-exact placement engine, private to this crate.
//!
//! Both schedulers place operations cycle by cycle while tracking, for
//! every produced bit, *which cycle it is produced in and at what absolute
//! δ time it settles*. A [`Chaining`] rule says how ops chain within a
//! cycle. Under component-sum chaining an op starts after its latest input
//! bit and takes its full characterised delay (two chained 16-bit adders
//! cost 32δ). Under bit-level chaining, the fragment scheduler's and BLC's
//! rule, the placer times an op with
//! [`bittrans_timing::settle_times`], the same rule arrival times use: a
//! consumer in the same cycle sees the producer's real settle times (the
//! ripple overlap of Fig. 1 e), while a consumer in a later cycle reads
//! registered bits available at its cycle start. Glue is transparent
//! wiring: committing a glue op records each output bit as the latest of
//! the bits it reads, a row at a time
//! ([`bittrans_timing::bitref::gather_max`] over the op's wiring spans).
//!
//! The placer's state is dense: bit production records in one flat
//! [`BitTable`] with a readable width per value, and the cycle assignment
//! and per-cycle usage as `Vec`s indexed by op and by cycle.

use crate::conventional::Chaining;
use crate::SchedError;
use bittrans_ir::prelude::*;
use bittrans_timing::bitref::{gather_max, operand_bit, BitRef};
use bittrans_timing::{is_zero_delay, settle_times, BitTable, Delta};

/// Production record of one bit: the cycle it is produced in (0 = constant
/// or primary input, available always) and its absolute settle time.
/// Records order by cycle, then time: the later of two is the max.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct BitProd {
    /// Producing cycle; 0 means available from the start of any cycle.
    pub cycle: u32,
    /// Absolute settle time in δ.
    pub time: Delta,
}

const CONST_BIT: BitProd = BitProd { cycle: 0, time: 0 };

/// A [`Chaining`] rule with what the placer reads to apply it.
#[derive(Clone, Copy, Debug)]
pub enum Chain<'s> {
    /// [`Chaining::ComponentSum`], charging every op's standalone delay,
    /// by op index ([`op_delays`](crate::conventional::op_delays)).
    ComponentSum(&'s [Delta]),
    /// [`Chaining::BitLevel`].
    BitLevel,
}

impl<'s> Chain<'s> {
    /// `chaining`, reading `delays` when it charges component delays.
    pub fn new(chaining: Chaining, delays: &'s [Delta]) -> Self {
        match chaining {
            Chaining::ComponentSum => Chain::ComponentSum(delays),
            Chaining::BitLevel => Chain::BitLevel,
        }
    }
}

/// Bit-exact incremental placer.
pub struct Placer<'s> {
    spec: &'s Spec,
    /// Cycle duration in δ.
    pub cycle: Delta,
    /// Latency bound in cycles.
    pub latency: u32,
    /// Delay accumulation rule for in-cycle chaining.
    pub chain: Chain<'s>,
    /// Bit production records of inputs and committed results, glue
    /// included. A row is meaningful once `readable` says so; users commit
    /// in topological order, so every bit an op reads already has its
    /// record.
    states: BitTable<BitProd>,
    /// Per value, how many of its bits may be read: the length of its
    /// `states` row once its op is committed (an input's from the start),
    /// 0 before.
    readable: Vec<u32>,
    /// Cycle of every operation by op index; 0 until placed.
    pub assignment: Vec<u32>,
    /// Number of non-glue operations placed per cycle, by cycle (for
    /// balancing; index 0 is unused).
    pub usage: Vec<u32>,
    /// Scratch row a glue op's records are gathered in before commit.
    glue: Vec<BitProd>,
}

impl<'s> Placer<'s> {
    /// Creates an empty placer: inputs are available from cycle start.
    pub fn new(spec: &'s Spec, cycle: Delta, latency: u32, chain: Chain<'s>) -> Self {
        let mut p = Placer {
            spec,
            cycle,
            latency,
            chain,
            states: BitTable::filled(spec, CONST_BIT),
            readable: vec![0; spec.values().len()],
            assignment: vec![0; spec.ops().len()],
            usage: vec![0; latency as usize + 1],
            glue: Vec::new(),
        };
        for &input in spec.inputs() {
            p.mark_readable(input);
        }
        p
    }

    /// Lets every bit of `value`'s row be read.
    fn mark_readable(&mut self, value: ValueId) {
        self.readable[value.index()] = self.states[value].len() as u32;
    }

    /// Start time (absolute δ) of cycle `k` (1-based).
    fn cycle_start(&self, k: u32) -> Delta {
        Delta::from(k - 1) * self.cycle
    }

    /// Effective availability of a produced bit inside cycle `k`:
    /// registered bits appear at cycle start, same-cycle bits at their
    /// settle time, future bits are unavailable.
    fn eff(&self, p: BitProd, k: u32) -> Option<Delta> {
        if p.cycle < k {
            Some(self.cycle_start(k))
        } else if p.cycle == k {
            Some(p.time)
        } else {
            None
        }
    }

    /// The production record of bit `i` of a committed `value`.
    fn prod_of(&self, value: ValueId, i: u32) -> BitProd {
        assert!(i < self.readable[value.index()], "value read before its op was committed");
        // The assert bounds `i` by the value's row.
        self.states.cell(value, i)
    }

    /// Attempts to compute the output settle times of an `op` that takes δ
    /// executed in cycle `k`. Returns `None` if an input bit is not yet
    /// available in `k` or an output bit would settle past the cycle end.
    pub fn try_place(&self, op: &Operation, k: u32) -> Option<Vec<Delta>> {
        debug_assert!(!is_zero_delay(op.kind()));
        let start = self.cycle_start(k);
        let out = match self.chain {
            // Conventional chaining: the whole component starts after its
            // latest input bit and takes its full characterised delay.
            Chain::ComponentSum(delays) => {
                let ready =
                    self.input_prods(op).try_fold(start, |t, p| Some(t.max(self.eff(p, k)?)))?;
                vec![ready + delays[op.id().index()]; op.width() as usize]
            }
            Chain::BitLevel => settle_times(self.spec, op, start, |value, bit| {
                self.eff(self.prod_of(value, bit), k)
            })?,
        };
        if out.iter().any(|&t| t > start + self.cycle) {
            return None;
        }
        Some(out)
    }

    /// Commits `op` to cycle `k` with the settle times returned by
    /// [`Self::try_place`].
    pub fn commit(&mut self, op: &Operation, k: u32, times: Vec<Delta>) {
        debug_assert_eq!(times.len(), op.width() as usize);
        for (p, time) in self.states[op.result()].iter_mut().zip(times) {
            *p = BitProd { cycle: k, time };
        }
        self.mark_readable(op.result());
        self.assignment[op.id().index()] = k;
        self.usage[k as usize] += 1;
    }

    /// Commits an op that takes no δ ([`is_zero_delay`]): each output bit
    /// is the (cycle, time)-latest of the bits it reads, and the op is
    /// assigned (for bookkeeping) to the latest of those cycles, at least 1.
    /// Every wiring span is checked readable up to its top bit.
    pub fn commit_glue(&mut self, op: &Operation) {
        let mut row = std::mem::take(&mut self.glue);
        row.clear();
        row.resize(op.width() as usize, CONST_BIT);
        let (states, readable) = (&self.states, &self.readable);
        gather_max(self.spec, op, &mut row, |value, top| {
            assert!(top < readable[value.index()], "value read before its op was committed");
            &states[value]
        });
        let k = row.iter().map(|p| p.cycle).fold(1, u32::max);
        self.states[op.result()].copy_from_slice(&row);
        self.glue = row;
        self.mark_readable(op.result());
        self.assignment[op.id().index()] = k.min(self.latency.max(1));
    }

    /// The latest producing cycle among `op`'s input bits (0 when every
    /// input is a port or constant) — the earliest cycle the op could
    /// possibly chain in is `max(this, 1)`, and one cycle later every
    /// input is registered.
    pub fn earliest_input_cycle(&self, op: &Operation) -> u32 {
        self.input_prods(op).map(|p| p.cycle).max().unwrap_or(0)
    }

    /// The production records of the value bits `op` reads.
    fn input_prods<'a>(&'a self, op: &'a Operation) -> impl Iterator<Item = BitProd> + 'a {
        op.operands().iter().flat_map(move |operand| {
            (0..self.spec.operand_width(operand)).filter_map(move |j| {
                match operand_bit(self.spec, operand, j, false) {
                    BitRef::Value { value, bit } => Some(self.prod_of(value, bit)),
                    BitRef::Const => None,
                }
            })
        })
    }

    /// Places `op` at the first valid cycle in `lo..=hi`; with `balance`,
    /// at the valid cycle with the least usage (ties to the earliest). The
    /// settle times that validated the chosen cycle are the ones committed.
    ///
    /// # Errors
    ///
    /// [`SchedError::NoFeasibleCycle`] when no cycle in the window works.
    pub fn place_in_window(
        &mut self,
        op: &Operation,
        lo: u32,
        hi: u32,
        balance: bool,
    ) -> Result<u32, SchedError> {
        let mut best: Option<(u32, Vec<Delta>)> = None;
        for k in lo..=hi.min(self.latency) {
            let Some(times) = self.try_place(op, k) else {
                continue;
            };
            match &best {
                Some((b, _)) if self.usage[k as usize] >= self.usage[*b as usize] => {}
                _ => best = Some((k, times)),
            }
            if !balance {
                break;
            }
        }
        let Some((chosen, times)) = best else {
            return Err(SchedError::NoFeasibleCycle { op: op.id(), window: (lo, hi) });
        };
        self.commit(op, chosen, times);
        Ok(chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conventional::op_delays;
    use bittrans_benchmarks::kind_zoo;
    use bittrans_timing::{arrival_times, op_delay_delta};

    fn three_adds() -> Spec {
        Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap()
    }

    #[test]
    fn single_cycle_matches_arrival_times() {
        // `c: u8 = a < b` is one 8-bit `Lt`: its bits above 0 are
        // zero-extension constants, settled at the cycle start, not with
        // the comparison chain.
        let upper = Spec::parse(
            "spec u { input a: u8; input b: u8; c: u8 = a < b; d: u8 = c + a; output d; }",
        )
        .unwrap();
        // Placing every op in cycle 1 of a wide cycle must reproduce the
        // pure dataflow arrival times.
        for spec in [three_adds(), kind_zoo(true), upper.clone()] {
            let arr = arrival_times(&spec);
            let mut p = Placer::new(&spec, 100, 2, Chain::BitLevel);
            for op in spec.ops() {
                if is_zero_delay(op.kind()) {
                    p.commit_glue(op);
                } else {
                    let t = p.try_place(op, 1).unwrap();
                    p.commit(op, 1, t);
                }
                let placed: Vec<Delta> =
                    (0..op.width()).map(|i| p.prod_of(op.result(), i).time).collect();
                assert_eq!(placed, arr.of(op.result()), "{} in {}", op.label(), spec.name());
            }
        }
        let arr = arrival_times(&upper);
        assert_eq!(arr.of(upper.ops()[0].result()), [8, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(arr.of(upper.ops()[1].result()), [9, 10, 11, 12, 13, 14, 15, 16]);

        // Reading only ports, an op's arrival times are its standalone
        // times, and its standalone delay is the latest of them. In cycle 2,
        // reading the registered sum, it settles at the cycle start plus
        // those times.
        let (chained, ports) = (kind_zoo(true), kind_zoo(false));
        let standalone = arrival_times(&ports);
        let mut p = Placer::new(&chained, 100, 2, Chain::BitLevel);
        let (sum, rest) = chained.ops().split_first().unwrap();
        let t = p.try_place(sum, 1).unwrap();
        p.commit(sum, 1, t);
        for (op, alone) in rest.iter().zip(ports.ops()) {
            let times = standalone.of(alone.result());
            let latest = times.iter().copied().max().unwrap();
            assert_eq!(op_delay_delta(&ports, alone), latest, "{}", alone.label());
            if !is_zero_delay(op.kind()) {
                let want: Vec<Delta> = times.iter().map(|t| 100 + t).collect();
                assert_eq!(p.try_place(op, 2).unwrap(), want, "{}", op.label());
            }
        }
    }

    /// Glue rows committed a row at a time equal the latest record of each
    /// bit's sources read one by one, over the kind zoo and random specs
    /// across the fuzz shapes, with their kernels and fragmentations; the
    /// ops that take δ spread over three cycles.
    #[test]
    fn glue_rows_equal_the_per_bit_placer() {
        use bittrans_benchmarks::{random_spec, FUZZ_SHAPES};
        use bittrans_frag::{fragment, FragmentOptions};
        use bittrans_timing::bitref::glue_wires;
        let mut specs = vec![kind_zoo(true), kind_zoo(false)];
        for seed in 0..64 {
            let spec = random_spec(seed, &FUZZ_SHAPES[seed as usize % 4]);
            let kernel = bittrans_kernel::extract(&spec).unwrap();
            for latency in [2, 3, 4, 6] {
                specs.extend(
                    fragment(&kernel, &FragmentOptions::with_latency(latency)).map(|f| f.spec),
                );
            }
            specs.extend([spec, kernel]);
        }
        let mut committed = 0;
        for spec in &specs {
            let cycle = bittrans_timing::critical_path(spec).max(1);
            let mut p = Placer::new(spec, cycle, 3, Chain::BitLevel);
            for op in spec.ops() {
                if !is_zero_delay(op.kind()) {
                    let e0 = p.earliest_input_cycle(op).max(1);
                    p.place_in_window(op, e0, 3, true).unwrap();
                    continue;
                }
                let mut want = vec![CONST_BIT; op.width() as usize];
                glue_wires(spec, op, |wire| {
                    wire.for_each_bit(|i, bit| {
                        let slot = &mut want[i as usize];
                        *slot = (*slot).max(p.prod_of(wire.value(), bit));
                    });
                });
                p.commit_glue(op);
                let got: Vec<BitProd> =
                    (0..op.width()).map(|i| p.prod_of(op.result(), i)).collect();
                assert_eq!(got, want, "{} in `{}`", op.label(), spec.name());
                let k = want.iter().map(|b| b.cycle).max().unwrap_or(0).clamp(1, 3);
                assert_eq!(p.assignment[op.id().index()], k, "{}", op.label());
                committed += 1;
            }
        }
        assert!(committed > 5_000, "only {committed} glue ops");
    }

    #[test]
    #[should_panic(expected = "value read before its op was committed")]
    fn glue_reading_an_uncommitted_value_panics() {
        let spec = Spec::parse(
            "spec s { input a: u8; input b: u8; x: u8 = a + b; n: u8 = ~x; output n; }",
        )
        .unwrap();
        let mut p = Placer::new(&spec, 16, 2, Chain::BitLevel);
        p.commit_glue(&spec.ops()[1]);
    }

    #[test]
    fn registered_inputs_restart_chain() {
        let spec = three_adds();
        let mut p = Placer::new(&spec, 16, 3, Chain::BitLevel);
        let ops = spec.ops();
        let t = p.try_place(&ops[0], 1).unwrap();
        p.commit(&ops[0], 1, t);
        // E in cycle 2 reads registered C: bits settle at 16 + i + 1.
        let t = p.try_place(&ops[1], 2).unwrap();
        assert_eq!(t[0], 17);
        assert_eq!(t[15], 32);
    }

    #[test]
    fn chaining_in_same_cycle_overlaps() {
        let spec = three_adds();
        let mut p = Placer::new(&spec, 18, 1, Chain::BitLevel);
        let ops = spec.ops();
        for op in ops {
            let t = p.try_place(op, 1).unwrap();
            p.commit(op, 1, t);
        }
        // G's msb settles at 18δ — the Fig. 1 e) number.
        let g = &ops[2];
        assert_eq!(p.prod_of(g.result(), 15).time, 18);
    }

    #[test]
    fn rejects_overflowing_cycle() {
        let spec = three_adds();
        let p = Placer::new(&spec, 15, 1, Chain::BitLevel);
        assert!(p.try_place(&spec.ops()[0], 1).is_none(), "16δ add in 15δ cycle");
    }

    #[test]
    fn rejects_future_inputs() {
        let spec = three_adds();
        let mut p = Placer::new(&spec, 16, 3, Chain::BitLevel);
        let ops = spec.ops();
        let t = p.try_place(&ops[0], 2).unwrap();
        p.commit(&ops[0], 2, t);
        assert!(p.try_place(&ops[1], 1).is_none(), "consumer before producer");
        assert_eq!(p.earliest_input_cycle(&ops[1]), 2);
    }

    #[test]
    fn glue_is_transparent_across_cycles() {
        let spec = Spec::parse(
            "spec s { input a: u8; input b: u8;
              x: u8 = a + b;
              n: u8 = ~x;
              y: u8 = n + b;
              output y; }",
        )
        .unwrap();
        let mut p = Placer::new(&spec, 9, 2, Chain::BitLevel);
        let ops = spec.ops();
        let t = p.try_place(&ops[0], 1).unwrap();
        p.commit(&ops[0], 1, t);
        p.commit_glue(&ops[1]);
        // y in cycle 2 sees ~x as registered data at cycle start (9δ).
        let t = p.try_place(&ops[2], 2).unwrap();
        assert_eq!(t[0], 10);
        assert_eq!(p.assignment[ops[1].id().index()], 1);
    }

    #[test]
    fn place_in_window_balances() {
        let spec = Spec::parse(
            "spec s { input a: u8; input b: u8;
              w: u8 = a + b; x: u8 = a + b; y: u8 = a + b; z: u8 = a + b;
              output w; output x; output y; output z; }",
        )
        .unwrap();
        let mut p = Placer::new(&spec, 8, 2, Chain::BitLevel);
        let chosen: Vec<u32> =
            spec.ops().iter().map(|op| p.place_in_window(op, 1, 2, true).unwrap()).collect();
        // The least-used cycle, ties to the earliest.
        assert_eq!(chosen, [1, 2, 1, 2]);
        assert_eq!(p.usage, [0, 2, 2]);
        // Each op committed the settle times of the cycle it was placed in.
        for (op, k) in spec.ops().iter().zip(chosen) {
            assert_eq!(p.prod_of(op.result(), 7), BitProd { cycle: k, time: 8 * k });
        }
    }

    #[test]
    fn component_sum_accumulates_delays() {
        let spec = three_adds();
        let delays = op_delays(&spec);
        let mut p = Placer::new(&spec, 48, 1, Chain::ComponentSum(&delays));
        let ops = spec.ops();
        // Chained in one cycle: finishes at 16, 32, 48 — summed delays.
        let t = p.try_place(&ops[0], 1).unwrap();
        assert!(t.iter().all(|&x| x == 16));
        p.commit(&ops[0], 1, t);
        let t = p.try_place(&ops[1], 1).unwrap();
        assert!(t.iter().all(|&x| x == 32));
        p.commit(&ops[1], 1, t);
        let t = p.try_place(&ops[2], 1).unwrap();
        assert!(t.iter().all(|&x| x == 48));
    }

    #[test]
    fn component_sum_rejects_what_bitlevel_accepts() {
        let spec = three_adds();
        // 18δ is enough for the ripple overlap but not for summed delays.
        let mut bit = Placer::new(&spec, 18, 1, Chain::BitLevel);
        let delays = op_delays(&spec);
        let mut sum = Placer::new(&spec, 18, 1, Chain::ComponentSum(&delays));
        for op in spec.ops() {
            let t = bit.try_place(op, 1).expect("bit-level fits 18δ");
            bit.commit(op, 1, t);
        }
        let t = sum.try_place(&spec.ops()[0], 1).unwrap();
        sum.commit(&spec.ops()[0], 1, t);
        assert!(
            sum.try_place(&spec.ops()[1], 1).is_none(),
            "component-sum cannot chain two 16-bit adds into 18δ"
        );
    }

    #[test]
    #[should_panic(expected = "value read before its op was committed")]
    fn reading_an_uncommitted_value_panics() {
        let spec = three_adds();
        let p = Placer::new(&spec, 16, 3, Chain::BitLevel);
        // E reads C, whose op was never committed.
        p.try_place(&spec.ops()[1], 1);
    }

    #[test]
    fn no_feasible_cycle_error() {
        let spec = three_adds();
        let mut p = Placer::new(&spec, 10, 2, Chain::BitLevel);
        let err = p.place_in_window(&spec.ops()[0], 1, 2, false).unwrap_err();
        assert!(matches!(err, SchedError::NoFeasibleCycle { .. }));
    }
}
