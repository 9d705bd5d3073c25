//! Dense per-bit tables over the values of a spec.

use bittrans_ir::prelude::*;
use std::ops::{Index, IndexMut};

/// One entry per bit of every value of a spec, in one flat `Vec`: the row
/// of a value is its bits, LSB first, starting at that value's offset.
///
/// Indexing by a [`ValueId`] yields the value's row, so `table[v][i]` is
/// bit `i` of `v`. The bit-level passes keep their per-bit state here:
/// arrival and required times ([`BitTimes`](crate::BitTimes)), the
/// scheduler's bit production records and the binder's liveness and
/// last-read tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitTable<T> {
    /// `start[v]..start[v + 1]` is the row of value `v`.
    start: Vec<usize>,
    cells: Vec<T>,
}

impl<T: Clone> BitTable<T> {
    /// A table over every value of `spec` with every bit set to `fill`.
    pub fn filled(spec: &Spec, fill: T) -> Self {
        let mut start = Vec::with_capacity(spec.values().len() + 1);
        let mut end = 0;
        start.push(end);
        for value in spec.values() {
            end += value.width() as usize;
            start.push(end);
        }
        BitTable { start, cells: vec![fill; end] }
    }
}

impl<T: Copy> BitTable<T> {
    /// Bit `i` of `value`, read from the flat table directly. Only the
    /// table's end is checked, so this is for a caller that has bounded
    /// `i` by the value's row itself (the scheduler's placer asserts it
    /// against the committed row length on every read); `table[value][i]`
    /// checks both, which costs the placer a fifth of a baseline schedule.
    pub fn cell(&self, value: ValueId, i: u32) -> T {
        self.cells[self.start[value.index()] + i as usize]
    }
}

impl<T> BitTable<T> {
    /// Every bit of every value, in value order.
    pub fn cells(&self) -> &[T] {
        &self.cells
    }
}

impl<T> Index<ValueId> for BitTable<T> {
    type Output = [T];

    fn index(&self, value: ValueId) -> &[T] {
        let v = value.index();
        &self.cells[self.start[v]..self.start[v + 1]]
    }
}

impl<T> IndexMut<ValueId> for BitTable<T> {
    fn index_mut(&mut self, value: ValueId) -> &mut [T] {
        let v = value.index();
        &mut self.cells[self.start[v]..self.start[v + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_follow_value_widths() {
        let spec =
            Spec::parse("spec s { input a: u3; input b: u5; x: u6 = a + b; output x; }").unwrap();
        let mut table = BitTable::filled(&spec, 0u32);
        let widths: Vec<usize> = spec.values().iter().map(|v| table[v.id()].len()).collect();
        assert_eq!(widths, [3, 5, 6]);
        let x = spec.ops()[0].result();
        table[x][5] = 7;
        assert_eq!(table[x][5], 7);
        assert_eq!(table.cell(x, 5), 7);
        assert_eq!(table.cells().len(), 14);
        assert_eq!(table.cells()[13], 7);
        assert!(table[spec.inputs()[1]].iter().all(|&t| t == 0));
    }
}
