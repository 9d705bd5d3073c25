//! Small specifications that cover the IR rather than model a workload:
//! every op kind, and the generator shapes the fuzzer draws from.

use crate::RandomSpecOptions;
use bittrans_ir::prelude::*;

/// The fuzzer's four generator shapes, case seed `s` taking shape
/// `s % 4`: wide (many inputs, shallow graph, wide operands), deep (few
/// inputs, long dependence chains), mul-heavy, and degenerate (the
/// smallest legal configuration).
pub const FUZZ_SHAPES: [RandomSpecOptions; 4] = [
    RandomSpecOptions { ops: 10, inputs: 8, min_width: 4, max_width: 20, mul_prob: 0.1 },
    RandomSpecOptions { ops: 14, inputs: 2, min_width: 4, max_width: 10, mul_prob: 0.05 },
    RandomSpecOptions { ops: 8, inputs: 4, min_width: 3, max_width: 10, mul_prob: 0.6 },
    RandomSpecOptions { ops: 1, inputs: 1, min_width: 7, max_width: 7, mul_prob: 0.5 },
];

/// One op of every kind, unsigned then signed, each reading `s: u8`,
/// `x: u6`, `ci: u1`, a slice of `s` or a constant; the glue kinds also
/// shift past their width, concatenate constants and reduce into a
/// result wider than one bit. With `chained`, `s = a + b` is the first op
/// (it settles at 1..8δ); without, `s` is an input, and op `i` of this
/// spec is op `i + 1` of the chained one.
pub fn kind_zoo(chained: bool) -> Spec {
    let mut b = SpecBuilder::new("zoo");
    let s = if chained {
        let (a, bb) = (b.input("a", 8), b.input("b", 8));
        b.add("s", a, bb, 8).expect("valid zoo add")
    } else {
        b.input("s", 8)
    };
    let (x, ci) = (Operand::from(b.input("x", 6)), Operand::from(b.input("ci", 1)));
    let (s_hi, s_top) =
        (Operand::slice(s, BitRange::new(3, 5)), Operand::slice(s, BitRange::new(7, 1)));
    let s = Operand::from(s);
    let pair = vec![s.clone(), x.clone()];
    let mut shapes = vec![
        (OpKind::Add, vec![s.clone(), x.clone(), ci.clone()], 9),
        (OpKind::Add, vec![s_hi.clone(), Operand::const_u64(5, 3)], 8),
        (OpKind::Neg, vec![x.clone()], 8),
        (OpKind::Not, vec![x.clone()], 8),
        (OpKind::Lt, pair.clone(), 8),
        (OpKind::Mul, pair.clone(), 14),
        (OpKind::Mux, vec![ci.clone(), s.clone(), x.clone()], 8),
        (OpKind::Shl(2), vec![s.clone()], 10),
        (OpKind::Shr(3), vec![s.clone()], 5),
        (OpKind::Concat, vec![x.clone(), ci.clone()], 7),
        (OpKind::Shl(12), vec![s.clone()], 10),
        (OpKind::Shr(7), vec![s_hi.clone()], 9),
        (OpKind::Concat, vec![Operand::const_u64(2, 2), s_hi.clone(), ci.clone()], 8),
        (OpKind::Mux, vec![s_top, s_hi.clone(), Operand::const_u64(9, 4)], 7),
        (OpKind::Xor, vec![s_hi.clone(), x.clone()], 9),
        (OpKind::RedOr, vec![s_hi], 3),
    ];
    let wide = [OpKind::Sub, OpKind::Max, OpKind::Min, OpKind::And, OpKind::Or, OpKind::Xor];
    shapes.extend(wide.map(|kind| (kind, pair.clone(), 8)));
    let bit = [OpKind::Le, OpKind::Gt, OpKind::Ge, OpKind::Eq, OpKind::Ne];
    shapes.extend(bit.map(|kind| (kind, pair.clone(), 1)));
    shapes.push((OpKind::Eq, vec![x.clone(), Operand::const_u64(5, 6)], 4));
    shapes.extend([OpKind::RedOr, OpKind::RedAnd].map(|kind| (kind, vec![s.clone()], 1)));
    shapes.push((OpKind::Abs, vec![s], 8));
    for signedness in [Signedness::Unsigned, Signedness::Signed] {
        for (kind, operands, width) in &shapes {
            let v = b.op(*kind, operands.clone(), *width, signedness, None).expect("valid zoo op");
            let name = format!("o{}", b.op_count());
            b.output(name, v);
        }
    }
    b.finish().expect("the zoo is valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bittrans_sim::{evaluate, vectors::random_vectors};

    #[test]
    fn the_zoo_has_every_kind_and_simulates() {
        let spec = kind_zoo(true);
        let kinds: std::collections::BTreeSet<String> =
            spec.ops().iter().map(|op| op.kind().mnemonic().to_string()).collect();
        assert_eq!(kinds.len(), 23, "{kinds:?}");
        assert_eq!(spec.ops().len(), 1 + kind_zoo(false).ops().len());
        for iv in random_vectors(&spec, 5, 20) {
            evaluate(&spec, &iv).unwrap();
        }
    }
}
