//! The paper's §2 motivational example, end to end: three chained 16-bit
//! additions synthesised three ways (Figs. 1–2 and Table I), with the
//! transformed specification emitted as VHDL like the paper's Fig. 2 a).
//!
//! ```text
//! cargo run --release --example motivational
//! ```

use bittrans::benchmarks::three_adds;
use bittrans::core::report::render_table1;
use bittrans::ir::vhdl;
use bittrans::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = three_adds();
    println!("Fig. 1 a) original specification (VHDL):\n");
    println!("{}", vhdl::emit(&spec));

    let options = CompareOptions::default();

    // Fig. 1 b): conventional schedule, one addition per 16δ cycle.
    let conv = baseline(&spec, 3, &options)?;
    println!(
        "Fig. 1 b) conventional schedule ({}δ = {:.2} ns cycle):\n{}",
        conv.schedule.cycle,
        conv.implementation.cycle_ns,
        conv.schedule.render(&spec)
    );

    // Fig. 1 d): everything chained in one cycle (BLC prior art).
    let chained = blc(&spec, 1, &options)?;
    println!(
        "Fig. 1 d) chained schedule ({}δ = {:.2} ns cycle):\n{}",
        chained.schedule.cycle,
        chained.implementation.cycle_ns,
        chained.schedule.render(&spec)
    );

    // Fig. 2: the optimized flow. Every addition splits into three
    // fragments; one fragment of each original addition runs per cycle.
    let opt = optimize(&spec, 3, &options)?;
    println!(
        "Fig. 2 b) fragment schedule ({}δ = {:.2} ns cycle):\n{}",
        opt.schedule.cycle,
        opt.implementation.cycle_ns,
        opt.schedule.render(&opt.fragmented.spec)
    );
    for (source, ids) in &opt.fragmented.per_source {
        let widths: Vec<String> =
            ids.iter().map(|id| opt.fragmented.fragments[id].range.width().to_string()).collect();
        println!("  {} fragments: {} bits", opt.kernel.op(*source).label(), widths.join("/"));
    }

    // Fig. 2 c): the bit waves computed in every cycle.
    println!(
        "\nFig. 2 c) bit waves:\n{}",
        bittrans::frag::render::render_waves(&opt.fragmented, &opt.kernel, |op| {
            opt.schedule.cycle_of(op)
        })
    );

    println!("\nFig. 2 a) transformed specification (VHDL):\n");
    println!("{}", vhdl::emit(&opt.fragmented.spec));

    println!("Table I:\n");
    println!(
        "{}",
        render_table1(&[
            ("Fig 1b conv", &conv.implementation),
            ("Fig 1d BLC", &chained.implementation),
            ("Optimized", &opt.implementation),
        ])
    );
    println!(
        "stored bits in the optimized datapath: {} (the paper: \"just C5 \
         and E4 plus the 3 carry outs\")",
        opt.datapath.binding.stored_bits
    );
    Ok(())
}
