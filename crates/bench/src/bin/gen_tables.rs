//! Regenerates every table and figure of the paper and writes both the
//! rendered text (stdout, and `tables.txt`) and machine-readable JSON under
//! `results/`.
//!
//! ```text
//! cargo run --release -p bittrans-bench --bin gen_tables [results-dir]
//! ```
//!
//! `crates/bench/expected/` holds the output directory of a known-good run.

use bittrans_bench as harness;
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir =
        std::env::args().nth(1).map(PathBuf::from).unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&out_dir)?;
    let (text, files) = harness::paper_outputs()?;
    print!("{text}");
    std::fs::write(out_dir.join("tables.txt"), &text)?;
    for (name, json) in files {
        std::fs::write(out_dir.join(name), json)?;
    }
    println!("JSON written to {}", out_dir.display());
    Ok(())
}
