//! Canonical tokens for an [`AreaReport`] — the alloc-crate part of the
//! workspace-wide artifact encoding rooted in [`bittrans_ir::canonical`].
//! (`bittrans-rtl` has no dependencies, so the helpers for its type live
//! here, one crate up, where `bittrans-core`'s `Implementation` codec
//! reuses them.)
//!
//! Area figures are bit-exact `f64` hex (16 digits), the same convention
//! the engine's cache keys use.

use bittrans_ir::canonical::{f64_from_hex, f64_to_hex};
use bittrans_rtl::AreaReport;

/// Encodes an [`AreaReport`] as four bit-exact `f64` hex tokens.
pub fn area_tokens(area: &AreaReport) -> String {
    format!(
        "{} {} {} {}",
        f64_to_hex(area.fu),
        f64_to_hex(area.registers),
        f64_to_hex(area.routing),
        f64_to_hex(area.controller),
    )
}

/// Reverses [`area_tokens`] (given the four already-split tokens).
///
/// # Errors
///
/// A message when a token is not a 16-digit hex bit pattern.
pub fn area_from_tokens(tokens: &[&str]) -> Result<AreaReport, String> {
    if tokens.len() != 4 {
        return Err(format!("expected 4 area tokens, got {}", tokens.len()));
    }
    Ok(AreaReport {
        fu: f64_from_hex(tokens[0])?,
        registers: f64_from_hex(tokens[1])?,
        routing: f64_from_hex(tokens[2])?,
        controller: f64_from_hex(tokens[3])?,
    })
}
