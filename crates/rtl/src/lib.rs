//! # bittrans-rtl
//!
//! RTL component library with gate-count area and δ-unit delay models.
//!
//! This crate plays the role of the Synopsys Design Compiler reports in the
//! paper: allocation (`bittrans-alloc`) assembles a datapath out of these
//! components, and their calibrated costs produce the area columns of the
//! paper's tables.
//!
//! ## Calibration
//!
//! The gate counts are fitted to the component figures the paper itself
//! reports in Table I:
//!
//! | component | paper | model |
//! |---|---|---|
//! | 16-bit ripple-carry adder | 162 gates | `10.125 · w` → 162 |
//! | 3 × 6-bit ripple-carry adders | 176 gates | 182 (+3 %) |
//! | 16-bit register | 81 gates | `4.667 · w + 6.333` → 81 |
//! | 5 × 1-bit registers | 55 gates | 55 |
//! | 2 × (3:1, 16-bit) + 1 × (2:1, 16-bit) muxes | 176 gates | `(n+1) · w` → 176 |
//! | 6 × (3:1, 6-bit) + 5 × (2:1, 1-bit) muxes | 159 gates | 159 |
//! | 3-state controller | 60–62 gates | `30 · ⌈log₂(states+1)⌉ + 0.1 · signals` |
//!
//! ```
//! use bittrans_rtl::{AdderArch, Component};
//!
//! let adder = Component::adder(AdderArch::RippleCarry, 16);
//! assert_eq!(adder.area_gates().round(), 162.0);
//! assert_eq!(adder.delay_delta(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod netlist;

pub use netlist::{Category, Instance, Netlist};

use std::fmt;

/// Adder micro-architecture, for the paper's closing remark that "big
/// reductions … can also be achieved by using faster and more expensive
/// adders".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum AdderArch {
    /// Ripple-carry: delay `w`δ, the cheapest (the paper's experiments).
    #[default]
    RippleCarry,
    /// Carry-lookahead (4-bit groups): delay `≈ 2·log₂w + 2`, ~1.6× area.
    CarryLookahead,
    /// Carry-select: delay `≈ 2·√w + 2`, ~1.4× area.
    CarrySelect,
}

impl AdderArch {
    /// Delay of a `width`-bit adder in δ (1-bit full-adder delays).
    pub fn delay_delta(self, width: u32) -> u32 {
        match self {
            AdderArch::RippleCarry => width.max(1),
            AdderArch::CarryLookahead => {
                let lg = 32 - u32::leading_zeros(width.max(1).next_power_of_two()) - 1;
                (2 * lg + 2).min(width.max(1))
            }
            AdderArch::CarrySelect => {
                let sqrt = (f64::from(width.max(1))).sqrt().ceil() as u32;
                (2 * sqrt + 2).min(width.max(1))
            }
        }
    }

    /// Area multiplier relative to ripple-carry.
    pub fn area_factor(self) -> f64 {
        match self {
            AdderArch::RippleCarry => 1.0,
            AdderArch::CarryLookahead => 1.6,
            AdderArch::CarrySelect => 1.4,
        }
    }

    /// The stable short code (`rca` | `cla` | `csel`) used by the CLI
    /// flags, VHDL entity names and shard requests — the single
    /// source of truth for the textual form of this enum.
    pub fn code(self) -> &'static str {
        match self {
            AdderArch::RippleCarry => "rca",
            AdderArch::CarryLookahead => "cla",
            AdderArch::CarrySelect => "csel",
        }
    }

    /// Parses an [`AdderArch::code`] string.
    pub fn from_code(code: &str) -> Option<Self> {
        match code {
            "rca" => Some(AdderArch::RippleCarry),
            "cla" => Some(AdderArch::CarryLookahead),
            "csel" => Some(AdderArch::CarrySelect),
            _ => None,
        }
    }
}

impl fmt::Display for AdderArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdderArch::RippleCarry => write!(f, "ripple-carry"),
            AdderArch::CarryLookahead => write!(f, "carry-lookahead"),
            AdderArch::CarrySelect => write!(f, "carry-select"),
        }
    }
}

/// Bitwise glue gate families, with per-bit gate-equivalent costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GateKind {
    /// Inverter, 0.5 gates/bit.
    Not,
    /// AND/OR, 1.5 gates/bit.
    AndOr,
    /// XOR/XNOR, 2.5 gates/bit.
    Xor,
}

impl GateKind {
    /// Gate-equivalents per bit.
    pub fn gates_per_bit(self) -> f64 {
        match self {
            GateKind::Not => 0.5,
            GateKind::AndOr => 1.5,
            GateKind::Xor => 2.5,
        }
    }
}

/// One datapath or controller component.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// An adder functional unit.
    Adder {
        /// Micro-architecture.
        arch: AdderArch,
        /// Width in bits.
        width: u32,
    },
    /// A clocked register.
    Register {
        /// Width in bits.
        width: u32,
    },
    /// An array multiplier (used only by the conventional baseline; the
    /// optimised flow decomposes multiplications into adder fragments).
    Multiplier {
        /// First operand width.
        a_width: u32,
        /// Second operand width.
        b_width: u32,
    },
    /// An `inputs`-to-1 multiplexer.
    Mux {
        /// Number of selectable inputs (≥ 2).
        inputs: u32,
        /// Width in bits.
        width: u32,
    },
    /// Bitwise glue logic.
    Gate {
        /// Gate family.
        kind: GateKind,
        /// Width in bits.
        width: u32,
    },
    /// The FSM controller.
    Controller {
        /// Number of states (= schedule latency).
        states: u32,
        /// Number of control signals driven (mux selects, register
        /// enables).
        signals: u32,
    },
}

impl Component {
    /// Convenience constructor for adders.
    pub fn adder(arch: AdderArch, width: u32) -> Self {
        Component::Adder { arch, width }
    }

    /// Gate-equivalent area of the component (Table I calibration; see the
    /// crate docs).
    pub fn area_gates(&self) -> f64 {
        match *self {
            Component::Adder { arch, width } => 10.125 * f64::from(width) * arch.area_factor(),
            Component::Multiplier { a_width, b_width } => {
                // One full-adder-plus-AND cell per partial-product bit.
                11.0 * f64::from(a_width) * f64::from(b_width)
            }
            Component::Register { width } => 4.667 * f64::from(width) + 6.333,
            Component::Mux { inputs, width } => f64::from(inputs + 1) * f64::from(width),
            Component::Gate { kind, width } => kind.gates_per_bit() * f64::from(width),
            Component::Controller { states, signals } => {
                let state_bits = f64::from(states + 1).log2().ceil().max(1.0);
                30.0 * state_bits + 0.1 * f64::from(signals)
            }
        }
    }

    /// Combinational delay through the component in δ units (registers:
    /// clock-to-q treated as the cycle overhead of the timing model, 0
    /// here; controller: not on the datapath).
    pub fn delay_delta(&self) -> u32 {
        match *self {
            Component::Adder { arch, width } => arch.delay_delta(width),
            Component::Multiplier { a_width, b_width } => {
                a_width.max(b_width) + 2 * a_width.min(b_width)
            }
            Component::Register { .. } | Component::Controller { .. } => 0,
            Component::Mux { .. } | Component::Gate { .. } => 0,
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Component::Adder { arch, width } => write!(f, "{arch} adder ⊕{width}"),
            Component::Multiplier { a_width, b_width } => {
                write!(f, "multiplier {a_width}x{b_width}")
            }
            Component::Register { width } => write!(f, "register {width}b"),
            Component::Mux { inputs, width } => write!(f, "mux {inputs}:1 {width}b"),
            Component::Gate { kind, width } => write!(f, "{kind:?} glue {width}b"),
            Component::Controller { states, signals } => {
                write!(f, "controller {states} states / {signals} signals")
            }
        }
    }
}

/// Datapath area broken down the way the paper's Table I reports it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AreaReport {
    /// Functional units (adders) in gate-equivalents.
    pub fu: f64,
    /// Storage (registers).
    pub registers: f64,
    /// Interconnect (muxes) plus glue logic.
    pub routing: f64,
    /// FSM controller.
    pub controller: f64,
}

impl AreaReport {
    /// Total gates.
    pub fn total(&self) -> f64 {
        self.fu + self.registers + self.routing + self.controller
    }

    /// Relative change against a baseline, in percent (positive = larger).
    pub fn delta_pct(&self, baseline: &AreaReport) -> f64 {
        (self.total() - baseline.total()) / baseline.total() * 100.0
    }
}

impl fmt::Display for AreaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FU {:.0} + reg {:.0} + routing {:.0} + ctrl {:.0} = {:.0} gates",
            self.fu,
            self.registers,
            self.routing,
            self.controller,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_adder_calibration() {
        let a16 = Component::adder(AdderArch::RippleCarry, 16);
        assert_eq!(a16.area_gates().round(), 162.0);
        // Three 6-bit adders: paper 176, model within 4 %.
        let a6 = Component::adder(AdderArch::RippleCarry, 6);
        let three = 3.0 * a6.area_gates();
        assert!((three - 176.0).abs() / 176.0 < 0.04, "{three}");
    }

    #[test]
    fn table1_register_calibration() {
        let r16 = Component::Register { width: 16 };
        assert!((r16.area_gates() - 81.0).abs() < 1.0, "{}", r16.area_gates());
        let r1 = Component::Register { width: 1 };
        assert!((5.0 * r1.area_gates() - 55.0).abs() < 0.1);
    }

    #[test]
    fn table1_mux_calibration() {
        // Original datapath: 2 × 3:1 + 1 × 2:1, all 16-bit → 176 gates.
        let m3 = Component::Mux { inputs: 3, width: 16 };
        let m2 = Component::Mux { inputs: 2, width: 16 };
        assert_eq!(2.0 * m3.area_gates() + m2.area_gates(), 176.0);
        // Optimized datapath: 6 × 3:1 6-bit + 5 × 2:1 1-bit → 159 gates.
        let m3s = Component::Mux { inputs: 3, width: 6 };
        let m2s = Component::Mux { inputs: 2, width: 1 };
        assert_eq!(6.0 * m3s.area_gates() + 5.0 * m2s.area_gates(), 159.0);
    }

    #[test]
    fn table1_controller_calibration() {
        let three_state = Component::Controller { states: 3, signals: 6 };
        assert!((three_state.area_gates() - 60.0).abs() < 3.0);
        let one_state = Component::Controller { states: 1, signals: 2 };
        assert!((one_state.area_gates() - 32.0).abs() < 3.0);
    }

    #[test]
    fn adder_arch_delays() {
        assert_eq!(AdderArch::RippleCarry.delay_delta(16), 16);
        let cla = AdderArch::CarryLookahead.delay_delta(16);
        assert!(cla < 16, "CLA must beat ripple: {cla}");
        let csel = AdderArch::CarrySelect.delay_delta(16);
        assert!(csel < 16, "carry-select must beat ripple: {csel}");
        // Tiny adders never get slower than ripple.
        for w in 1..=4 {
            assert!(AdderArch::CarryLookahead.delay_delta(w) <= w.max(1));
        }
    }

    #[test]
    fn faster_adders_cost_more() {
        let rc = Component::adder(AdderArch::RippleCarry, 16).area_gates();
        let cla = Component::adder(AdderArch::CarryLookahead, 16).area_gates();
        let csel = Component::adder(AdderArch::CarrySelect, 16).area_gates();
        assert!(cla > rc && csel > rc && cla > csel);
    }

    #[test]
    fn glue_costs() {
        assert_eq!(Component::Gate { kind: GateKind::Not, width: 8 }.area_gates(), 4.0);
        assert_eq!(Component::Gate { kind: GateKind::AndOr, width: 8 }.area_gates(), 12.0);
        assert_eq!(Component::Gate { kind: GateKind::Xor, width: 8 }.area_gates(), 20.0);
    }

    #[test]
    fn area_report_totals() {
        let a = AreaReport { fu: 100.0, registers: 50.0, routing: 30.0, controller: 20.0 };
        assert_eq!(a.total(), 200.0);
        let b = AreaReport { fu: 110.0, registers: 50.0, routing: 30.0, controller: 30.0 };
        assert!((b.delta_pct(&a) - 10.0).abs() < 1e-9);
        assert!(a.to_string().contains("200 gates"));
    }

    #[test]
    fn multiplier_costs() {
        let m = Component::Multiplier { a_width: 16, b_width: 16 };
        assert_eq!(m.area_gates(), 11.0 * 256.0);
        assert_eq!(m.delay_delta(), 48);
        assert!(m.to_string().contains("16x16"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Component::adder(AdderArch::RippleCarry, 6).to_string(),
            "ripple-carry adder ⊕6"
        );
        assert!(Component::Register { width: 4 }.to_string().contains("register"));
    }
}
