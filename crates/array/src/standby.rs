//! Standby power and non-volatility model.
//!
//! "Energy-aware" is not only search energy: a TCAM spends most of its life
//! idle. Volatile (SRAM-based) arrays must stay powered to retain content,
//! burning subthreshold leakage continuously; non-volatile arrays can be
//! power-gated to essentially zero and woken on demand. This module
//! quantifies that axis per design.
//!
//! Cell retention leakage is computed from the device cards (the row
//! testbench pins SRAM internals, so internal SRAM leakage must come from
//! the card, not from simulation): each 6T SRAM cell has two
//! cross-coupled inverters, i.e. two off transistors conducting
//! subthreshold current from rail to rail, plus two off access transistors.

use ftcam_cells::DesignKind;
use ftcam_devices::{Mosfet, TechCard};

/// Retention behaviour of a design's storage element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Content is lost on power-down; the array must stay powered.
    Volatile,
    /// Content survives power-down; the array can be gated off when idle.
    NonVolatile,
}

/// Standby figures for one design in one technology.
#[derive(Debug, Clone, PartialEq)]
pub struct StandbyProfile {
    /// The design.
    pub kind: DesignKind,
    /// Retention class.
    pub retention: Retention,
    /// Standby power per cell with data retained (watts).
    pub power_per_cell: f64,
    /// Standby power per cell when the array may be power-gated (watts);
    /// zero for non-volatile designs, equal to `power_per_cell` otherwise.
    pub gated_power_per_cell: f64,
    /// Wake-up latency from the gated state (seconds).
    pub wakeup_latency: f64,
}

impl StandbyProfile {
    /// Computes the profile for a design on a card.
    pub fn of(kind: DesignKind, card: &TechCard) -> Self {
        let (ioff_n, _, _) = Mosfet::channel_currents(&card.nmos, 0.0, card.vdd);
        let (ioff_p, _, _) = Mosfet::channel_currents(&card.pmos, 0.0, card.vdd);
        // One held inverter: exactly one of the two devices is off and
        // leaks V_DD across itself.
        let inverter_leak = 0.5 * (ioff_n + ioff_p) * card.vdd;
        match kind {
            DesignKind::Cmos16T => {
                // 4 inverters (two 6T cells) + 4 off access + 4 off compare
                // transistors; access/compare leak between intermediate
                // levels — count half weight.
                let p = 4.0 * inverter_leak + 8.0 * 0.5 * ioff_n * card.vdd;
                Self {
                    kind,
                    retention: Retention::Volatile,
                    power_per_cell: p,
                    gated_power_per_cell: p,
                    wakeup_latency: 0.0,
                }
            }
            DesignKind::Rram2T2R => Self {
                kind,
                retention: Retention::NonVolatile,
                // Two off access transistors while powered.
                power_per_cell: 2.0 * 0.5 * ioff_n * card.vdd,
                gated_power_per_cell: 0.0,
                // Re-precharge one array after power-up.
                wakeup_latency: 5e-9,
            },
            DesignKind::FeFet2T
            | DesignKind::EaLowSwing
            | DesignKind::EaSlGated
            | DesignKind::EaMlSegmented
            | DesignKind::EaFull => {
                let fefet_off = {
                    let off_card = ftcam_devices::MosfetParams {
                        vth: card.fefet.vth_high(),
                        ..card.fefet.mosfet.clone()
                    };
                    let (i, _, _) = Mosfet::channel_currents(&off_card, 0.0, card.vdd);
                    i
                };
                Self {
                    kind,
                    retention: Retention::NonVolatile,
                    power_per_cell: 2.0 * 0.5 * fefet_off * card.vdd,
                    gated_power_per_cell: 0.0,
                    wakeup_latency: 5e-9,
                }
            }
        }
    }

    /// Standby power of an `rows × width` array with data retained (watts).
    pub fn array_power(&self, rows: usize, width: usize) -> f64 {
        self.power_per_cell * (rows * width) as f64
    }

    /// Standby power when the idle array may be gated (watts).
    pub fn gated_array_power(&self, rows: usize, width: usize) -> f64 {
        self.gated_power_per_cell * (rows * width) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmos_is_volatile_and_leaks() {
        let p = StandbyProfile::of(DesignKind::Cmos16T, &TechCard::hp45());
        assert_eq!(p.retention, Retention::Volatile);
        assert!(
            p.power_per_cell > 1e-13,
            "leakage {:.3e} W",
            p.power_per_cell
        );
        assert_eq!(p.power_per_cell, p.gated_power_per_cell);
    }

    #[test]
    fn fefet_gates_to_zero() {
        let p = StandbyProfile::of(DesignKind::FeFet2T, &TechCard::hp45());
        assert_eq!(p.retention, Retention::NonVolatile);
        assert_eq!(p.gated_power_per_cell, 0.0);
        assert!(p.wakeup_latency > 0.0);
        // Even ungated, the high-V_th FeFET pair leaks far less than SRAM.
        let cmos = StandbyProfile::of(DesignKind::Cmos16T, &TechCard::hp45());
        assert!(p.power_per_cell < cmos.power_per_cell / 100.0);
    }

    #[test]
    fn array_power_scales_with_bits() {
        let p = StandbyProfile::of(DesignKind::Cmos16T, &TechCard::hp45());
        let small = p.array_power(64, 64);
        let big = p.array_power(256, 64);
        assert!((big / small - 4.0).abs() < 1e-9);
    }

    #[test]
    fn low_power_card_leaks_less() {
        let hp = StandbyProfile::of(DesignKind::Cmos16T, &TechCard::hp45());
        let lp = StandbyProfile::of(DesignKind::Cmos16T, &TechCard::lp45());
        assert!(lp.power_per_cell < hp.power_per_cell / 3.0);
    }
}
