//! Technology cards: bundled device parameters playing the role of a PDK.
//!
//! The values are synthetic but calibrated to public 45 nm-class numbers
//! (PTM-HP-like transistors, HZO FeFET measurements from the published
//! literature): I_on ≈ 100 µA for a minimum NMOS at 0.8 V, I_on/I_off > 10⁵,
//! FeFET memory window ≈ 1 V with ±4 V / ~10 ns programming.

use crate::fefet::FeFetParams;
use crate::ferro::FerroParams;
use crate::mosfet::{MosfetParams, Polarity};
use crate::reram::ReramParams;

/// A bundle of device cards for one technology node.
#[derive(Debug, Clone, PartialEq)]
pub struct TechCard {
    /// Nominal supply voltage (volts).
    pub vdd: f64,
    /// FeFET programming voltage magnitude (volts).
    pub vprog: f64,
    /// Minimum-size NMOS card.
    pub nmos: MosfetParams,
    /// Minimum-size PMOS card.
    pub pmos: MosfetParams,
    /// FeFET card.
    pub fefet: FeFetParams,
    /// ReRAM card for the 2T-2R baseline.
    pub reram: ReramParams,
}

impl TechCard {
    /// 45 nm high-performance card (the evaluation default).
    pub fn hp45() -> Self {
        let nmos = MosfetParams {
            polarity: Polarity::Nmos,
            vth: 0.40,
            n: 1.3,
            kp: 420e-6,
            width: 100e-9,
            length: 50e-9,
            lambda: 0.10,
            vt: 0.025852,
            cox: 0.015,   // F/m² (≈ 15 fF/µm² effective)
            cov: 0.35e-9, // F/m  (≈ 0.35 fF/µm)
            cj: 0.6e-9,   // F/m  (≈ 0.6 fF/µm)
        };
        let pmos = MosfetParams {
            polarity: Polarity::Pmos,
            vth: 0.42,
            kp: 190e-6,
            width: 150e-9,
            ..nmos.clone()
        };
        let fe_mosfet = MosfetParams {
            vth: 0.70, // mid-window threshold
            width: 100e-9,
            length: 60e-9,
            ..nmos.clone()
        };
        let fefet = FeFetParams {
            fe_area: fe_mosfet.width * fe_mosfet.length,
            mosfet: fe_mosfet,
            ferro: FerroParams::default(),
            memory_window: 1.1,
            remanent_polarization: 0.20, // 20 µC/cm²
            fe_coupling: 0.85,
        };
        Self {
            vdd: 0.8,
            vprog: 4.0,
            nmos,
            pmos,
            fefet,
            reram: ReramParams::default(),
        }
    }

    /// Low-power variant: higher thresholds, lower leakage, VDD 0.7 V.
    pub fn lp45() -> Self {
        let mut card = Self::hp45();
        card.vdd = 0.7;
        card.nmos.vth = 0.50;
        card.pmos.vth = 0.52;
        card.nmos.kp = 330e-6;
        card.pmos.kp = 150e-6;
        card
    }

    /// Returns this card re-evaluated at the given temperature.
    ///
    /// First-order temperature dependences standard for compact models:
    /// thermal voltage `kT/q`, threshold voltage −1 mV/K, and mobility
    /// (through `k'`) scaling as `(T/T₀)^−1.5`. The cards' nominal
    /// temperature is 27 °C; `temperature_c` is in °C.
    ///
    /// # Examples
    ///
    /// ```
    /// use ftcam_devices::{Mosfet, TechCard};
    ///
    /// let hot = TechCard::hp45().at_temperature(85.0);
    /// let cold = TechCard::hp45();
    /// // Leakage grows steeply with temperature.
    /// let (ioff_hot, _, _) = Mosfet::channel_currents(&hot.nmos, 0.0, hot.vdd);
    /// let (ioff_cold, _, _) = Mosfet::channel_currents(&cold.nmos, 0.0, cold.vdd);
    /// assert!(ioff_hot > 5.0 * ioff_cold);
    /// ```
    pub fn at_temperature(&self, temperature_c: f64) -> Self {
        const NOMINAL_C: f64 = 27.0;
        let t_kelvin = temperature_c + 273.15;
        let ratio = t_kelvin / (NOMINAL_C + 273.15);
        let dvth = -1.0e-3 * (temperature_c - NOMINAL_C);
        // kT/q: Boltzmann constant (J/K) over the elementary charge (C).
        let vt = 1.380_649e-23 * t_kelvin / 1.602_176_634e-19;
        let adjust = |m: &MosfetParams| MosfetParams {
            vt,
            vth: m.vth + dvth,
            kp: m.kp * ratio.powf(-1.5),
            ..m.clone()
        };
        let mut card = self.clone();
        card.nmos = adjust(&self.nmos);
        card.pmos = adjust(&self.pmos);
        card.fefet.mosfet = adjust(&self.fefet.mosfet);
        card
    }
}

impl Default for TechCard {
    fn default() -> Self {
        Self::hp45()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::Mosfet;

    #[test]
    fn hp45_on_off_targets() {
        let card = TechCard::hp45();
        let (ion, _, _) = Mosfet::channel_currents(&card.nmos, card.vdd, card.vdd);
        let (ioff, _, _) = Mosfet::channel_currents(&card.nmos, 0.0, card.vdd);
        assert!(ion > 50e-6 && ion < 300e-6, "NMOS I_on = {ion:.3e}");
        assert!(ioff < 1e-9, "NMOS I_off = {ioff:.3e}");
    }

    #[test]
    fn lp45_leaks_less_than_hp45() {
        let hp = TechCard::hp45();
        let lp = TechCard::lp45();
        let (ioff_hp, _, _) = Mosfet::channel_currents(&hp.nmos, 0.0, hp.vdd);
        let (ioff_lp, _, _) = Mosfet::channel_currents(&lp.nmos, 0.0, lp.vdd);
        assert!(ioff_lp < ioff_hp / 5.0);
    }

    #[test]
    fn fefet_low_vth_conducts_at_vdd() {
        let card = TechCard::hp45();
        assert!(card.fefet.vth_low() < card.vdd - 0.3);
        assert!(card.fefet.vth_high() > card.vdd + 0.2);
    }

    #[test]
    fn temperature_shifts_threshold_and_vt() {
        let nominal = TechCard::hp45();
        let hot = nominal.at_temperature(127.0);
        assert!((hot.nmos.vth - (nominal.nmos.vth - 0.1)).abs() < 1e-9);
        assert!(hot.nmos.vt > nominal.nmos.vt * 1.2);
        assert!(hot.nmos.kp < nominal.nmos.kp);
        // Nominal temperature is the identity.
        let same = nominal.at_temperature(27.0);
        assert!((same.nmos.vth - nominal.nmos.vth).abs() < 1e-12);
        // kT/q at 300.15 K.
        assert!(
            same.nmos.vt > 0.0258 && same.nmos.vt < 0.0261,
            "vt = {}",
            same.nmos.vt
        );
    }
}
