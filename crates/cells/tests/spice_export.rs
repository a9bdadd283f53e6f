//! The exported SPICE deck of a testbench is structurally sound.

use ftcam_cells::{DesignKind, RowTestbench};
use ftcam_devices::TechCard;

fn deck(kind: DesignKind, width: usize) -> String {
    let mut row = RowTestbench::new(
        kind.instantiate(),
        TechCard::hp45(),
        Default::default(),
        width,
    )
    .expect("testbench builds");
    let word: ftcam_workloads::TernaryWord = ftcam_workloads::TernaryWord::from_bits(0b1010, width);
    row.program_word(&word).expect("programs");
    row.to_spice()
}

#[test]
fn fefet_deck_contains_cells_drivers_and_rails() {
    let deck = deck(DesignKind::FeFet2T, 4);
    assert!(deck.contains("Vpin_VPRE0"));
    assert!(deck.contains("Vpin_SL0"));
    assert!(deck.contains("Vpin_SLB3"));
    // 8 FeFETs as subcircuit calls.
    assert_eq!(deck.matches("FEFET_MFIS").count(), 8);
    // Driver resistors for every line (sl and slb separately).
    let slb = deck.lines().filter(|l| l.starts_with("Rr_slb")).count();
    let sl = deck.lines().filter(|l| l.starts_with("Rr_sl")).count() - slb;
    assert_eq!(sl, 4);
    assert_eq!(slb, 4);
    assert!(deck.contains("Cc_ml_wire0"));
    assert!(deck.trim_end().ends_with(".end"));
}

#[test]
fn cmos_deck_emits_mosfets_with_models() {
    let deck = deck(DesignKind::Cmos16T, 2);
    // 4 compare transistors per cell + precharge PMOS.
    assert_eq!(deck.matches("\n.model MOD_").count(), 2 * 4 + 1);
    assert!(deck.contains("NMOS(VTO="));
    assert!(deck.contains("PMOS(VTO="));
    // SRAM rails are pinned sources.
    assert!(deck.contains("Vpin_D0"));
    assert!(deck.contains("Vpin_DB1"));
}

#[test]
fn decks_grow_with_width_and_stay_line_oriented() {
    let d4 = deck(DesignKind::FeFet2T, 4);
    let mut row = RowTestbench::new(
        DesignKind::FeFet2T.instantiate(),
        TechCard::hp45(),
        Default::default(),
        8,
    )
    .unwrap();
    row.program_word(&"10101010".parse().unwrap()).unwrap();
    let d8 = row.to_spice();
    assert!(d8.lines().count() > d4.lines().count());
    // No empty device lines.
    assert!(d8.lines().all(|l| !l.trim_end().is_empty() || l.is_empty()));
}

/// FNV-1a (64-bit) of a string: a stable fingerprint for netlist decks.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every row netlist (node and device order, names, values, programmed
/// state) is pinned to a recorded fingerprint, so a change to the
/// testbench builder cannot silently move any row-level number.
#[test]
fn row_netlists_match_recorded_fingerprints() {
    let pinned = [
        (DesignKind::Cmos16T, 8, 0x116f_d2ba_ed23_2412_u64),
        (DesignKind::Rram2T2R, 8, 0x738c_d389_3263_7538),
        (DesignKind::FeFet2T, 8, 0xc3d6_9621_b67b_710d),
        (DesignKind::EaLowSwing, 8, 0x9621_e7bc_5d91_d75e),
        (DesignKind::EaSlGated, 8, 0x41e5_3a04_bf39_16f2),
        (DesignKind::EaMlSegmented, 8, 0xc8b7_758d_a767_6695),
        (DesignKind::EaFull, 8, 0x6b79_6b28_03c4_7b8f),
        (DesignKind::EaMlSegmented, 16, 0x835a_b164_4efb_49ca),
    ];
    for (kind, width, want) in pinned {
        let mut row = RowTestbench::new(
            kind.instantiate(),
            TechCard::hp45(),
            Default::default(),
            width,
        )
        .expect("testbench builds");
        let word = if width == 8 {
            "10X1X010"
        } else {
            "10X1X0101X0X1100"
        };
        row.program_word(&word.parse().unwrap()).expect("programs");
        let got = fnv1a(&row.to_spice());
        assert_eq!(
            got,
            want,
            "{} width {width}: netlist fingerprint 0x{got:016x}",
            kind.key()
        );
    }
}
