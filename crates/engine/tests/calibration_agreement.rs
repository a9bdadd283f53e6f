//! Round-trip agreement between the engine's calibration-exported cost
//! model and the circuit-level experiments it mirrors:
//!
//! * **fig. 6** — engine row energy for `k` spread mismatches at 64 bits
//!   vs the transistor-level measurement, within 5 % for `fefet2t`,
//!   `ea-ls` and `ea-mls`;
//! * **fig. 9** — engine exact-metered replay average vs
//!   `ArrayModel::average_search_energy` on the same workload, to
//!   floating-point accumulation tolerance;
//! * sampled metering vs exact metering, within 15 %.

use ftcam_array::{ArrayModel, ArrayParams};
use ftcam_cells::DesignKind;
use ftcam_core::{experiments::e06_energy_hamming, Artifact, Evaluator};
use ftcam_engine::{CostModel, EngineConfig, Metering, WorkloadReplay};
use ftcam_workloads::{IpRoutingWorkloadParams, Ternary, TernaryWord};

/// The fig. 6 stored word: a definite alternating pattern — identical to
/// both the e06 driver's and the calibration's reference word.
fn alternating(width: usize) -> TernaryWord {
    (0..width)
        .map(|i| {
            if i % 2 == 0 {
                Ternary::One
            } else {
                Ternary::Zero
            }
        })
        .collect()
}

#[test]
fn engine_row_energy_matches_fig6_within_5_percent() {
    const WIDTH: usize = 64;
    const TOLERANCE: f64 = 0.05;
    let designs = [
        DesignKind::FeFet2T,
        DesignKind::EaLowSwing,
        DesignKind::EaMlSegmented,
    ];
    let ks = vec![0usize, 1, 2, 4, 8, 16, 32, 64];
    let eval = Evaluator::quick();
    let params = e06_energy_hamming::Params {
        width: WIDTH,
        mismatch_counts: ks.clone(),
        designs: designs.to_vec(),
    };
    let Artifact::Figure(fig) = e06_energy_hamming::run(&eval, &params).expect("fig6 runs") else {
        panic!("expected figure")
    };
    let stored = alternating(WIDTH);
    for (series, &kind) in fig.series.iter().zip(&designs) {
        assert_eq!(series.name, kind.key());
        let calib = eval
            .calibrations()
            .get(kind, WIDTH)
            .expect("calibration available");
        let cost = CostModel::from_calibration(kind, &calib, 64);
        for (&k, &measured_fj) in ks.iter().zip(&series.y) {
            let query = stored.with_spread_mismatches(k);
            let engine_fj = cost.positional_row_energy(&stored, &query) * 1e15;
            let rel = (engine_fj - measured_fj).abs() / measured_fj.abs().max(1e-12);
            assert!(
                rel <= TOLERANCE,
                "{} at k={k}: engine {engine_fj:.4} fJ vs measured {measured_fj:.4} fJ \
                 ({:.2}% off)",
                kind.key(),
                rel * 100.0
            );
        }
    }
}

#[test]
fn engine_replay_average_matches_fig9_energy() {
    let eval = Evaluator::quick();
    let params = IpRoutingWorkloadParams {
        entries: 48,
        queries: 96,
        width: 16,
        ..IpRoutingWorkloadParams::default()
    };
    let replay = WorkloadReplay::ip_routing(&params);
    // The fig. 9 golden number: whole-workload histogram + toggle stats
    // through the array model.
    let workload = ftcam_workloads::IpRoutingWorkload::new(params.clone()).generate();
    let hist = workload.mismatch_histogram();
    let toggles = workload.toggle_stats();
    // Exercise every cost-model term: flat non-gated, flat gated,
    // segmented, and everything combined.
    for kind in [
        DesignKind::FeFet2T,
        DesignKind::EaSlGated,
        DesignKind::EaMlSegmented,
        DesignKind::EaFull,
    ] {
        let calib = eval.calibrations().get(kind, 16).expect("calibration");
        let golden = ArrayModel::new(
            ArrayParams::new(kind, replay.table.len(), 16),
            calib.clone(),
        )
        .average_search_energy(&hist, Some(&toggles));
        let engine = replay.engine(EngineConfig::default()).with_design(&calib);
        let mut session = engine.session();
        session.replay(&replay.queries(0..96));
        let stats = session.finish();
        let per_query = stats.energy_per_query(kind).expect("design registered");
        let rel = (per_query - golden).abs() / golden;
        assert!(
            rel < 1e-9,
            "{}: engine {per_query:.6e} J vs fig9 {golden:.6e} J (rel {rel:.2e})",
            kind.key()
        );
    }
}

#[test]
fn sampled_metering_estimates_exact_energy() {
    let eval = Evaluator::quick();
    let replay = WorkloadReplay::ip_routing(&IpRoutingWorkloadParams {
        entries: 64,
        queries: 256,
        width: 16,
        ..IpRoutingWorkloadParams::default()
    });
    let queries = replay.queries(0..256);
    let kind = DesignKind::EaFull;
    let calib = eval.calibrations().get(kind, 16).expect("calibration");
    let run = |metering: Metering| {
        let engine = replay
            .engine(EngineConfig {
                metering,
                ..EngineConfig::default()
            })
            .with_design(&calib);
        let mut session = engine.session();
        session.replay(&queries);
        session.finish()
    };
    let exact = run(Metering::Exact);
    let sampled = run(Metering::Sampled { period: 5 });
    assert_eq!(sampled.metered_queries, 52, "ceil(256 / 5) queries metered");
    let e = exact.energy_per_query(kind).expect("metered");
    let s = sampled.energy_per_query(kind).expect("metered");
    let rel = (s - e).abs() / e;
    assert!(
        rel < 0.15,
        "sampled estimate {s:.4e} J vs exact {e:.4e} J ({:.1}% off)",
        rel * 100.0
    );
}
