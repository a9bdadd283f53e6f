//! Chaos tests for the executor's fault-injection poison hook (requires
//! `--features fault-injection`): a poisoned work item panics instead of
//! running, and the partial-results path must confine the blast radius to
//! that one item — at the executor level and through a full experiment
//! driver.

use ftcam_core::{Artifact, Evaluator, ItemError};

#[test]
fn poisoned_item_panics_and_is_isolated_by_run_partial() {
    let eval = Evaluator::quick()
        .with_threads(2)
        .with_poisoned_executor_item(1);
    let items = [10u32, 20, 30, 40];
    let out = eval
        .executor()
        .run_partial(&items, |_, &x| Ok::<_, ()>(x * 2));
    assert_eq!(out.len(), 4);
    assert_eq!(out[0], Ok(20));
    assert_eq!(out[2], Ok(60));
    assert_eq!(out[3], Ok(80));
    match &out[1] {
        Err(ItemError::Panicked(msg)) => {
            assert!(
                msg.contains("poisoned work item 1"),
                "panic message should name the item: {msg}"
            );
        }
        other => panic!("expected a panicked item, got {other:?}"),
    }
}

#[test]
#[should_panic(expected = "executor worker panicked on item 0")]
fn all_or_nothing_run_propagates_the_poison_panic() {
    let eval = Evaluator::quick()
        .with_threads(1)
        .with_poisoned_executor_item(0);
    let _ = eval.executor().run(&[1u32, 2], |_, &x| Ok::<_, ()>(x));
}

#[test]
fn e07_with_a_poisoned_point_keeps_every_other_point() {
    use ftcam_core::experiments::e07_variation;

    let params = e07_variation::Params {
        sigmas: vec![0.05, 0.15],
        width: 4,
        // One sample per point, so executor item 1 is point 1's only sample.
        samples: 1,
        designs: vec![ftcam_cells::DesignKind::FeFet2T],
        seed: 7,
    };
    let clean_eval = Evaluator::quick().with_threads(2);
    let Artifact::Figure(clean) = e07_variation::run(&clean_eval, &params).unwrap() else {
        panic!("expected figure")
    };

    // Poison item 1, the only sample of fefet2t at σ = 0.15: that point
    // must come back as NaN cells plus an enumerated failure note, while
    // point 0 stays bit-identical to the clean run.
    let eval = Evaluator::quick()
        .with_threads(2)
        .with_poisoned_executor_item(1);
    let Artifact::Figure(fig) = e07_variation::run(&eval, &params).unwrap() else {
        panic!("expected figure")
    };
    for (series, clean_series) in fig.series.iter().zip(&clean.series) {
        assert_eq!(series.y[0], clean_series.y[0], "survivor point changed");
        assert!(series.y[1].is_nan(), "poisoned point should be NaN");
    }
    assert!(
        fig.notes
            .iter()
            .any(|n| n.starts_with("failed point:") && n.contains("poisoned work item 1")),
        "failure must be enumerated in the notes: {:?}",
        fig.notes
    );
}
