//! Criterion bench regenerating every experiment of
//! [`ftcam_core::experiments::ALL_IDS`] (quick preset), one bench function
//! per id in the `experiments` group.
//!
//! Each id gets its own evaluator. The first iteration pays the
//! transistor-level calibration; the evaluator caches it for subsequent
//! iterations, so the reported time is the marginal cost of regenerating
//! the artefact.

use criterion::{criterion_group, criterion_main, Criterion};
use ftcam_bench::run_quick;
use ftcam_core::{experiments::ALL_IDS, Evaluator};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    for id in ALL_IDS {
        let eval = Evaluator::standard();
        group.bench_function(id, |b| b.iter(|| run_quick(&eval, id)));
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
