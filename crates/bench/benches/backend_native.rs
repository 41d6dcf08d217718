//! Compute backends: sim vs native on the launch_batching workload.
//!
//! The pipeline config is the launch-batching shape (many small windows,
//! GPU output on the measured path); only the backend varies. Sim pays
//! per-access instrumentation on every kernel, native runs the same
//! kernel bodies uninstrumented via rayon.
//! See the `native_backend` experiment for the calibrated run with
//! byte-identity asserts and the recorded speedup.

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::BackendChoice;
use gsnp_core::pipeline::{GsnpConfig, GsnpPipeline};

fn bench(c: &mut Criterion) {
    let d = common::dataset();
    let cfg = |backend: BackendChoice| GsnpConfig {
        window_size: 500,
        // GPU output puts the scan/RLE/DICT chain — the launch-heaviest
        // stage — on the measured path.
        gpu_output: true,
        backend,
        ..Default::default()
    };

    let mut g = c.benchmark_group("backend_native");
    g.sample_size(10);
    for backend in [BackendChoice::Sim, BackendChoice::Native] {
        g.bench_with_input(
            BenchmarkId::from_parameter(backend.name()),
            &backend,
            |b, &backend| {
                b.iter(|| GsnpPipeline::new(cfg(backend)).run(&d.reads, &d.reference, &d.priors));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
