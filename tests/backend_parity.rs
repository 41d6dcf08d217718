//! The tentpole guarantee of pluggable compute backends: whichever of the
//! two executors runs the kernels — the instrumented simulator or the
//! native rayon host executor, chosen once per run — GSNP's results are
//! byte-identical: the per-window tables AND the compressed result file,
//! at every `(launch_batch, pipeline_depth, num_devices)` combination the
//! window loop supports. Backends only change *how* a launch executes,
//! never what it computes (§IV-G discipline applied to the execution
//! axis). Alongside identity, the ledger's backend tallies must show the
//! point of the exercise: a `Native` run executes every launch natively.

use gsnp::core::pipeline::{GsnpConfig, GsnpOutput, GsnpPipeline};
use gsnp::gpu_sim::{BackendChoice, BackendTallies};
use gsnp::seqio::soap::AlignedRead;
use gsnp::seqio::synth::{Dataset, SynthConfig};

fn cfg(
    backend: BackendChoice,
    launch_batch: usize,
    pipeline_depth: usize,
    num_devices: usize,
) -> GsnpConfig {
    GsnpConfig {
        window_size: 700,
        backend,
        launch_batch,
        pipeline_depth,
        num_devices,
        ..Default::default()
    }
}

fn run(d: &Dataset, reads: &[AlignedRead], c: GsnpConfig) -> GsnpOutput {
    GsnpPipeline::new(c).run(reads, &d.reference, &d.priors)
}

fn dataset(seed: u64, num_sites: u64) -> Dataset {
    let mut sc = SynthConfig::tiny(seed);
    sc.num_sites = num_sites;
    Dataset::generate(sc)
}

/// Sum a run's per-device backend tallies.
fn backend_tallies(out: &GsnpOutput) -> BackendTallies {
    let mut t = BackendTallies::default();
    for led in &out.stats.ledgers {
        t.sum(&led.backend);
    }
    t
}

/// Native × batch {1, 8} × depth {1, 4} × devices {1, 4}: every
/// combination is byte-identical to the serial simulator reference, and
/// every launch of every native run executed on the native backend.
#[test]
fn native_grid_is_byte_identical_to_sim() {
    let d = dataset(0xBACE, 8_000);
    let reference = run(&d, &d.reads, cfg(BackendChoice::Sim, 1, 1, 1));
    assert!(
        reference.stats.windows >= 8,
        "grid test needs several windows"
    );
    let ref_tallies = backend_tallies(&reference);
    assert_eq!(ref_tallies.native, 0, "sim run must not launch natively");
    assert!(ref_tallies.sim > 0);

    for launch_batch in [1usize, 8] {
        for pipeline_depth in [1usize, 4] {
            for num_devices in [1usize, 4] {
                let out = run(
                    &d,
                    &d.reads,
                    cfg(
                        BackendChoice::Native,
                        launch_batch,
                        pipeline_depth,
                        num_devices,
                    ),
                );
                let shape =
                    format!("native batch {launch_batch} depth {pipeline_depth} x{num_devices}");
                assert_eq!(out.tables, reference.tables, "{shape}: tables diverged");
                assert_eq!(
                    out.compressed, reference.compressed,
                    "{shape}: compressed stream diverged"
                );
                let t = backend_tallies(&out);
                assert_eq!(t.sim, 0, "{shape}: no launch may hit the simulator");
                assert!(t.native > 0, "{shape}: native launches must be tallied");
            }
        }
    }
}

/// A sanitized config no longer refuses the native backend: every
/// pipeline kernel carries an `AccessContract`, so the static analyzer
/// proves each launch before the uninstrumented blocks run and replays
/// the declared writes into the sanitizer's shadow state. The run
/// completes, stays byte-identical to the simulator, proves every
/// launch, and ends sanitizer-clean. (Uncontracted native launches on a
/// sanitized device still panic — covered by gpu-sim's backend tests.)
#[test]
fn native_backend_admits_sanitize_on_proved_contracts() {
    let d = dataset(0xFA11, 1_000);
    let reference = run(&d, &d.reads, cfg(BackendChoice::Sim, 1, 1, 1));
    let c = GsnpConfig {
        sanitize: true,
        contracts: true,
        ..cfg(BackendChoice::Native, 1, 1, 1)
    };
    let out = run(&d, &d.reads, c);
    assert_eq!(out.tables, reference.tables, "sanitized native diverged");
    assert_eq!(out.compressed, reference.compressed);
    assert!(out.stats.sanitizer.is_clean(), "{:?}", out.stats.sanitizer);
    let proofs = out.stats.contracts.totals();
    assert!(proofs.verified > 0, "no launch was proved");
    assert!(
        out.stats.contracts.all_verified(),
        "{:?}",
        out.stats.contracts.per_kernel
    );
    let t = backend_tallies(&out);
    assert_eq!(t.sim, 0, "no launch may fall back to the simulator");
    assert!(t.native > 0);
}
