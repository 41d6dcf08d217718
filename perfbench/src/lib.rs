//! Wall-clock benchmark for the `gsnp` tool: `call --backend native`,
//! `call --cpu`, `call --cohort` and `decode`, run as child processes of
//! the release binary on inputs generated from a seed, with every output
//! checked byte for byte.
//!
//! A run without tracing reports the end-to-end metrics; a traced run
//! reports the per-layer metrics and writes a span file
//! (see [`traced`]).

pub mod child;
pub mod clock;
pub mod gate;
pub mod ops;
pub mod report;
pub mod traced;
pub mod workload;

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use clock::Stopwatch;
use report::{median, Metric, Outcome};
use workload::Workload;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// The release `gsnp` binary.
    pub gsnp: PathBuf,
    /// Scratch directory for inputs, outputs and span files.
    pub work_dir: PathBuf,
}

/// Run the benchmark once. The run's inputs and outputs are removed
/// afterwards; a traced run's span file stays under `work_dir/spans`.
pub fn run(o: &Options) -> Result<Outcome, String> {
    let run_id = format!(
        "{}-seed{}-pid{}",
        o.workload.name,
        o.seed,
        std::process::id()
    );
    let dir = o.work_dir.join(&run_id);
    let result = run_in(o, &dir, &run_id);
    let _ = fs::remove_dir_all(&dir);
    result
}

fn io(p: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", p.display())
}

fn run_in(o: &Options, dir: &Path, run_id: &str) -> Result<Outcome, String> {
    let w = &o.workload;
    let files = workload::generate(w, o.seed, &dir.join("in")).map_err(io(dir))?;
    let names: Vec<String> = files.samples.iter().map(|(n, _)| n.clone()).collect();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut loaded = None;
    for _ in 0..if o.trace { 1 } else { SETUP_REPS } {
        drop(loaded.take());
        let mut sw = Stopwatch::default();
        let l = workload::set_up(&mut sw, &files)?;
        setup_s.push(
            sw.total("seqio.parse") + sw.total("tables.calibrate") + sw.total("likelihood.upload"),
        );
        loaded = Some(l);
    }
    let loaded = loaded.expect("at least one set-up");
    let expected = gate::expected(w, &loaded, &names);
    drop(loaded);

    let decode_inputs = dir.join("gsnp");
    let out_dir = dir.join("out");
    for d in [&decode_inputs, &out_dir] {
        fs::create_dir_all(d).map_err(io(d))?;
    }
    for e in &expected {
        let p = decode_inputs.join(format!("{}.gsnp", e.name));
        fs::write(&p, &e.gsnp).map_err(io(&p))?;
    }
    let ops = ops::plan(w, &files, &expected, &decode_inputs, &out_dir);

    if o.trace {
        return traced::run(o, &files, &expected, &ops, &out_dir, run_id);
    }

    let lp = ops::run_loop(&o.gsnp, &ops, Duration::from_secs_f64(o.seconds));
    for f in &lp.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let msites = w.total_sites() as f64 / 1e6;
    let rate = |kind| {
        median(
            &lp.least_stolen(kind, |u| u.wall_s)
                .iter()
                .map(|t| msites / t)
                .collect::<Vec<_>>(),
        )
    };
    let failed = lp.failures.len() as u64;
    let gsnp_bytes: usize = expected.iter().map(|e| e.gsnp.len()).sum();
    eprintln!(
        "perfbench: {} operations in {} group runs, {failed} failed; host stole {:.1} % of CPU time during native calls",
        lp.attempted,
        lp.groups.len(),
        lp.steal_frac(ops::Kind::Call) * 100.0
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted: lp.attempted,
        failed,
        metrics: vec![
            Metric {
                name: "call_msites_s",
                value: rate(ops::Kind::Call),
                unit: "Msites/s",
            },
            Metric {
                name: "cpu_call_msites_s",
                value: rate(ops::Kind::CpuCall),
                unit: "Msites/s",
            },
            Metric {
                name: "decode_msites_s",
                value: rate(ops::Kind::Decode),
                unit: "Msites/s",
            },
            Metric {
                name: "setup_s",
                value: median(&setup_s),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: median(
                    &lp.per_group(ops::Kind::Call, |u| u.max_rss_kb as f64 / 1024.0)
                        .into_iter()
                        .map(|(_, rss)| rss)
                        .collect::<Vec<_>>(),
                ),
                unit: "MB",
            },
            Metric {
                name: "bytes_per_site",
                value: gsnp_bytes as f64 / w.total_sites() as f64,
                unit: "B/site",
            },
            Metric {
                name: "ops_ok_frac",
                value: (lp.attempted - failed) as f64 / lp.attempted as f64,
                unit: "frac",
            },
        ],
    })
}
