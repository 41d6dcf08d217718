//! The traced run: per-layer figures, separate from the end-to-end run.
//!
//! Half the time budget runs the same closed loop of `gsnp` children as
//! the end-to-end run, for each child's own `wait4` usage. The other half
//! runs traced passes in-process: each public call below is wrapped in a
//! span, and the layers inside the window loop are replayed over the same
//! windows through their public per-window functions. No span goes inside
//! the program. `GsnpOutput::wall` (the program's own host-clock breakdown)
//! is written beside the spans as a cross-check; the cost model's modelled
//! device seconds (`GsnpOutput::times`) are not used anywhere.
//!
//! Every figure reconciles with a wall time through a reported remainder:
//!
//! * call child wall = `seqio.parse` + main run + `process.write` +
//!   `process.remainder`, where the main run is `pipeline.run`
//!   (`cohort.run` on a cohort);
//! * main run = the in-loop layers (calibrate, upload, input codec,
//!   windows, counting, sort, likelihood, posterior, column encode) +
//!   `pipeline.remainder`, negative when the program overlaps stages;
//! * decode child wall = `compress.column_decode` + `seqio.text` +
//!   `process.decode_remainder` (file read, the sink's syscalls, start-up).

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use gsnp::compress::column::{self, WindowStream};
use gsnp::compress::input_codec;
use gsnp::core::counting::SparseWindow;
use gsnp::core::likelihood::{
    likelihood_comp_fused_gpu_into, likelihood_sort_gpu_into, KernelVariant,
};
use gsnp::core::model::{posterior_cached, PriorTable};
use gsnp::core::pipeline::PipelineStats;
use gsnp::core::{
    BadSiteList, CohortCallConfig, CohortPipeline, ComponentTimes, GsnpConfig, GsnpCpuPipeline,
    GsnpPipeline, ModelParams, QualityGates, SampleReads,
};
use gsnp::gpu_sim::{ComputeBackend, NativeBackend};
use gsnp::seqio::result::SnpTable;
use gsnp::seqio::soap::AlignedRead;
use gsnp::seqio::window::{Window, WindowReader};
use gsnp::sortnet::MultipassScratch;

use crate::child::Usage;
use crate::clock::{Clock, Tracer};
use crate::gate::{self, call_config, Expected};
use crate::ops::{self, Kind, Op};
use crate::report::{median, Metric, Outcome};
use crate::workload::{set_up, InputFiles, Loaded, Workload, READ_LEN};
use crate::Options;

/// One `wait4` figure of a child.
type UsageField = fn(&Usage) -> f64;

/// Layers inside the main run, summed into `pipeline.remainder_s`.
const IN_RUN_LAYERS: [&str; 10] = [
    "tables.calibrate",
    "likelihood.upload",
    "compress.input_encode",
    "compress.input_decode",
    "seqio.window",
    "counting.count",
    "likelihood.sort",
    "likelihood.comp",
    "model.posterior",
    "compress.column_encode",
];

/// Byte comparisons made in-process, counted as operations.
#[derive(Debug, Default)]
struct Gate {
    attempted: u64,
    failures: Vec<String>,
}

impl Gate {
    fn check(&mut self, what: &str, got: &[u8], want: &[u8]) {
        self.attempted += 1;
        if let Err(e) = gate::check_bytes(what, got, want) {
            self.failures.push(e);
        }
    }
}

/// Figures of one traced pass besides its spans.
#[derive(Debug, Default)]
struct Pass {
    self_s: BTreeMap<&'static str, f64>,
    untraced_main_s: f64,
    input_bytes: u64,
    upload_bytes: u64,
    obs: u64,
    sites: u64,
    input_codec_bytes: u64,
    column_bytes: u64,
    sort_padded: u64,
    sort_real: u64,
    launches: u64,
    pool_hit_ratio: f64,
}

impl Pass {
    fn layer(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }
}

/// Run the traced measurement and report every per-layer metric. Spans go
/// to `spans/<workload>-seed<seed>.jsonl` under the work directory;
/// main-run outputs are written under `out_dir`.
pub fn run(
    o: &Options,
    files: &InputFiles,
    expected: &[Expected],
    ops: &[Op],
    out_dir: &Path,
    run_id: &str,
) -> Result<Outcome, String> {
    let (gsnp, w) = (&o.gsnp, &o.workload);
    let span_file = o
        .work_dir
        .join("spans")
        .join(format!("{}-seed{}.jsonl", w.name, o.seed));
    let budget = Duration::from_secs_f64(o.seconds / 2.0);
    let children = ops::run_loop(gsnp, ops, budget);

    let mut gate = Gate::default();
    let mut passes = Vec::new();
    let mut spans = String::new();
    let t0 = Instant::now();
    while passes.is_empty() || t0.elapsed() < budget {
        let mut tracer = Tracer::new(format!("{run_id}-pass{}", passes.len()));
        let (mut pass, program_wall) = tracer.time("run", |t| {
            traced_pass(t, w, files, expected, out_dir, &mut gate)
        })?;
        pass.self_s = tracer.self_totals();
        spans.push_str(&tracer.to_jsonl());
        spans.push_str(&program_wall_line(tracer.run_id(), &program_wall));
        passes.push(pass);
    }
    if let Some(dir) = span_file.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    fs::write(&span_file, spans).map_err(|e| format!("{}: {e}", span_file.display()))?;
    eprintln!(
        "perfbench: spans of {} traced passes written to {}",
        passes.len(),
        span_file.display()
    );

    let metrics = per_layer_metrics(w, &passes, &children);
    let failures: Vec<&String> = children.failures.iter().chain(&gate.failures).collect();
    for f in &failures {
        eprintln!("perfbench: FAILED {f}");
    }
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted: children.attempted + gate.attempted,
        failed: failures.len() as u64,
        metrics,
    })
}

/// One traced pass: set-up, the three pipelines, the main run's output
/// write, an untraced repeat of the main run, and the per-window replay.
fn traced_pass(
    t: &mut Tracer,
    w: &Workload,
    files: &InputFiles,
    expected: &[Expected],
    out_dir: &Path,
    gate: &mut Gate,
) -> Result<(Pass, ComponentTimes), String> {
    let loaded = set_up(t, files)?;
    let (reference, priors) = (&loaded.reference, &loaded.priors);
    let single = GsnpPipeline::new(call_config(w));
    let pooled = GsnpPipeline::new(GsnpConfig {
        shared_tables: Some(loaded.tables.clone()),
        ..call_config(w)
    });
    let cpu = GsnpCpuPipeline::new(call_config(w));
    let cohort = CohortPipeline::new(CohortCallConfig {
        base: call_config(w),
        gates: QualityGates::default(),
        bad_sites: BadSiteList::new(),
    });
    let samples: Vec<SampleReads<'_>> = expected
        .iter()
        .zip(&loaded.reads)
        .map(|(e, reads)| SampleReads {
            name: &e.name,
            reads,
        })
        .collect();

    // On a cohort, `pipeline.run` is each sample's run on the pooled tables
    // (the cohort's parity oracle); on one sample it is the user's run.
    let lane = if w.is_cohort() { &pooled } else { &single };
    let runs: Vec<_> = t.time("pipeline.run", |_| {
        loaded
            .reads
            .iter()
            .map(|r| lane.run(r, reference, priors))
            .collect()
    });
    let cpu_runs: Vec<_> = t.time("pipeline.cpu_run", |_| {
        loaded
            .reads
            .iter()
            .map(|r| cpu.run(r, reference, priors))
            .collect()
    });
    let cohort_run = t.time("cohort.run", |_| cohort.run(&samples, reference, priors));
    for (i, e) in expected.iter().enumerate() {
        gate.check("pipeline.run", &runs[i].compressed, &e.gsnp);
        gate.check("pipeline.cpu_run", &cpu_runs[i].compressed, &e.cpu_gsnp);
        gate.check("cohort.run", &cohort_run.samples[i].compressed, &e.gsnp);
    }

    // The main run is what the call child runs: `call --cohort` on a
    // cohort, `call` otherwise.
    let outputs: Vec<(&str, &[u8])> = if w.is_cohort() {
        cohort_run
            .samples
            .iter()
            .map(|s| (s.name.as_str(), s.compressed.as_slice()))
            .collect()
    } else {
        vec![("native", runs[0].compressed.as_slice())]
    };
    t.time("process.write", |_| {
        outputs.iter().try_for_each(|(name, bytes)| {
            let p = out_dir.join(format!("traced-{name}.gsnp"));
            fs::write(&p, bytes).map_err(|e| format!("{}: {e}", p.display()))
        })
    })?;
    let (stats, program_wall): (&PipelineStats, ComponentTimes) = if w.is_cohort() {
        (&cohort_run.stats, cohort_run.wall)
    } else {
        (&runs[0].stats, runs[0].wall)
    };
    let mut pass = Pass {
        input_bytes: loaded.input_bytes,
        upload_bytes: loaded.device_tables.iter().map(|d| d.upload_bytes()).sum(),
        launches: stats.kernel_launches.iter().map(|k| k.launches).sum(),
        pool_hit_ratio: stats.pool.hit_rate(),
        ..Pass::default()
    };
    drop((runs, cpu_runs, cohort_run));

    let t0 = Instant::now();
    if w.is_cohort() {
        std::hint::black_box(cohort.run(&samples, reference, priors));
    } else {
        std::hint::black_box(single.run(&loaded.reads[0], reference, priors));
    }
    pass.untraced_main_s = t0.elapsed().as_secs_f64();

    t.time("replay", |t| {
        loaded
            .reads
            .iter()
            .zip(expected)
            .try_for_each(|(reads, e)| replay(t, w, &loaded, reads, e, gate, &mut pass))
    })?;
    Ok((pass, program_wall))
}

/// Replay one sample's window loop through the public per-window calls,
/// then decode the expected `.gsnp` and render it as text.
fn replay(
    t: &mut Tracer,
    w: &Workload,
    loaded: &Loaded,
    reads: &[AlignedRead],
    e: &Expected,
    gate: &mut Gate,
    pass: &mut Pass,
) -> Result<(), String> {
    let reference = &loaded.reference;
    let backend = NativeBackend::new(loaded.group.device(0)).map_err(|e| e.to_string())?;
    let tables = &loaded.device_tables[0];
    let params = ModelParams::default();

    let temp = t.time("compress.input_encode", |_| {
        input_codec::compress_reads(&reference.name, reads)
    });
    let decoded = t
        .time("compress.input_decode", |_| {
            input_codec::decompress_reads(&temp)
        })
        .map_err(|e| e.to_string())?;
    pass.input_codec_bytes += temp.len() as u64;

    let mut reader = WindowReader::new(
        decoded.iter().cloned().map(Ok),
        reference.len() as u64,
        w.window_size(),
    );
    let mut window = Window::default();
    let mut sw = SparseWindow::default();
    let mut sort = MultipassScratch::default();
    let (mut likely, mut summaries) = (Vec::new(), Vec::new());
    let mut encoded = Vec::new();
    loop {
        let more = t
            .time("seqio.window", |_| reader.next_window_into(&mut window))
            .map_err(|e| e.to_string())?;
        if !more {
            break;
        }
        let words = t.time("counting.count", |_| {
            sw.count_words_into(&window);
            backend.upload_pooled(&sw.words)
        });
        t.time("likelihood.sort", |_| {
            likelihood_sort_gpu_into(&backend, &words, &sw.spans, &mut sort);
        });
        for c in &sort.report().classes {
            pass.sort_padded += c.padded;
            pass.sort_real += c.elements;
        }
        t.time("likelihood.comp", |_| {
            likelihood_comp_fused_gpu_into(
                &backend,
                KernelVariant::Optimized,
                &words,
                &sw.spans,
                READ_LEN,
                tables,
                &mut likely,
                &mut summaries,
            )
        });
        let rows: Vec<_> = t.time("model.posterior", |_| {
            let prior_table = PriorTable::new(&params);
            (0..summaries.len())
                .map(|i| {
                    let pos = window.start + i as u64;
                    posterior_cached(
                        &likely[i],
                        &summaries[i],
                        reference.seq[pos as usize],
                        loaded.priors.get(pos),
                        &params,
                        &prior_table,
                    )
                })
                .collect()
        });
        pass.obs += sw.words.len() as u64;
        pass.sites += rows.len() as u64;
        let table = SnpTable::new(reference.name.clone(), window.start, rows);
        t.time("compress.column_encode", |_| {
            column::write_window(&mut encoded, &table)
        });
    }
    pass.column_bytes += encoded.len() as u64;
    gate.check(&format!("replayed {}.gsnp", e.name), &encoded, &e.gsnp);

    let mut text = Vec::new();
    let mut stream = WindowStream::new(&e.gsnp);
    while let Some(table) = t.time("compress.column_decode", |_| stream.next()) {
        let table = table.map_err(|e| e.to_string())?;
        t.time("seqio.text", |_| table.write_text(&mut text))
            .map_err(|e| e.to_string())?;
    }
    gate.check(&format!("replayed {}.txt", e.name), &text, &e.text);
    Ok(())
}

fn program_wall_line(run_id: &str, w: &ComponentTimes) -> String {
    format!(
        "{{\"run\":\"{run_id}\",\"program_wall_s\":{{\"cal_p\":{},\"read_site\":{},\"counting\":{},\"likelihood_sort\":{},\"likelihood_comp\":{},\"posterior\":{},\"output\":{},\"recycle\":{}}},\"clock\":\"host\"}}\n",
        w.cal_p, w.read_site, w.counting, w.likelihood_sort, w.likelihood_comp, w.posterior, w.output, w.recycle
    )
}

/// Every per-layer metric: medians over traced passes and over child
/// group runs, with the remainders that reconcile them to wall time.
fn per_layer_metrics(w: &Workload, passes: &[Pass], children: &ops::Loop) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let layer = |name: &'static str| med(&|p| p.layer(name));
    let main = if w.is_cohort() {
        "cohort.run"
    } else {
        "pipeline.run"
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    // The parse span's duration: its own self time plus its children's.
    let parse_s = med(&|p| {
        [
            "seqio.parse",
            "seqio.parse.reference",
            "seqio.parse.priors",
            "seqio.parse.reads",
        ]
        .iter()
        .map(|n| p.layer(n))
        .sum()
    });
    let main_s = layer(main);
    let write_s = layer("process.write");
    let in_run_s: f64 = IN_RUN_LAYERS.iter().map(|&n| layer(n)).sum();
    let comp_s = layer("likelihood.comp");
    let child = |kind: Kind, field: UsageField| median(&children.least_stolen(kind, field));
    let call_wall = child(Kind::Call, |u| u.wall_s);
    let decode_wall = child(Kind::Decode, |u| u.wall_s);

    let s = |name, value| Metric {
        name,
        value,
        unit: "s",
    };
    let mut m = vec![
        s("seqio.parse_s", parse_s),
        Metric {
            name: "seqio.parse_mb_s",
            value: med(&|p| p.input_bytes as f64 / 1e6) / parse_s.max(f64::MIN_POSITIVE),
            unit: "MB/s",
        },
        s("seqio.window_s", layer("seqio.window")),
        s("seqio.text_s", layer("seqio.text")),
        s("compress.input_encode_s", layer("compress.input_encode")),
        s("compress.input_decode_s", layer("compress.input_decode")),
        Metric {
            name: "compress.input_bytes_per_obs",
            value: med(&|p| ratio(p.input_codec_bytes, p.obs)),
            unit: "B/obs",
        },
        s("compress.column_encode_s", layer("compress.column_encode")),
        s("compress.column_decode_s", layer("compress.column_decode")),
        Metric {
            name: "compress.column_bytes_per_site",
            value: med(&|p| ratio(p.column_bytes, p.sites)),
            unit: "B/site",
        },
        s("tables.calibrate_s", layer("tables.calibrate")),
        s("likelihood.upload_s", layer("likelihood.upload")),
        Metric {
            name: "likelihood.upload_bytes",
            value: med(&|p| p.upload_bytes as f64),
            unit: "B",
        },
        s("counting.count_s", layer("counting.count")),
        Metric {
            name: "counting.words",
            value: med(&|p| p.obs as f64),
            unit: "count",
        },
        s("likelihood.sort_s", layer("likelihood.sort")),
        Metric {
            name: "sortnet.padded_ratio",
            value: med(&|p| ratio(p.sort_padded, p.sort_real)),
            unit: "ratio",
        },
        s("likelihood.comp_s", comp_s),
        Metric {
            name: "likelihood.obs_per_s",
            value: med(&|p| p.obs as f64) / comp_s.max(f64::MIN_POSITIVE),
            unit: "obs/s",
        },
        s("model.posterior_s", layer("model.posterior")),
        s("pipeline.run_s", layer("pipeline.run")),
        s("pipeline.cpu_run_s", layer("pipeline.cpu_run")),
        s("cohort.run_s", layer("cohort.run")),
        s("pipeline.remainder_s", main_s - in_run_s),
        s("process.write_s", write_s),
        s(
            "process.remainder_s",
            call_wall - parse_s - main_s - write_s,
        ),
        s(
            "process.decode_remainder_s",
            decode_wall - layer("compress.column_decode") - layer("seqio.text"),
        ),
        s("trace.overhead_s", main_s - med(&|p| p.untraced_main_s)),
        Metric {
            name: "gpu-sim.launches_per_ksite",
            value: med(&|p| p.launches as f64) / (w.total_sites() as f64 / 1e3),
            unit: "1/ksite",
        },
        Metric {
            name: "gpu-sim.pool_hit_ratio",
            value: med(&|p| p.pool_hit_ratio),
            unit: "ratio",
        },
        Metric {
            name: "host.steal_frac",
            value: children.steal_frac(Kind::Call),
            unit: "frac",
        },
    ];
    let usage_fields: [(UsageField, &str); 5] = [
        (|u| u.wall_s, "s"),
        (|u| u.user_s, "s"),
        (|u| u.sys_s, "s"),
        (|u| u.minflt as f64, "count"),
        (|u| u.ctx_switches as f64, "count"),
    ];
    for (kind, names) in CHILD_METRICS {
        for (name, (field, unit)) in names.into_iter().zip(usage_fields) {
            m.push(Metric {
                name,
                value: child(kind, field),
                unit,
            });
        }
    }
    print_reconciliation(w, &m);
    m
}

/// Per kind of child: its wall, user, sys, minor faults and context
/// switches from `wait4`, summed per group run, median over the
/// least-stolen half of the group runs.
const CHILD_METRICS: [(Kind, [&str; 5]); 3] = [
    (
        Kind::Call,
        [
            "process.wall_s",
            "process.user_s",
            "process.sys_s",
            "process.minflt",
            "process.ctx_switches",
        ],
    ),
    (
        Kind::CpuCall,
        [
            "process.cpu_wall_s",
            "process.cpu_user_s",
            "process.cpu_sys_s",
            "process.cpu_minflt",
            "process.cpu_ctx_switches",
        ],
    ),
    (
        Kind::Decode,
        [
            "process.decode_wall_s",
            "process.decode_user_s",
            "process.decode_sys_s",
            "process.decode_minflt",
            "process.decode_ctx_switches",
        ],
    ),
];

/// Print the three reconciliations to stderr.
fn print_reconciliation(w: &Workload, m: &[Metric]) {
    let get = |n: &str| m.iter().find(|x| x.name == n).map_or(0.0, |x| x.value);
    let table = |total: &str, parts: &[&str]| {
        eprintln!("perfbench: {total} {:.4} s =", get(total));
        for p in parts {
            eprintln!("  {p:<28} {:>10.4} s", get(p));
        }
        let sum: f64 = parts.iter().map(|p| get(p)).sum();
        eprintln!("  {:<28} {sum:>10.4} s", "sum");
    };
    let main = if w.is_cohort() {
        "cohort.run_s"
    } else {
        "pipeline.run_s"
    };
    table(
        "process.wall_s",
        &[
            "seqio.parse_s",
            main,
            "process.write_s",
            "process.remainder_s",
        ],
    );
    let mut in_run: Vec<String> = IN_RUN_LAYERS.iter().map(|l| format!("{l}_s")).collect();
    in_run.push("pipeline.remainder_s".into());
    table(main, &in_run.iter().map(String::as_str).collect::<Vec<_>>());
    table(
        "process.decode_wall_s",
        &[
            "compress.column_decode_s",
            "seqio.text_s",
            "process.decode_remainder_s",
        ],
    );
    eprintln!(
        "perfbench: every figure is host wall-clock; the cost model's modelled device seconds are excluded"
    );
}
