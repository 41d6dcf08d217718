//! Tiny-scale runs of every workload, end-to-end and traced, on a seed not
//! used while the benchmark was written: every metric `BENCHMARK.json`
//! declares is reported with its declared unit, nothing fails the gate, and
//! the traced figures reconcile with the children's wall times.

mod common;

use std::path::Path;

use gsnp::gpu_sim::{parse_json, Json};
use perfbench::report::Outcome;
use perfbench::workload::WORKLOADS;

/// Chosen after the benchmark was written; never used to tune it.
const FRESH_SEED: u64 = 90_210;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn check_reports(o: &Outcome, section: &str) {
    assert!(o.correct, "gate failed: {o:?}");
    assert_eq!(o.failed, 0);
    assert!(o.attempted >= 1);
    let want = declared(section);
    assert_eq!(o.metrics.len(), want.len(), "metric count of {section}");
    for (name, unit) in want {
        let m = o
            .get(&name)
            .unwrap_or_else(|| panic!("{name} not reported"));
        assert_eq!(m.unit, unit, "unit of {name}");
        assert!(m.value.is_finite(), "{name} = {}", m.value);
    }
    let line = parse_json(&o.to_json()).expect("result line is JSON");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(line.get(key).is_some(), "result line lacks {key}");
    }
}

#[test]
fn end_to_end_runs_report_every_metric_and_pass_the_gate() {
    let work = common::scratch("smoke-e2e");
    for w in WORKLOADS {
        let o = perfbench::run(&common::tiny(w.name, FRESH_SEED, false, work.clone()))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        check_reports(&o, "end_to_end");
        assert_eq!(o.get("ops_ok_frac").map(|m| m.value), Some(1.0));
        for rate in [
            "call_msites_s",
            "cpu_call_msites_s",
            "decode_msites_s",
            "setup_s",
        ] {
            assert!(
                o.get(rate).expect("reported").value > 0.0,
                "{}: {rate}",
                w.name
            );
        }
    }
}

#[test]
fn traced_runs_report_every_layer_and_reconcile_with_wall_time() {
    let work = common::scratch("smoke-traced");
    for w in WORKLOADS {
        let o = perfbench::run(&common::tiny(w.name, FRESH_SEED, true, work.clone()))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        check_reports(&o, "per_layer");
        let v = |n: &str| o.get(n).unwrap_or_else(|| panic!("{n}")).value;
        let main = if w.is_cohort() {
            "cohort.run_s"
        } else {
            "pipeline.run_s"
        };
        let parts = v("seqio.parse_s") + v(main) + v("process.write_s") + v("process.remainder_s");
        assert!((parts - v("process.wall_s")).abs() < 1e-9, "{}", w.name);
        let decode =
            v("compress.column_decode_s") + v("seqio.text_s") + v("process.decode_remainder_s");
        assert!(
            (decode - v("process.decode_wall_s")).abs() < 1e-9,
            "{}",
            w.name
        );
        assert!(v("counting.words") > 0.0 && v("sortnet.padded_ratio") >= 1.0);

        let spans = work
            .join("spans")
            .join(format!("{}-seed{FRESH_SEED}.jsonl", w.name));
        let text = std::fs::read_to_string(&spans).expect("span file written");
        for line in text.lines() {
            let rec = parse_json(line).expect("span line is JSON");
            assert!(rec.get("run").and_then(Json::as_str).is_some());
        }
        for layer in [
            "seqio.window",
            "likelihood.comp",
            "model.posterior",
            "compress.column_decode",
        ] {
            assert!(
                text.contains(&format!("\"name\":\"{layer}\"")),
                "{}: no {layer} span",
                w.name
            );
        }
    }
}
