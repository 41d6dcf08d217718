//! The correctness gate fires: on a corrupted copy of a real output, on a
//! `decode` of a corrupted `.gsnp`, and on a `gsnp` that exits nonzero —
//! and every such operation is counted as failed.

mod common;

use std::fs;

use perfbench::clock::Stopwatch;
use perfbench::gate::{self, Expected};
use perfbench::ops::{self, Kind};
use perfbench::workload::{self, Workload};

fn tiny_plan(test: &str, name: &str) -> (std::path::PathBuf, Vec<Expected>, Vec<ops::Op>) {
    let dir = common::scratch(test);
    let w = Workload::by_name(name).expect("known").scaled(0.05);
    let files = workload::generate(&w, 7, &dir.join("in")).expect("generate");
    let names: Vec<String> = files.samples.iter().map(|(n, _)| n.clone()).collect();
    let loaded = workload::set_up(&mut Stopwatch::default(), &files).expect("set up");
    let expected = gate::expected(&w, &loaded, &names);
    let gsnp_dir = dir.join("gsnp");
    for d in [&gsnp_dir, &dir.join("out")] {
        fs::create_dir_all(d).expect("mkdir");
    }
    for e in &expected {
        fs::write(gsnp_dir.join(format!("{}.gsnp", e.name)), &e.gsnp).expect("write");
    }
    let plan = ops::plan(&w, &files, &expected, &gsnp_dir, &dir.join("out"));
    (dir, expected, plan)
}

#[test]
fn every_real_operation_passes_and_a_corrupted_copy_does_not() {
    let (dir, expected, plan) = tiny_plan("gate-corrupt", "deep");
    for op in &plan {
        ops::run_op(common::gsnp_bin(), op, ops::OP_TIMEOUT).unwrap_or_else(|e| panic!("{e}"));
    }

    // A corrupted copy of the native call's output fails the byte check.
    let call = plan.iter().find(|o| o.kind == Kind::Call).expect("call op");
    let copy = dir.join("corrupted.gsnp");
    let mut bytes = expected[0].gsnp.to_vec();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&copy, &bytes).expect("write copy");
    let err = gate::check_file(&copy, &call.outputs[0].1).unwrap_err();
    assert!(
        err.contains(&format!("first difference at byte {mid}")),
        "{err}"
    );

    // Decoding a corrupted `.gsnp` either fails or writes other text.
    let decode = plan
        .iter()
        .find(|o| o.kind == Kind::Decode)
        .expect("decode op");
    let input = dir.join("gsnp").join(format!("{}.gsnp", expected[0].name));
    fs::write(&input, &bytes).expect("corrupt decode input");
    assert!(ops::run_op(common::gsnp_bin(), decode, ops::OP_TIMEOUT).is_err());
}

#[test]
fn cohort_lanes_match_the_pooled_single_runs() {
    let (_dir, _expected, plan) = tiny_plan("gate-cohort", "cohort4");
    let call = plan.iter().find(|o| o.kind == Kind::Call).expect("call op");
    assert_eq!(call.outputs.len(), 4);
    for op in &plan {
        ops::run_op(common::gsnp_bin(), op, ops::OP_TIMEOUT).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn a_failing_gsnp_fails_every_operation_and_the_run() {
    let work = common::scratch("gate-failing-binary");
    let fake = work.join("gsnp-that-fails");
    fs::write(&fake, "#!/bin/sh\nexit 1\n").expect("write script");
    let mut perm = fs::metadata(&fake).expect("stat").permissions();
    std::os::unix::fs::PermissionsExt::set_mode(&mut perm, 0o755);
    fs::set_permissions(&fake, perm).expect("chmod");

    let mut o = common::tiny("wide", 7, false, work.join("runs"));
    o.gsnp = fake;
    let out = perfbench::run(&o).expect("the run itself completes");
    assert!(!out.correct);
    assert!(out.attempted >= 3);
    assert_eq!(out.failed, out.attempted);
    assert_eq!(out.get("ops_ok_frac").map(|m| m.value), Some(0.0));
}
