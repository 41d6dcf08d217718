//! End-to-end integration: synthetic files → parsers → both pipelines →
//! compressed output → decompression, spanning every crate.

use std::io::Cursor;

use gsnp::baseline::{SoapSnpConfig, SoapSnpPipeline};
use gsnp::compress::column::WindowStream;
use gsnp::core::{GsnpConfig, GsnpCpuPipeline, GsnpPipeline};
use gsnp::seqio::fasta::Reference;
use gsnp::seqio::prior::PriorMap;
use gsnp::seqio::soap::{write_alignments, AlignmentReader};
use gsnp::seqio::synth::{Dataset, SynthConfig};

fn small(seed: u64) -> Dataset {
    let mut cfg = SynthConfig::tiny(seed);
    cfg.num_sites = 2_000;
    cfg.read_len = 40;
    Dataset::generate(cfg)
}

/// Serialize all three inputs to their text formats and parse them back.
fn roundtrip_inputs(d: &Dataset) -> (Vec<gsnp::seqio::AlignedRead>, Reference, PriorMap) {
    let mut aln = Vec::new();
    write_alignments(&d.reads, &mut aln).unwrap();
    let mut fasta = Vec::new();
    d.reference.write_fasta(&mut fasta).unwrap();
    let mut prior = Vec::new();
    d.priors.write(&d.config.chr_name, &mut prior).unwrap();

    let reads: Vec<_> = AlignmentReader::new(Cursor::new(aln))
        .collect::<Result<_, _>>()
        .unwrap();
    let reference = Reference::read_fasta(Cursor::new(fasta)).unwrap();
    let priors = PriorMap::read(Cursor::new(prior)).unwrap();
    (reads, reference, priors)
}

#[test]
fn file_roundtrip_preserves_inputs() {
    let d = small(1);
    let (reads, reference, priors) = roundtrip_inputs(&d);
    assert_eq!(reads, d.reads);
    assert_eq!(reference, d.reference);
    assert_eq!(priors.len(), d.priors.len());
}

#[test]
fn pipelines_agree_bitwise_through_file_formats() {
    // The §IV-G property, exercised through the *parsed* inputs so format
    // serialization is part of the loop.
    let d = small(2);
    let (reads, reference, priors) = roundtrip_inputs(&d);

    let soap = SoapSnpPipeline::new(SoapSnpConfig {
        window_size: 600,
        ..Default::default()
    })
    .run(&reads, &reference, &priors);
    let gsnp = GsnpPipeline::new(GsnpConfig {
        window_size: 450,
        ..Default::default()
    })
    .run(&reads, &reference, &priors);
    let cpu = GsnpCpuPipeline::new(GsnpConfig {
        window_size: 999,
        ..Default::default()
    })
    .run(&reads, &reference, &priors);

    assert_eq!(soap.all_rows(), gsnp.all_rows());
    assert_eq!(soap.all_rows(), cpu.all_rows());
}

#[test]
fn compressed_output_decodes_to_text_output() {
    let d = small(3);
    let gsnp = GsnpPipeline::new(GsnpConfig {
        window_size: 512,
        ..Default::default()
    })
    .run(&d.reads, &d.reference, &d.priors);

    // Decode the compressed stream, serialize as text, reparse, compare.
    let mut text = Vec::new();
    for t in WindowStream::new(&gsnp.compressed) {
        t.unwrap().write_text(&mut text).unwrap();
    }
    let reparsed = gsnp::seqio::SnpRow::default(); // type anchor
    let _ = reparsed;
    let table = gsnp::seqio::result::SnpTable::read_text(Cursor::new(&text[..])).unwrap();
    assert_eq!(table.rows, gsnp.all_rows());
    assert_eq!(table.start_pos, 0);
}

#[test]
fn truth_recovery_end_to_end() {
    let mut cfg = SynthConfig::tiny(4);
    cfg.num_sites = 12_000;
    cfg.snp_rate = 5e-3;
    let d = Dataset::generate(cfg);
    let out = GsnpPipeline::new(GsnpConfig {
        window_size: 3_000,
        ..Default::default()
    })
    .run(&d.reads, &d.reference, &d.priors);
    let rows = out.all_rows();

    let mut hits = 0usize;
    let mut covered = 0usize;
    for t in &d.truth {
        let row = &rows[t.pos as usize];
        if row.depth >= 6 {
            covered += 1;
            if row.is_variant() {
                hits += 1;
            }
        }
    }
    assert!(covered >= 10, "need covered truth sites, got {covered}");
    assert!(
        hits as f64 / covered as f64 > 0.75,
        "recall {}/{covered}",
        hits
    );
}

#[test]
fn window_boundaries_tile_the_chromosome() {
    let d = small(5);
    for window in [7usize, 64, 333, 5_000] {
        let out = GsnpCpuPipeline::new(GsnpConfig {
            window_size: window,
            ..Default::default()
        })
        .run(&d.reads, &d.reference, &d.priors);
        assert_eq!(out.stats.num_sites, d.config.num_sites, "window {window}");
        let mut next = 0u64;
        for t in &out.tables {
            assert_eq!(t.start_pos, next);
            next += t.len() as u64;
        }
        assert_eq!(next, d.config.num_sites);
    }
}

#[test]
fn empty_chromosome_with_no_reads() {
    let d = small(6);
    let out = GsnpPipeline::new(GsnpConfig::default()).run(&[], &d.reference, &d.priors);
    assert_eq!(out.stats.num_sites, d.config.num_sites);
    assert_eq!(out.stats.snp_count, 0);
    assert!(out
        .all_rows()
        .iter()
        .all(|r| r.depth == 0 && r.genotype == b'N'));
    // And the compressed form of an all-uncalled chromosome is tiny.
    assert!(
        out.compressed.len() < 2_000,
        "{} bytes",
        out.compressed.len()
    );
}

/// A zero window or device count is a named CLI error, for `call` and
/// `call --cohort` alike: nonzero exit, but not a panic (exit 101), and
/// stderr names the offending flag.
#[test]
fn cli_rejects_zero_window_and_devices_with_named_errors() {
    use std::process::Command;

    let gsnp = env!("CARGO_BIN_EXE_gsnp");
    let dir = std::env::temp_dir().join(format!("gsnp-cli-zero-{}", std::process::id()));
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let synth = Command::new(gsnp)
        .args(["synth", dir_s, "--sites", "2000", "--samples", "2"])
        .output()
        .expect("run gsnp synth");
    assert!(synth.status.success(), "synth failed: {synth:?}");
    let path = |f: &str| dir.join(f).to_str().expect("utf-8 path").to_string();
    let (reference, priors) = (path("reference.fa"), path("priors.txt"));
    let single = vec![
        path("s0.soap"),
        reference.clone(),
        priors.clone(),
        path("out.gsnp"),
    ];
    let cohort = vec![
        "--cohort".to_string(),
        path("cohort.tsv"),
        reference,
        priors,
        path("out"),
    ];
    for (cmd, inputs) in [("call", &single), ("call --cohort", &cohort)] {
        for (flag, value) in [("--window", "0"), ("--devices", "0")] {
            let out = Command::new(gsnp)
                .arg("call")
                .args(inputs)
                .args([flag, value])
                .output()
                .expect("run gsnp call");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let code = out.status.code();
            assert!(
                !out.status.success(),
                "{cmd} {flag} 0 must fail, stderr: {stderr}"
            );
            assert_ne!(code, Some(101), "{cmd} {flag} 0 panicked: {stderr}");
            assert!(
                stderr.contains(flag),
                "{cmd} {flag} 0: stderr does not name the flag: {stderr}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
