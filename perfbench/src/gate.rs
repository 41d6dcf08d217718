//! The correctness gate: what every `gsnp` child must write, computed
//! in-process through the library, and the byte comparisons against it.
//!
//! * Single sample: the native and `--cpu` children must both write the
//!   bytes of an in-process native `GsnpPipeline::run`, so the two files are
//!   byte-identical to each other.
//! * Cohort: each `<sample>.gsnp` of `call --cohort` must equal
//!   `GsnpPipeline::run` on that sample with `shared_tables` set from
//!   `SharedTables::calibrate_pooled`; each single-sample `--cpu` child must
//!   equal a plain native run on its sample.
//! * Decode: the text must equal `SnpTable::write_text` of the tables the
//!   in-process run produced.

use std::fs;
use std::path::Path;
use std::sync::Arc;

use gsnp::core::{GsnpConfig, GsnpPipeline};
use gsnp::gpu_sim::BackendChoice;
use gsnp::seqio::result::SnpTable;

use crate::workload::{Loaded, Workload};

/// What one sample's outputs must be.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Sample name (the `.gsnp` stem `call --cohort` writes).
    pub name: String,
    /// `.gsnp` of the native call (the cohort lane on a cohort).
    pub gsnp: Arc<[u8]>,
    /// Decoded text of [`Expected::gsnp`].
    pub text: Arc<[u8]>,
    /// `.gsnp` of a single-sample `--cpu` call on this sample.
    pub cpu_gsnp: Arc<[u8]>,
}

/// The configuration `gsnp call --backend native --window W` runs with.
pub fn call_config(w: &Workload) -> GsnpConfig {
    GsnpConfig {
        window_size: w.window_size(),
        backend: BackendChoice::Native,
        ..GsnpConfig::default()
    }
}

/// Compute every sample's expected outputs in-process.
pub fn expected(w: &Workload, loaded: &Loaded, names: &[String]) -> Vec<Expected> {
    let single = GsnpPipeline::new(call_config(w));
    let pooled = GsnpPipeline::new(GsnpConfig {
        shared_tables: Some(Arc::clone(&loaded.tables)),
        ..call_config(w)
    });
    names
        .iter()
        .zip(&loaded.reads)
        .map(|(name, reads)| {
            let run = |p: &GsnpPipeline| p.run(reads, &loaded.reference, &loaded.priors);
            let out = run(if w.is_cohort() { &pooled } else { &single });
            let gsnp: Arc<[u8]> = out.compressed.into();
            let cpu_gsnp = if w.is_cohort() {
                run(&single).compressed.into()
            } else {
                Arc::clone(&gsnp)
            };
            Expected {
                name: name.clone(),
                gsnp,
                text: render_text(&out.tables).into(),
                cpu_gsnp,
            }
        })
        .collect()
}

/// `SnpTable::write_text` of every table into one buffer.
pub fn render_text(tables: &[SnpTable]) -> Vec<u8> {
    let mut text = Vec::new();
    for t in tables {
        t.write_text(&mut text)
            .expect("writing to a Vec cannot fail");
    }
    text
}

/// Compare two byte strings, naming the first difference.
pub fn check_bytes(what: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .iter()
        .zip(want)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "{what}: {} bytes where {} were expected, first difference at byte {at}",
        got.len(),
        want.len()
    ))
}

/// Compare a file's contents with the expected bytes.
pub fn check_file(path: &Path, want: &[u8]) -> Result<(), String> {
    let got = fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    check_bytes(&path.display().to_string(), &got, want)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_the_first_difference() {
        assert!(check_bytes("x", b"abc", b"abc").is_ok());
        let e = check_bytes("x", b"abd", b"abc").unwrap_err();
        assert!(e.contains("byte 2"), "{e}");
        let e = check_bytes("x", b"ab", b"abc").unwrap_err();
        assert!(e.contains("2 bytes where 3"), "{e}");
    }
}
