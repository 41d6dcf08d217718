//! Shared helpers: the release `gsnp` binary and per-test scratch dirs.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use perfbench::workload::Workload;
use perfbench::Options;

/// Build (once per test binary) and locate the release `gsnp` binary of
/// the repository this benchmark sits in.
pub fn gsnp_bin() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark lives inside the repository")
            .to_path_buf();
        let target = match std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from) {
            Some(t) if t.is_absolute() => t,
            Some(t) => root.join(t),
            None => root.join("target"),
        };
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "gsnp",
            ])
            .arg("--manifest-path")
            .arg(root.join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("run cargo");
        assert!(status.success(), "building gsnp failed");
        target.join("release").join("gsnp")
    })
}

/// A fresh scratch directory for one test.
pub fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Options for a tiny, short run of `workload`.
pub fn tiny(workload: &str, seed: u64, trace: bool, work_dir: PathBuf) -> Options {
    Options {
        workload: Workload::by_name(workload)
            .expect("known workload")
            .scaled(0.05),
        seed,
        seconds: 0.2,
        trace,
        gsnp: gsnp_bin().to_path_buf(),
        work_dir,
    }
}
