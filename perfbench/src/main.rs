//! `perfbench --gsnp <path> --work-dir <dir> --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints the result as one JSON line, the last
//! line of stdout. Exits nonzero without a result when the run cannot be
//! made. Normally started through `perfbench/run.sh`, which builds the
//! binaries first.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::workload::{Workload, WORKLOADS};
use perfbench::Options;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(|o| perfbench::run(&o)) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let value = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let name = value("--workload")?;
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let workload = Workload::by_name(name)
        .ok_or_else(|| format!("unknown workload {name:?} (expected one of {names:?})"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    Ok(Options {
        workload,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
        gsnp: PathBuf::from(value("--gsnp")?),
        work_dir: PathBuf::from(value("--work-dir")?),
    })
}
