//! The closed loop: one client running one `gsnp` child at a time, each
//! checked by the gate before the next starts.
//!
//! A cycle runs the call group — the native call (`call --cohort` on a
//! cohort), then the `--cpu` call of each sample — [`CALL_REPEATS`] times,
//! then the decode group — `decode` of each sample's `.gsnp` — once. Each
//! group run is one sample of every figure it feeds; timings leave out the
//! samples most disturbed by the host (see [`Loop::least_stolen`]).

use std::ffi::OsString;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::child::{self, Usage};
use crate::gate::{self, Expected};
use crate::workload::{InputFiles, Workload};

/// A child still running after this long is killed and counted failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// How far past its budget a loop may run to finish its first cycle.
/// Children still running at the hard stop are killed and counted failed,
/// so a hanging `gsnp` cannot hold a run past its time limit.
pub const GRACE: Duration = Duration::from_secs(30);

/// Call groups per decode group. Decoding costs several times a call per
/// site, so repeating the shorter, noisier calls gives each figure a
/// similar share of the run.
pub const CALL_REPEATS: usize = 3;

/// What an operation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `gsnp call --backend native` (or `call --cohort --backend native`).
    Call,
    /// `gsnp call --cpu` on one sample.
    CpuCall,
    /// `gsnp decode <in.gsnp> <out.txt>` of one sample.
    Decode,
}

/// One child invocation and the files it must write.
#[derive(Debug, Clone)]
pub struct Op {
    /// What it runs.
    pub kind: Kind,
    /// Arguments after the `gsnp` program path.
    pub args: Vec<OsString>,
    /// `(path, expected bytes)` of every output.
    pub outputs: Vec<(PathBuf, Arc<[u8]>)>,
}

/// The operations of one round. `decode_inputs` must already hold each
/// sample's expected `.gsnp` as `<name>.gsnp`; outputs go to `out_dir`.
pub fn plan(
    w: &Workload,
    files: &InputFiles,
    expected: &[Expected],
    decode_inputs: &Path,
    out_dir: &Path,
) -> Vec<Op> {
    let window = w.window_size().to_string();
    let os = |s: &str| OsString::from(s);
    let path = |p: &Path| p.as_os_str().to_owned();
    let common = |out: &Path| {
        vec![
            path(&files.reference),
            path(&files.priors),
            path(out),
            os("-q"),
            os("--window"),
            os(&window),
        ]
    };
    let mut ops = Vec::new();
    if let Some(manifest) = &files.manifest {
        let dir = out_dir.join("cohort");
        let mut args = vec![os("call"), os("--cohort"), path(manifest)];
        args.extend(common(&dir));
        args.extend([os("--backend"), os("native")]);
        ops.push(Op {
            kind: Kind::Call,
            args,
            outputs: expected
                .iter()
                .map(|e| (dir.join(format!("{}.gsnp", e.name)), Arc::clone(&e.gsnp)))
                .collect(),
        });
    } else {
        let out = out_dir.join("native.gsnp");
        let mut args = vec![os("call"), path(&files.samples[0].1)];
        args.extend(common(&out));
        args.extend([os("--backend"), os("native")]);
        ops.push(Op {
            kind: Kind::Call,
            args,
            outputs: vec![(out, Arc::clone(&expected[0].gsnp))],
        });
    }
    for ((name, reads), e) in files.samples.iter().zip(expected) {
        let out = out_dir.join(format!("cpu-{name}.gsnp"));
        let mut args = vec![os("call"), path(reads)];
        args.extend(common(&out));
        args.push(os("--cpu"));
        ops.push(Op {
            kind: Kind::CpuCall,
            args,
            outputs: vec![(out, Arc::clone(&e.cpu_gsnp))],
        });
    }
    for e in expected {
        let out = out_dir.join(format!("{}.txt", e.name));
        ops.push(Op {
            kind: Kind::Decode,
            args: vec![
                os("decode"),
                path(&decode_inputs.join(format!("{}.gsnp", e.name))),
                path(&out),
            ],
            outputs: vec![(out, Arc::clone(&e.text))],
        });
    }
    ops
}

/// Run one operation: clear its outputs, run the child, check its exit and
/// every output against the gate, and clear the outputs again.
pub fn run_op(gsnp: &Path, op: &Op, timeout: Duration) -> Result<Usage, String> {
    let clear = || {
        for (p, _) in &op.outputs {
            let _ = fs::remove_file(p);
        }
    };
    clear();
    let done = child::run(gsnp, &op.args, timeout)
        .map_err(|e| format!("{:?}: cannot run {}: {e}", op.kind, gsnp.display()))?;
    let verdict = if done.exit.success() {
        op.outputs
            .iter()
            .try_for_each(|(p, want)| gate::check_file(p, want))
    } else {
        Err(format!("{:?}: gsnp ended with {:?}", op.kind, done.exit))
    };
    clear();
    verdict.map(|()| done.usage)
}

/// Every operation's outcome in one group run, in plan order.
pub type Group = Vec<(Kind, Result<Usage, String>)>;

/// Group runs until `budget` has elapsed (at least one cycle, cut short at
/// `budget` + [`GRACE`]), with every operation counted as attempted and
/// each failure kept.
#[derive(Debug, Default)]
pub struct Loop {
    /// The group runs, in order.
    pub groups: Vec<Group>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that exited nonzero, timed out or failed the gate.
    pub failures: Vec<String>,
}

/// Run cycles of `ops` until `budget` has elapsed.
pub fn run_loop(gsnp: &Path, ops: &[Op], budget: Duration) -> Loop {
    let (decode, call): (Vec<&Op>, Vec<&Op>) = ops.iter().partition(|o| o.kind == Kind::Decode);
    let t0 = Instant::now();
    let hard_stop = t0 + budget + GRACE;
    let mut out = Loop::default();
    let cycle = std::iter::repeat_n(&call, CALL_REPEATS).chain([&decode]);
    for (i, group) in cycle.cycle().enumerate() {
        // Stop at the first group boundary past the budget, once every
        // group has run.
        if (i > CALL_REPEATS && t0.elapsed() >= budget) || Instant::now() >= hard_stop {
            break;
        }
        let run: Group = group
            .iter()
            .map(|op| {
                let left = hard_stop.saturating_duration_since(Instant::now());
                (op.kind, run_op(gsnp, op, left.min(OP_TIMEOUT)))
            })
            .collect();
        for (_, r) in &run {
            out.attempted += 1;
            if let Err(e) = r {
                out.failures.push(e.clone());
            }
        }
        out.groups.push(run);
    }
    if out.groups.len() <= CALL_REPEATS {
        out.attempted += 1;
        out.failures
            .push("hard stop reached before every group had run once".to_string());
    }
    out
}

impl Loop {
    /// Per group run whose `kind` operations all passed: the share of
    /// machine CPU time the host stole while they ran, and `field` summed
    /// over them.
    pub fn per_group(&self, kind: Kind, field: impl Fn(&Usage) -> f64) -> Vec<(f64, f64)> {
        self.groups
            .iter()
            .filter_map(|g| {
                let usages = kind_usages(g, kind)?;
                Some((steal_of(&usages), usages.into_iter().map(&field).sum()))
            })
            .collect()
    }

    /// [`Loop::per_group`] values of the group runs during which the host
    /// stole no more CPU time than in the least-stolen half of them (rounded
    /// up): every run when the host is quiet, the calmer half when it is
    /// not. Stolen time stretches wall time by whatever the hypervisor's
    /// other tenants do; this keeps a run's median about the program.
    pub fn least_stolen(&self, kind: Kind, field: impl Fn(&Usage) -> f64) -> Vec<f64> {
        let mut runs = self.per_group(kind, field);
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let Some(&(cut, _)) = runs.get(runs.len().div_ceil(2).saturating_sub(1)) else {
            return Vec::new();
        };
        runs.into_iter()
            .filter(|&(steal, _)| steal <= cut)
            .map(|(_, v)| v)
            .collect()
    }

    /// Median host steal share over the group runs with `kind` operations.
    pub fn steal_frac(&self, kind: Kind) -> f64 {
        let steal: Vec<f64> = self
            .per_group(kind, |_| 0.0)
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        crate::report::median(&steal)
    }
}

/// The usages of a group run's `kind` operations; `None` if it has none or
/// one of them failed.
fn kind_usages(g: &Group, kind: Kind) -> Option<Vec<&Usage>> {
    let usages: Option<Vec<&Usage>> = g
        .iter()
        .filter(|(k, _)| *k == kind)
        .map(|(_, r)| r.as_ref().ok())
        .collect();
    usages.filter(|u| !u.is_empty())
}

/// Wall-weighted host steal share over some operations.
fn steal_of(usages: &[&Usage]) -> f64 {
    let wall: f64 = usages.iter().map(|u| u.wall_s).sum();
    let stolen: f64 = usages.iter().map(|u| u.steal_frac * u.wall_s).sum();
    if wall > 0.0 {
        stolen / wall
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(wall_s: f64, steal_frac: f64) -> Usage {
        Usage {
            wall_s,
            steal_frac,
            ..Usage::default()
        }
    }

    #[test]
    fn times_the_least_stolen_half_and_skips_failed_groups() {
        let lp = Loop {
            groups: vec![
                vec![(Kind::Call, Ok(usage(1.0, 0.30)))],
                vec![(Kind::Call, Ok(usage(2.0, 0.00)))],
                vec![(Kind::Decode, Ok(usage(9.0, 0.00)))],
                vec![(Kind::Call, Ok(usage(3.0, 0.10)))],
                vec![(Kind::Call, Err("failed".into()))],
                vec![
                    (Kind::Call, Ok(usage(4.0, 0.20))),
                    (Kind::CpuCall, Ok(usage(5.0, 0.9))),
                ],
            ],
            ..Loop::default()
        };
        assert_eq!(lp.per_group(Kind::Call, |u| u.wall_s).len(), 4);
        assert_eq!(lp.least_stolen(Kind::Call, |u| u.wall_s), vec![2.0, 3.0]);
        let quiet = Loop {
            groups: (1..=4)
                .map(|i| vec![(Kind::Call, Ok(usage(f64::from(i), 0.0)))])
                .collect(),
            ..Loop::default()
        };
        assert_eq!(quiet.least_stolen(Kind::Call, |u| u.wall_s).len(), 4);
        assert_eq!(lp.least_stolen(Kind::Decode, |u| u.wall_s), vec![9.0]);
        assert!((lp.steal_frac(Kind::Call) - 0.15).abs() < 1e-12);
    }
}
