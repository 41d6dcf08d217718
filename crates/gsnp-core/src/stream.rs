//! Streaming pipeline executor support (§IV overlap, DESIGN.md §4).
//!
//! The GSNP window loop decomposes into four stages with no data
//! dependencies *across* windows:
//!
//! ```text
//! producer (read_site) ─► device (counting+likelihood) ─► posterior ─► output
//! ```
//!
//! The window-loop executor in [`crate::pipeline`] (behind both
//! [`crate::pipeline::GsnpPipeline`] and [`crate::cohort::CohortPipeline`])
//! runs these stages on dedicated host threads connected by bounded
//! channels of configurable depth (`GsnpConfig::pipeline_depth`), so
//! window *k*'s host-side work overlaps window *k+1*'s device work — the
//! double-buffering a CUDA implementation gets from streams. This module
//! holds the pieces shared by that executor and by the parallel SOAPsnp
//! serializer:
//!
//! * [`OrderedReassembler`] — restores window-index order on the output
//!   side, which is what keeps the compressed result file byte-identical
//!   to a serial run (§IV-G).
//! * [`RunEvent`] — the one record the executor emits per timed interval:
//!   a stage span or a device-lane batch. Every observer (stats,
//!   histograms, trace, journal, live tracker) is a fold over this stream.
//! * [`StageStats`] / [`OverlapStats`] — the stats fold: per-stage busy and
//!   stall time, from which the achieved pipeline depth is derived.
//! * [`PipelineTrace`] — the trace fold (`GsnpConfig::trace`): one span
//!   track per pipeline stage and per device lane under a `"pipeline"`
//!   process, plus steal instants. [`verify_overlap_consistency`] checks
//!   that the two folds of one stream agree.

use std::collections::BTreeMap;
use std::sync::Arc;

use gpu_sim::trace::{NameId, SpanArgs, TraceRecorder, TraceSnapshot, TrackId, TrackKind};

/// Restores stream order at a pipeline's ordered sink.
///
/// Stages may hand windows over in any order (and a future multi-worker
/// stage certainly would); the sink pushes each `(index, item)` pair here
/// and receives back every item that is now ready to be emitted, strictly
/// in index order starting at 0.
#[derive(Debug)]
pub struct OrderedReassembler<T> {
    next: usize,
    pending: BTreeMap<usize, T>,
}

impl<T> Default for OrderedReassembler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OrderedReassembler<T> {
    /// An empty reassembler expecting index 0 first.
    pub fn new() -> Self {
        OrderedReassembler {
            next: 0,
            pending: BTreeMap::new(),
        }
    }

    /// Offer item `idx`; returns all items that became emittable, in
    /// index order.
    ///
    /// # Panics
    /// Panics if an index is offered twice.
    pub fn push(&mut self, idx: usize, item: T) -> Vec<T> {
        let mut ready = Vec::new();
        ready.extend(self.offer(idx, item));
        while let Some(item) = self.pop_ready() {
            ready.push(item);
        }
        ready
    }

    /// Offer item `idx`; hands it straight back when it is the next
    /// expected index (the common in-order case — no buffering, no
    /// allocation), buffers it otherwise. After a `Some` return, drain
    /// [`Self::pop_ready`] for any successors the item unblocked.
    ///
    /// # Panics
    /// Panics if an index is offered twice.
    pub fn offer(&mut self, idx: usize, item: T) -> Option<T> {
        if idx == self.next {
            self.next += 1;
            return Some(item);
        }
        assert!(
            idx > self.next,
            "window index {idx} reassembled twice (next is {})",
            self.next
        );
        let prev = self.pending.insert(idx, item);
        assert!(prev.is_none(), "window index {idx} reassembled twice");
        None
    }

    /// Pop the next in-order item if a previous out-of-order offer
    /// buffered it, else `None`.
    pub fn pop_ready(&mut self) -> Option<T> {
        let item = self.pending.remove(&self.next)?;
        self.next += 1;
        Some(item)
    }

    /// Items buffered out of order, awaiting a predecessor.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Next index the sink is waiting for.
    pub fn next_index(&self) -> usize {
        self.next
    }

    /// True once everything offered has also been emitted.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }
}

/// A window-loop stage, as named by a [`RunEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The producer (`read_site`).
    Read,
    /// Device worker `i` (counting + likelihood + recycle).
    Lane(usize),
    /// Posterior genotyping.
    Posterior,
    /// Reassembly + compressed output.
    Output,
}

impl Stage {
    /// Position in [`crate::progress::STAGE_NAMES`] order; every device
    /// lane maps to the one device stage.
    pub fn index(self) -> usize {
        match self {
            Stage::Read => 0,
            Stage::Lane(_) => 1,
            Stage::Posterior => 2,
            Stage::Output => 3,
        }
    }
}

/// What a stage spent a [`RunEvent::Span`] doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The stage's own work.
    Busy,
    /// Blocked receiving from the upstream channel.
    StallIn,
    /// Blocked waiting for capacity in the downstream channel.
    StallOut,
}

/// One timed interval of the window loop. The executor records each
/// interval exactly once; [`OverlapStats`], the latency histograms, the
/// live tracker, [`PipelineTrace`] and the run journal all fold the same
/// value, so they agree by construction. `ts` is on the trace epoch
/// ([`PipelineTrace::now`]) and 0 when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunEvent {
    /// `stage` spent `[ts, ts + dur)` in `phase`. A device lane's busy
    /// time arrives as [`RunEvent::Batch`] instead.
    Span {
        /// Stage the interval belongs to.
        stage: Stage,
        /// What the stage was doing.
        phase: Phase,
        /// Start, trace-epoch seconds.
        ts: f64,
        /// Duration, seconds.
        dur: f64,
    },
    /// Device lane `lane` scored launch batch `idx` — `windows` windows
    /// with global indices from `first_window`, covering `sites` sites —
    /// busy over `[ts, ts + busy)`.
    Batch {
        /// Device lane that scored the batch.
        lane: usize,
        /// Launch-batch index.
        idx: usize,
        /// Global index of the batch's first window.
        first_window: u64,
        /// Windows in the batch, over all samples.
        windows: u64,
        /// Sites in the batch.
        sites: u64,
        /// Start, trace-epoch seconds.
        ts: f64,
        /// Lane busy time, seconds.
        busy: f64,
        /// The batch ran off its round-robin home lane (`idx % lanes !=
        /// lane`): a steal, counted once per window.
        stolen: bool,
    },
}

impl RunEvent {
    /// A [`RunEvent::Span`].
    pub fn span(stage: Stage, phase: Phase, ts: f64, dur: f64) -> Self {
        RunEvent::Span {
            stage,
            phase,
            ts,
            dur,
        }
    }
}

/// Busy/stall breakdown for one pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageStats {
    /// Seconds spent doing the stage's own work.
    pub busy: f64,
    /// Seconds blocked waiting to receive from the upstream channel.
    pub stall_in: f64,
    /// Seconds blocked waiting for capacity in the downstream channel.
    pub stall_out: f64,
}

impl StageStats {
    /// Busy plus both stall components.
    pub fn total(&self) -> f64 {
        self.busy + self.stall_in + self.stall_out
    }

    fn add(&mut self, phase: Phase, dur: f64) {
        match phase {
            Phase::Busy => self.busy += dur,
            Phase::StallIn => self.stall_in += dur,
            Phase::StallOut => self.stall_out += dur,
        }
    }
}

/// Busy/stall/steal accounting for one device worker of the sharded
/// device stage (`GsnpConfig::num_devices`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceLaneStats {
    /// Stage accounting for this worker alone.
    pub stage: StageStats,
    /// Windows this worker processed.
    pub windows: u64,
    /// Windows processed off their round-robin home device: window `k`
    /// "belongs" to device `k % N`, and the shared work-queue hands it to
    /// whichever worker is free first. A nonzero count is the signature of
    /// dynamic dispatch doing what static round-robin cannot — keeping a
    /// device busy while a sibling chews a skewed window.
    pub steals: u64,
}

/// Pipeline-overlap accounting for one run of the window loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverlapStats {
    /// Configured channel depth (1 = serial execution).
    pub depth: usize,
    /// Producer stage (`read_site`).
    pub read: StageStats,
    /// Device stage (`counting` + `likelihood_sort` + `likelihood_comp`
    /// + `recycle`), summed across all device workers.
    pub device: StageStats,
    /// Per-device-worker breakdown of the device stage, in device order.
    /// One entry even when `num_devices = 1`; empty for the CPU pipeline.
    pub devices: Vec<DeviceLaneStats>,
    /// Posterior stage.
    pub posterior: StageStats,
    /// Output stage (column compression + serialization).
    pub output: StageStats,
    /// Wall-clock of the window loop, start of first window to last byte
    /// written.
    pub wall: f64,
}

impl OverlapStats {
    /// Fold one event into the totals. A lane's intervals also count
    /// toward the summed [`OverlapStats::device`] stage.
    pub fn record(&mut self, ev: &RunEvent) {
        let (stage, phase, dur) = match *ev {
            RunEvent::Span {
                stage, phase, dur, ..
            } => (stage, phase, dur),
            RunEvent::Batch {
                lane,
                windows,
                busy,
                stolen,
                ..
            } => {
                let l = self.lane(lane);
                l.windows += windows;
                l.steals += if stolen { windows } else { 0 };
                (Stage::Lane(lane), Phase::Busy, busy)
            }
        };
        match stage {
            Stage::Read => self.read.add(phase, dur),
            Stage::Lane(i) => {
                self.lane(i).stage.add(phase, dur);
                self.device.add(phase, dur);
            }
            Stage::Posterior => self.posterior.add(phase, dur),
            Stage::Output => self.output.add(phase, dur),
        }
    }

    fn lane(&mut self, i: usize) -> &mut DeviceLaneStats {
        if i >= self.devices.len() {
            self.devices.resize(i + 1, DeviceLaneStats::default());
        }
        &mut self.devices[i]
    }

    /// Total busy time across all stages.
    pub fn busy_total(&self) -> f64 {
        self.read.busy + self.device.busy + self.posterior.busy + self.output.busy
    }

    /// Achieved pipeline depth: how many stages were busy at once, on
    /// average. 1.0 means no overlap (serial); the upper bound is the
    /// number of stages plus any extra device workers.
    pub fn achieved_depth(&self) -> f64 {
        if self.wall > 0.0 {
            self.busy_total() / self.wall
        } else {
            0.0
        }
    }

    /// Windows stolen off their home device, summed over all workers.
    pub fn steals_total(&self) -> u64 {
        self.devices.iter().map(|d| d.steals).sum()
    }
}

/// The trace fold: host-side pipeline tracks of the tracing subsystem —
/// one span track per stage (`read_site`, `posterior`, `output`) plus one
/// per device lane, all under a `"pipeline"` process stamped with host
/// wall clock (the device processes run on their simulated clocks — see
/// `gpu_sim::trace`). [`PipelineTrace::record`] turns each [`RunEvent`]
/// into spans carrying the **identical** `f64` durations that
/// [`OverlapStats::record`] adds, which is what lets
/// [`verify_overlap_consistency`] reconcile the two folds to
/// floating-point regrouping error.
///
/// Tracks and names are registered at construction; recording is
/// allocation-free.
pub struct PipelineTrace {
    rec: Arc<TraceRecorder>,
    /// Track per [`Stage::index`]; the lane slot is unused (see `lanes`).
    stages: [TrackId; 4],
    lanes: Vec<TrackId>,
    /// Busy-span name per [`Stage::index`]: a lane's busy spans are
    /// per-window `window` spans.
    busy: [NameId; 4],
    stall_in: NameId,
    stall_out: NameId,
    steal: NameId,
}

/// Thread label of device lane `i` in the pipeline process.
fn lane_thread(i: usize) -> String {
    format!("device lane {i}")
}

impl PipelineTrace {
    /// Register the pipeline-process tracks on `rec` for a run with
    /// `num_devices` device lanes.
    pub fn new(rec: &Arc<TraceRecorder>, num_devices: usize) -> Self {
        let track = |thread: &str| rec.register_track("pipeline", thread, TrackKind::Spans);
        let read = track("read_site");
        let lanes: Vec<TrackId> = (0..num_devices.max(1))
            .map(|i| track(&lane_thread(i)))
            .collect();
        let stages = [read, lanes[0], track("posterior"), track("output")];
        PipelineTrace {
            stages,
            lanes,
            busy: ["read_site", "window", "posterior", "output"].map(|n| rec.intern(n)),
            stall_in: rec.intern("stall_in"),
            stall_out: rec.intern("stall_out"),
            steal: rec.intern("steal"),
            rec: Arc::clone(rec),
        }
    }

    /// Host wall-clock seconds since the recorder's epoch (span `ts`
    /// values for every pipeline track).
    pub fn now(&self) -> f64 {
        self.rec.now()
    }

    /// Fold one event into the trace. A batch becomes one steal instant
    /// per window when stolen, then one `window` span per window slicing
    /// its busy interval evenly — the trace verifier requires one span per
    /// window whose durations sum to the lane's busy time.
    pub fn record(&self, ev: &RunEvent) {
        match *ev {
            RunEvent::Span {
                stage,
                phase,
                ts,
                dur,
            } => {
                let track = match stage {
                    Stage::Lane(i) => self.lanes[i],
                    s => self.stages[s.index()],
                };
                let name = match phase {
                    Phase::Busy => self.busy[stage.index()],
                    Phase::StallIn => self.stall_in,
                    Phase::StallOut => self.stall_out,
                };
                self.rec.span(track, name, ts, dur, SpanArgs::None);
            }
            RunEvent::Batch {
                lane,
                first_window,
                windows,
                ts,
                busy,
                stolen,
                ..
            } => {
                let track = self.lanes[lane];
                if stolen {
                    for _ in 0..windows {
                        self.rec.instant(track, self.steal, ts);
                    }
                }
                let slice = busy / windows as f64;
                for j in 0..windows {
                    self.rec.span(
                        track,
                        self.busy[Stage::Lane(lane).index()],
                        ts + slice * j as f64,
                        slice,
                        SpanArgs::Window {
                            index: first_window + j,
                        },
                    );
                }
            }
        }
    }
}

/// Absolute tolerance for busy/stall reconciliation. The trace and stats
/// folds see identical `f64` durations, so per-track sums in record order
/// reproduce the stats fold bit-for-bit; a device lane's per-window spans
/// slice each batch's busy interval, and the regrouping error of
/// re-summing the slices sits orders of magnitude below this bound.
const CONSISTENCY_TOL: f64 = 1e-9;

/// Verify that the trace fold and the stats fold of one run agree: every
/// stage's and device lane's busy/stall totals in `overlap` equal the
/// summed durations of the matching pipeline-trace spans, and each lane's
/// window and steal counts match its `window` spans and `steal` instants.
/// Returns `Ok` vacuously when the ring dropped events, since span sums
/// are then incomplete by construction.
pub fn verify_overlap_consistency(
    snap: &TraceSnapshot,
    overlap: &OverlapStats,
) -> Result<(), String> {
    if snap.dropped > 0 {
        return Ok(()); // ring overflowed: span sums are lower bounds only
    }
    let track = |thread: &str| -> Result<TrackId, String> {
        snap.tracks
            .iter()
            .position(|t| t.process == "pipeline" && t.thread == thread)
            .map(|i| TrackId(i as u32))
            .ok_or_else(|| format!("pipeline trace has no {thread:?} track"))
    };
    // (label, track, busy-span name, stats fold) for every stage track.
    let mut stages = vec![
        (
            "read".to_string(),
            track("read_site")?,
            "read_site",
            overlap.read,
        ),
        (
            "posterior".to_string(),
            track("posterior")?,
            "posterior",
            overlap.posterior,
        ),
        (
            "output".to_string(),
            track("output")?,
            "output",
            overlap.output,
        ),
    ];
    for (i, lane) in overlap.devices.iter().enumerate() {
        let t = track(&lane_thread(i))?;
        let count = |name: &str| snap.count_events(t, name) as u64;
        let (windows, steals) = (count("window"), count("steal"));
        if (windows, steals) != (lane.windows, lane.steals) {
            return Err(format!(
                "lane {i}: trace has {windows} windows and {steals} steal events, \
                 OverlapStats {} windows and {} steals",
                lane.windows, lane.steals
            ));
        }
        stages.push((format!("lane {i}"), t, "window", lane.stage));
    }
    for (what, t, busy_name, st) in &stages {
        for (phase, name, stats) in [
            ("busy", *busy_name, st.busy),
            ("stall_in", "stall_in", st.stall_in),
            ("stall_out", "stall_out", st.stall_out),
        ] {
            let spans = snap.sum_span_durations(*t, name);
            if (stats - spans).abs() > CONSISTENCY_TOL {
                return Err(format!(
                    "{what} {phase}: OverlapStats has {stats} s but trace spans sum to {spans} s"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_input_passes_through() {
        let mut r = OrderedReassembler::new();
        for i in 0..5 {
            let ready = r.push(i, i * 10);
            assert_eq!(ready, vec![i * 10]);
        }
        assert!(r.is_drained());
        assert_eq!(r.next_index(), 5);
    }

    #[test]
    fn out_of_order_input_is_buffered_until_ready() {
        let mut r = OrderedReassembler::new();
        assert!(r.push(2, "c").is_empty());
        assert!(r.push(1, "b").is_empty());
        assert_eq!(r.pending(), 2);
        assert_eq!(r.push(0, "a"), vec!["a", "b", "c"]);
        assert!(r.is_drained());
        assert_eq!(r.push(4, "e"), Vec::<&str>::new());
        assert_eq!(r.push(3, "d"), vec!["d", "e"]);
    }

    #[test]
    #[should_panic(expected = "reassembled twice")]
    fn duplicate_index_panics() {
        let mut r = OrderedReassembler::new();
        let _ = r.push(1, ());
        let _ = r.push(1, ());
    }

    #[test]
    #[should_panic(expected = "reassembled twice")]
    fn already_emitted_index_panics() {
        let mut r = OrderedReassembler::new();
        let _ = r.push(0, ());
        let _ = r.offer(0, ());
    }

    #[test]
    fn offer_fast_path_and_pop_ready_drain() {
        let mut r = OrderedReassembler::new();
        // In-order offers hand the item straight back.
        assert_eq!(r.offer(0, "a"), Some("a"));
        assert_eq!(r.pop_ready(), None);
        // Out-of-order offers buffer until the gap closes.
        assert_eq!(r.offer(2, "c"), None);
        assert_eq!(r.offer(3, "d"), None);
        assert_eq!(r.pop_ready(), None);
        assert_eq!(r.offer(1, "b"), Some("b"));
        assert_eq!(r.pop_ready(), Some("c"));
        assert_eq!(r.pop_ready(), Some("d"));
        assert_eq!(r.pop_ready(), None);
        assert!(r.is_drained());
        assert_eq!(r.next_index(), 4);
    }

    /// A bounded channel between a fast producer and a reordering consumer
    /// must neither deadlock nor emit out of order — the exact topology the
    /// streaming executor's output stage uses.
    #[test]
    fn bounded_channel_reassembly_is_ordered_under_stall() {
        use crossbeam::channel::bounded;
        let (tx, rx) = bounded::<(usize, u32)>(2);
        let producer = std::thread::spawn(move || {
            // Emit with a scrambled order inside each group of three; the
            // bounded channel forces the producer to stall on a full
            // buffer while the consumer is busy reassembling.
            for group in 0u32..40 {
                let base = (group * 3) as usize;
                for off in [2usize, 0, 1] {
                    tx.send((base + off, (base + off) as u32)).unwrap();
                }
            }
        });
        let mut r = OrderedReassembler::new();
        let mut emitted = Vec::new();
        for (idx, v) in rx.iter() {
            emitted.extend(r.push(idx, v));
            if emitted.len() < 6 {
                // Hold the consumer back long enough for the channel to fill.
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        producer.join().unwrap();
        assert!(r.is_drained());
        assert_eq!(emitted, (0u32..120).collect::<Vec<_>>());
    }

    #[test]
    fn consistency_verifier_accepts_matching_accounting() {
        let rec = Arc::new(TraceRecorder::new(256));
        let pt = PipelineTrace::new(&rec, 2);
        let span = RunEvent::span;
        let batch = |lane, idx, first_window, ts, busy, stolen| RunEvent::Batch {
            lane,
            idx,
            first_window,
            windows: 1,
            sites: 100,
            ts,
            busy,
            stolen,
        };
        let mut fold = OverlapStats {
            depth: 2,
            ..Default::default()
        };
        for ev in [
            span(Stage::Read, Phase::Busy, 0.0, 1.5),
            span(Stage::Read, Phase::StallOut, 1.5, 0.25),
            span(Stage::Lane(0), Phase::StallIn, 0.0, 0.1),
            batch(0, 0, 0, 0.1, 2.0, false),
            batch(1, 2, 1, 0.0, 1.0, true),
            span(Stage::Lane(1), Phase::StallOut, 1.0, 0.5),
            span(Stage::Posterior, Phase::Busy, 2.0, 0.75),
            span(Stage::Posterior, Phase::StallIn, 0.0, 2.0),
            span(Stage::Output, Phase::Busy, 3.0, 0.5),
            span(Stage::Output, Phase::StallIn, 0.0, 3.0),
        ] {
            pt.record(&ev);
            fold.record(&ev);
        }
        fold.wall = 3.5;
        let overlap = OverlapStats {
            depth: 2,
            read: StageStats {
                busy: 1.5,
                stall_out: 0.25,
                ..Default::default()
            },
            device: StageStats {
                busy: 3.0,
                stall_in: 0.1,
                stall_out: 0.5,
            },
            devices: vec![
                DeviceLaneStats {
                    stage: StageStats {
                        busy: 2.0,
                        stall_in: 0.1,
                        ..Default::default()
                    },
                    windows: 1,
                    steals: 0,
                },
                DeviceLaneStats {
                    stage: StageStats {
                        busy: 1.0,
                        stall_out: 0.5,
                        ..Default::default()
                    },
                    windows: 1,
                    steals: 1,
                },
            ],
            posterior: StageStats {
                busy: 0.75,
                stall_in: 2.0,
                ..Default::default()
            },
            output: StageStats {
                busy: 0.5,
                stall_in: 3.0,
                ..Default::default()
            },
            wall: 3.5,
        };
        assert_eq!(fold, overlap, "the stats fold matches the hand tally");
        verify_overlap_consistency(&rec.snapshot(), &overlap)
            .expect("matching accounting must verify");

        // Drift in any lane total must be caught.
        let mut drifted = overlap.clone();
        drifted.devices[0].stage.busy += 0.5;
        let err = verify_overlap_consistency(&rec.snapshot(), &drifted).unwrap_err();
        assert!(err.contains("lane 0 busy"), "unexpected error: {err}");

        // A missing steal event must be caught too.
        let mut drifted = overlap;
        drifted.devices[1].steals = 2;
        assert!(verify_overlap_consistency(&rec.snapshot(), &drifted)
            .unwrap_err()
            .contains("steal"));
    }

    #[test]
    fn consistency_verifier_is_vacuous_after_ring_overflow() {
        let rec = Arc::new(TraceRecorder::new(2));
        let pt = PipelineTrace::new(&rec, 1);
        for _ in 0..8 {
            pt.record(&RunEvent::span(Stage::Read, Phase::Busy, 0.0, 1.0));
        }
        assert!(rec.dropped() > 0);
        // Totals that cannot possibly match the surviving spans still pass.
        let overlap = OverlapStats {
            devices: vec![DeviceLaneStats::default()],
            ..Default::default()
        };
        verify_overlap_consistency(&rec.snapshot(), &overlap)
            .expect("dropped ring must not fail verification");
    }

    #[test]
    fn overlap_stats_report_achieved_depth() {
        let s = OverlapStats {
            depth: 2,
            read: StageStats {
                busy: 1.0,
                ..Default::default()
            },
            device: StageStats {
                busy: 2.0,
                stall_in: 0.5,
                stall_out: 0.25,
            },
            posterior: StageStats {
                busy: 0.5,
                ..Default::default()
            },
            output: StageStats {
                busy: 0.5,
                ..Default::default()
            },
            wall: 2.5,
            ..Default::default()
        };
        assert!((s.busy_total() - 4.0).abs() < 1e-12);
        assert!((s.achieved_depth() - 1.6).abs() < 1e-12);
        assert!((s.device.total() - 2.75).abs() < 1e-12);
        assert_eq!(OverlapStats::default().achieved_depth(), 0.0);
    }
}
