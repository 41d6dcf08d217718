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
//! * [`StageStats`] / [`OverlapStats`] — per-stage busy and stall time,
//!   from which the achieved pipeline depth is derived.
//! * [`PipelineTrace`] — the host-side tracks of the tracing subsystem
//!   (`GsnpConfig::trace`): one span track per pipeline stage and per
//!   device lane under a `"pipeline"` process, recording the *same*
//!   busy/stall durations that land in [`StageStats`], plus steal
//!   instants. [`verify_overlap_consistency`] cross-checks the two
//!   accounting systems against each other.

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

/// Host-side pipeline tracks of the tracing subsystem: one span track per
/// stage (`read_site`, `posterior`, `output`) plus one per device lane,
/// all under a `"pipeline"` process stamped with host wall clock (the
/// device processes run on their simulated clocks — see
/// `gpu_sim::trace`). Every span records the **identical** `f64` duration
/// the stage adds to its [`StageStats`], which is what lets
/// [`verify_overlap_consistency`] reconcile the two systems to
/// floating-point regrouping error.
///
/// Tracks and names are registered at construction; recording methods are
/// allocation-free.
pub struct PipelineTrace {
    rec: Arc<TraceRecorder>,
    read: TrackId,
    lanes: Vec<TrackId>,
    posterior: TrackId,
    output: TrackId,
    n_read: NameId,
    n_stall_in: NameId,
    n_stall_out: NameId,
    n_window: NameId,
    n_steal: NameId,
    n_posterior: NameId,
    n_output: NameId,
}

/// Thread label of device lane `i` in the pipeline process.
fn lane_thread(i: usize) -> String {
    format!("device lane {i}")
}

impl PipelineTrace {
    /// Register the pipeline-process tracks on `rec` for a run with
    /// `num_devices` device lanes.
    pub fn new(rec: &Arc<TraceRecorder>, num_devices: usize) -> Self {
        PipelineTrace {
            read: rec.register_track("pipeline", "read_site", TrackKind::Spans),
            lanes: (0..num_devices.max(1))
                .map(|i| rec.register_track("pipeline", &lane_thread(i), TrackKind::Spans))
                .collect(),
            posterior: rec.register_track("pipeline", "posterior", TrackKind::Spans),
            output: rec.register_track("pipeline", "output", TrackKind::Spans),
            n_read: rec.intern("read_site"),
            n_stall_in: rec.intern("stall_in"),
            n_stall_out: rec.intern("stall_out"),
            n_window: rec.intern("window"),
            n_steal: rec.intern("steal"),
            n_posterior: rec.intern("posterior"),
            n_output: rec.intern("output"),
            rec: Arc::clone(rec),
        }
    }

    /// Host wall-clock seconds since the recorder's epoch (span `ts`
    /// values for every pipeline track).
    pub fn now(&self) -> f64 {
        self.rec.now()
    }

    /// Producer busy span (decompression or one window's `read_site`).
    pub fn read_span(&self, ts: f64, dur: f64) {
        self.rec
            .span(self.read, self.n_read, ts, dur, SpanArgs::None);
    }

    /// Producer blocked on downstream channel capacity.
    pub fn read_stall_out(&self, ts: f64, dur: f64) {
        self.rec
            .span(self.read, self.n_stall_out, ts, dur, SpanArgs::None);
    }

    /// Device lane `lane` busy on window `window`.
    pub fn lane_window(&self, lane: usize, ts: f64, dur: f64, window: u64) {
        self.rec.span(
            self.lanes[lane],
            self.n_window,
            ts,
            dur,
            SpanArgs::Window { index: window },
        );
    }

    /// Device lane blocked waiting for a window.
    pub fn lane_stall_in(&self, lane: usize, ts: f64, dur: f64) {
        self.rec
            .span(self.lanes[lane], self.n_stall_in, ts, dur, SpanArgs::None);
    }

    /// Device lane blocked handing a scored window downstream.
    pub fn lane_stall_out(&self, lane: usize, ts: f64, dur: f64) {
        self.rec
            .span(self.lanes[lane], self.n_stall_out, ts, dur, SpanArgs::None);
    }

    /// Lane processed a window off its round-robin home device.
    pub fn lane_steal(&self, lane: usize, ts: f64) {
        self.rec.instant(self.lanes[lane], self.n_steal, ts);
    }

    /// Posterior busy span.
    pub fn posterior_span(&self, ts: f64, dur: f64) {
        self.rec
            .span(self.posterior, self.n_posterior, ts, dur, SpanArgs::None);
    }

    /// Posterior blocked on its input channel.
    pub fn posterior_stall_in(&self, ts: f64, dur: f64) {
        self.rec
            .span(self.posterior, self.n_stall_in, ts, dur, SpanArgs::None);
    }

    /// Posterior blocked on the output channel.
    pub fn posterior_stall_out(&self, ts: f64, dur: f64) {
        self.rec
            .span(self.posterior, self.n_stall_out, ts, dur, SpanArgs::None);
    }

    /// Output busy span (reassembly + compression + serialization).
    pub fn output_span(&self, ts: f64, dur: f64) {
        self.rec
            .span(self.output, self.n_output, ts, dur, SpanArgs::None);
    }

    /// Output blocked waiting for called windows.
    pub fn output_stall_in(&self, ts: f64, dur: f64) {
        self.rec
            .span(self.output, self.n_stall_in, ts, dur, SpanArgs::None);
    }

    /// Cross-check this trace against the run's [`OverlapStats`] (see
    /// [`verify_overlap_consistency`]).
    pub fn verify(&self, overlap: &OverlapStats) -> Result<(), String> {
        verify_overlap_consistency(&self.rec.snapshot(), overlap)
    }
}

/// Absolute tolerance for busy/stall reconciliation. Spans carry the
/// identical `f64` values the stage accumulators add, so per-track sums in
/// record order reproduce the accumulator bit-for-bit; a device lane's
/// per-window spans slice each batch's busy interval, and the regrouping
/// error of re-summing the slices sits orders of magnitude below this
/// bound.
const CONSISTENCY_TOL: f64 = 1e-9;

/// Verify that `OverlapStats` busy/stall totals equal the summed durations
/// of the corresponding pipeline-trace spans — per stage and per device
/// lane — and that steal/window counts match. Catches accounting drift
/// between the two systems (the satellite invariant of the tracing
/// subsystem). Returns `Ok` vacuously when the ring dropped events, since
/// span sums are then incomplete by construction.
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
    let check = |what: &str, stats: f64, spans: f64| -> Result<(), String> {
        if (stats - spans).abs() > CONSISTENCY_TOL {
            return Err(format!(
                "{what}: OverlapStats has {stats} s but trace spans sum to {spans} s"
            ));
        }
        Ok(())
    };

    let read = track("read_site")?;
    check(
        "read.busy",
        overlap.read.busy,
        snap.sum_span_durations(read, "read_site"),
    )?;
    check(
        "read.stall_out",
        overlap.read.stall_out,
        snap.sum_span_durations(read, "stall_out"),
    )?;

    for (i, lane) in overlap.devices.iter().enumerate() {
        let t = track(&lane_thread(i))?;
        check(
            &format!("lane {i} busy"),
            lane.stage.busy,
            snap.sum_span_durations(t, "window"),
        )?;
        check(
            &format!("lane {i} stall_in"),
            lane.stage.stall_in,
            snap.sum_span_durations(t, "stall_in"),
        )?;
        check(
            &format!("lane {i} stall_out"),
            lane.stage.stall_out,
            snap.sum_span_durations(t, "stall_out"),
        )?;
        let windows = snap.count_events(t, "window") as u64;
        if windows != lane.windows {
            return Err(format!(
                "lane {i}: {} window spans vs {} windows in OverlapStats",
                windows, lane.windows
            ));
        }
        let steals = snap.count_events(t, "steal") as u64;
        if steals != lane.steals {
            return Err(format!(
                "lane {i}: {} steal events vs {} steals in OverlapStats",
                steals, lane.steals
            ));
        }
    }

    let post = track("posterior")?;
    check(
        "posterior.busy",
        overlap.posterior.busy,
        snap.sum_span_durations(post, "posterior"),
    )?;
    check(
        "posterior.stall_in",
        overlap.posterior.stall_in,
        snap.sum_span_durations(post, "stall_in"),
    )?;
    check(
        "posterior.stall_out",
        overlap.posterior.stall_out,
        snap.sum_span_durations(post, "stall_out"),
    )?;

    let out = track("output")?;
    check(
        "output.busy",
        overlap.output.busy,
        snap.sum_span_durations(out, "output"),
    )?;
    check(
        "output.stall_in",
        overlap.output.stall_in,
        snap.sum_span_durations(out, "stall_in"),
    )?;
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
        pt.read_span(0.0, 1.5);
        pt.read_stall_out(1.5, 0.25);
        pt.lane_stall_in(0, 0.0, 0.1);
        pt.lane_window(0, 0.1, 2.0, 0);
        pt.lane_window(1, 0.0, 1.0, 1);
        pt.lane_steal(1, 0.0);
        pt.lane_stall_out(1, 1.0, 0.5);
        pt.posterior_span(2.0, 0.75);
        pt.posterior_stall_in(0.0, 2.0);
        pt.output_span(3.0, 0.5);
        pt.output_stall_in(0.0, 3.0);
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
        pt.verify(&overlap)
            .expect("matching accounting must verify");

        // Drift in any lane total must be caught.
        let mut drifted = overlap.clone();
        drifted.devices[0].stage.busy += 0.5;
        let err = pt.verify(&drifted).unwrap_err();
        assert!(err.contains("lane 0 busy"), "unexpected error: {err}");

        // A missing steal event must be caught too.
        let mut drifted = overlap;
        drifted.devices[1].steals = 2;
        assert!(pt.verify(&drifted).unwrap_err().contains("steal"));
    }

    #[test]
    fn consistency_verifier_is_vacuous_after_ring_overflow() {
        let rec = Arc::new(TraceRecorder::new(2));
        let pt = PipelineTrace::new(&rec, 1);
        for _ in 0..8 {
            pt.read_span(0.0, 1.0);
        }
        assert!(rec.dropped() > 0);
        // Totals that cannot possibly match the surviving spans still pass.
        let overlap = OverlapStats {
            devices: vec![DeviceLaneStats::default()],
            ..Default::default()
        };
        pt.verify(&overlap)
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
