//! Timing around the public calls of each layer, from outside the program.
//!
//! [`Stopwatch`] only sums durations by layer name (the untraced,
//! end-to-end run). [`Tracer`] records a span per call — name, start, end,
//! parent, run id — in memory, computes self times, and writes the spans
//! out once the run is over.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Something that times a named call, possibly containing nested calls.
pub trait Clock: Sized {
    /// Run `f` as layer `name` and return its result.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T;
}

/// Sums wall seconds per layer name; records nothing else.
#[derive(Debug, Default)]
pub struct Stopwatch {
    totals: BTreeMap<&'static str, f64>,
}

impl Stopwatch {
    /// Total seconds recorded under `name` (0 if never timed).
    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }
}

impl Clock for Stopwatch {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self);
        *self.totals.entry(name).or_default() += t0.elapsed().as_secs_f64();
        out
    }
}

/// One recorded span. Times are seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in [`Tracer::spans`].
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer name.
    pub name: &'static str,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
}

impl Span {
    /// Wall duration, seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span recorder for one traced run.
#[derive(Debug)]
pub struct Tracer {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose spans all carry `run_id`.
    pub fn new(run_id: impl Into<String>) -> Tracer {
        Tracer {
            run_id: run_id.into(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The run id.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// Every span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval covered by its children.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = s.start;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration() - covered
            })
            .collect()
    }

    /// Summed self time per layer name.
    pub fn self_totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (s, self_s) in self.spans.iter().zip(self.self_times()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{}\",\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"self_s\":{self_s}}}",
                self.run_id, s.id, s.name, s.start, s.end
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

impl Clock for Tracer {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_spans_and_subtracts_children_from_self_time() {
        let mut t = Tracer::new("r1");
        t.time("outer", |t| {
            t.time("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.time("b", |t| t.time("c", |_| ()));
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (None, Some(0), Some(0), Some(2))
        );
        let selfs = t.self_times();
        let kids = s[1].duration() + s[2].duration();
        assert!((selfs[0] - (s[0].duration() - kids)).abs() < 1e-12);
        assert!(selfs[1] >= 0.005);
        let sum: f64 = selfs.iter().sum();
        assert!((sum - s[0].duration()).abs() < 1e-12);
        assert_eq!(t.to_jsonl().lines().count(), 4);
        assert!(t.to_jsonl().contains("\"run\":\"r1\""));
    }

    #[test]
    fn stopwatch_sums_by_name() {
        let mut w = Stopwatch::default();
        w.time("x", |w| w.time("y", |_| ()));
        w.time("x", |_| ());
        assert!(w.total("x") >= w.total("y"));
        assert_eq!(w.total("missing"), 0.0);
    }
}
