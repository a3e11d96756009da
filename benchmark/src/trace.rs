//! Span recording for the traced pass. Nothing here knows the repository:
//! `surface.rs` calls the recorder around the calls it makes into each
//! layer, spans stay in memory, and the run dumps them once at exit.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (one clock for every
/// thread, so spans from shard workers line up).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Accumulates the busy time of one layer across many short calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stopwatch {
    busy_ns: u64,
    started: u64,
}

impl Stopwatch {
    pub fn start(&mut self) {
        self.started = now_ns();
    }

    pub fn stop(&mut self) {
        self.busy_ns += now_ns() - self.started;
    }

    /// Time one call.
    pub fn time<T>(&mut self, call: impl FnOnce() -> T) -> T {
        self.start();
        let out = std::hint::black_box(call());
        self.stop();
        out
    }

    pub fn ns(&self) -> u64 {
        self.busy_ns
    }

    pub fn secs(&self) -> f64 {
        secs(self.busy_ns)
    }
}

/// One recorded span. `parent` indexes the same span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub shard: usize,
    pub thread: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans one shard's sink records on its worker thread: a `shard` span
/// from the first to the last observation, `day` spans delimited by the
/// day-boundary observations, and one child span per analyzer call.
/// Parents are indices into this recorder's own list until
/// [`Trace::assemble`] rebases them.
#[derive(Debug, Default)]
pub struct ShardTrace {
    spans: Vec<Span>,
    open_day: Option<usize>,
    thread: u64,
}

impl ShardTrace {
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Called before an observation is folded; returns the start time of
    /// its first child span.
    pub fn observation_start(&mut self, day_boundary: bool) -> u64 {
        let now = now_ns();
        if self.spans.is_empty() {
            self.thread = thread_number();
            self.push("shard", now, None);
        }
        if day_boundary {
            // A day runs from its boundary to the next one, so its self
            // time is the producer's share of that day.
            if let Some(previous) = self.open_day {
                self.spans[previous].end_ns = now;
            }
            self.open_day = Some(self.spans.len());
            self.push("day", now, Some(0));
        }
        now
    }

    /// Record the child span `[start, now]` and return `now`, which is the
    /// next child's start.
    pub fn child_done(&mut self, name: &'static str, start: u64) -> u64 {
        let now = now_ns();
        let parent = self.open_day.unwrap_or(0);
        self.push(name, start, Some(parent));
        let last = self.spans.len() - 1;
        self.spans[last].end_ns = now;
        self.spans[parent].end_ns = now;
        self.spans[0].end_ns = now;
        now
    }

    fn push(&mut self, name: &'static str, start: u64, parent: Option<usize>) {
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            shard: 0,
            thread: self.thread,
        });
    }
}

fn thread_number() -> u64 {
    // `ThreadId` prints as `ThreadId(N)`; N is what a reader wants.
    let id = format!("{:?}", std::thread::current().id());
    id.trim_start_matches("ThreadId(")
        .trim_end_matches(')')
        .parse()
        .unwrap_or(0)
}

/// A whole run's spans: `study` at index 0, then every shard's spans in
/// shard order.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn assemble(study_start: u64, study_end: u64, shards: Vec<ShardTrace>) -> Trace {
        let mut spans = vec![Span {
            name: "study",
            start_ns: study_start,
            end_ns: study_end,
            parent: None,
            shard: 0,
            thread: thread_number(),
        }];
        for (shard, recorded) in shards.into_iter().enumerate() {
            let base = spans.len();
            for mut span in recorded.spans {
                span.parent = Some(span.parent.map_or(0, |p| base + p));
                span.shard = shard;
                spans.push(span);
            }
        }
        Trace { spans }
    }

    /// Sum of the durations of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::dur_ns).sum()
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Whether every span lies inside its parent.
    pub fn nests(&self) -> bool {
        self.spans.iter().all(|span| match span.parent {
            None => true,
            Some(p) => {
                let parent = &self.spans[p];
                span.start_ns >= parent.start_ns && span.end_ns <= parent.end_ns
            }
        })
    }

    /// Self time per span: its duration minus the part of it its children
    /// cover (children on parallel threads may overlap, so take the union).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Self time summed by span name, largest first.
    pub fn self_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut by_name: Vec<(&'static str, u64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            match by_name.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += own,
                None => by_name.push((span.name, own)),
            }
        }
        by_name.sort_by_key(|entry| std::cmp::Reverse(entry.1));
        by_name
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"workload\":\"{}\",\"shard\":{},\"thread\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, workload, span.shard, span.thread
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            shard: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let trace = Trace {
            spans: vec![
                span("study", 0, 100, None),
                span("shard", 10, 60, Some(0)),
                span("shard", 40, 90, Some(0)),
                span("day", 10, 30, Some(1)),
            ],
        };
        assert!(trace.nests());
        // The two shards overlap on [40, 60]: together they cover [10, 90].
        assert_eq!(trace.self_ns(), vec![20, 30, 50, 20]);
        assert_eq!(trace.total_ns("shard"), 100);
        assert_eq!(trace.self_by_name()[0], ("shard", 80));
    }

    #[test]
    fn a_child_outside_its_parent_does_not_nest() {
        let trace = Trace {
            spans: vec![span("study", 10, 20, None), span("shard", 5, 15, Some(0))],
        };
        assert!(!trace.nests());
    }

    #[test]
    fn recorder_builds_shard_day_and_child_spans() {
        let mut rec = ShardTrace::default();
        let t = rec.observation_start(false);
        rec.child_done("a", t);
        let t = rec.observation_start(true);
        let t = rec.child_done("a", t);
        rec.child_done("b", t);
        let trace = Trace::assemble(0, now_ns(), vec![rec]);
        assert!(trace.nests());
        let names: Vec<_> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["study", "shard", "a", "day", "a", "b"]);
        // The pre-boundary child hangs off the shard, the rest off the day.
        assert_eq!(trace.spans[2].parent, Some(1));
        assert_eq!(trace.spans[4].parent, Some(3));
        assert!(trace.to_jsonl("w").lines().count() == 6);
    }
}
