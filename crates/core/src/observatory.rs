//! §10 — the wire-level traffic observatory.
//!
//! The study engine carries everything an on-path adversary would see —
//! observer-independent frame sizes, a simulated clock, per-DID firehose
//! subscriptions and identity-resolution lookups — and this module turns
//! that into the measurement the FOCI'20 encrypted-DNS study ("Padding
//! Ain't Enough") ran: can a **passive** observer, seeing only `(size,
//! inter-arrival gap)` sequences, classify what kind of user produced a
//! day of traffic? And at what bandwidth cost do padding and batching
//! mitigations defeat it?
//!
//! ## The counterfactual sweep
//!
//! The collector captures each connection's *raw* per-day `(time, size)`
//! trace once, from its own firehose subscription, and every mitigation
//! cell in `MITIGATION_CELLS` is evaluated from that capture as a
//! counterfactual: "what would this day's wire have looked like under
//! pad-to-128 + 60 s batching?" is a pure function of the raw trace
//! (`WireTraceDay::from_frames`). The observer is passive by construction:
//! no run shapes its own wire, and a sharded run reproduces the serial
//! bytes exactly.
//!
//! ## The closed-world classifier
//!
//! Ground truth comes from the population plan: each user's long-run
//! activity weight maps to one of three `ActivityClass`es (posting-heavy,
//! feed-fetching, lurking). Each traced `(did, week)` is one instance —
//! a week of a connection's wire accumulates enough (size, gap) structure
//! to be worth classifying, where single days mostly carry one commit
//! frame. Even absolute weeks train, odd weeks test, and both sides are
//! class-balanced
//! (equal instances per class, so chance is ~1/classes and a lurker-heavy
//! population cannot make majority-vote look like an attack). A
//! 1-nearest-neighbour over z-scored per-week features (frame count, wire
//! bytes, mean frame size, span, mean gap) predicts the class. Accuracy is
//! reported per mitigation cell next to the cell's bandwidth overhead,
//! against the majority-class chance baseline of the balanced test set.

use crate::json::Json;
use crate::pipeline::{Analyzer, Observation};
use bsky_atproto::framing::PaddingPolicy;
use bsky_atproto::Did;
use std::collections::BTreeMap;

/// Number of mitigation cells in the sweep.
pub(crate) const CELL_COUNT: usize = 5;

/// The fixed (padding, batch-window-seconds) sweep evaluated
/// counterfactually for every captured trace. The first cell is always the
/// unmitigated wire.
pub(crate) const MITIGATION_CELLS: [(&str, PaddingPolicy, u64); CELL_COUNT] = [
    ("none", PaddingPolicy::None, 0),
    ("pad128", PaddingPolicy::Buckets, 0),
    ("pad128+batch60", PaddingPolicy::Buckets, 60),
    ("pad128+batch1h", PaddingPolicy::Buckets, 3600),
    ("const4096+batch1h", PaddingPolicy::Constant, 3600),
];

/// Deterministic cap on 1-NN training instances (class-balanced and
/// stride-subsampled; the sampled and total counts are both reported, never
/// silently).
pub(crate) const TRAIN_CAP: usize = 2000;

/// Deterministic cap on 1-NN test instances.
pub(crate) const TEST_CAP: usize = 1000;

/// Ground-truth user activity class, derived from the population plan's
/// long-run activity weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum ActivityClass {
    /// High-weight accounts whose days are dominated by their own writes.
    PostingHeavy,
    /// Mid-weight accounts: mostly consuming feeds, posting occasionally.
    FeedFetching,
    /// Low-weight accounts that are rarely active at all.
    Lurking,
}

impl ActivityClass {
    /// Map an activity weight (`1/rank^0.6`, in `(0, 1]`) to its class.
    pub(crate) fn of_weight(weight: f64) -> ActivityClass {
        if weight >= 0.6 {
            ActivityClass::PostingHeavy
        } else if weight >= 0.15 {
            ActivityClass::FeedFetching
        } else {
            ActivityClass::Lurking
        }
    }
}

/// Which wire a trace was captured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum TraceKind {
    /// A per-DID firehose subscription (relay → subscriber).
    Repo,
    /// The identity-resolution client (DNS `_atproto` lookups).
    Dns,
}

/// One mitigation cell's view of one day of one connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CellTrace {
    /// Frames on the wire after batching.
    pub(crate) frames: u64,
    /// Total wire bytes after padding (headers included).
    pub(crate) wire_bytes: u64,
    /// First frame time (unix seconds).
    pub(crate) first: i64,
    /// Last frame time (unix seconds).
    pub(crate) last: i64,
}

impl CellTrace {
    /// Fold another cell trace of the same key into this one.
    fn absorb(&mut self, other: &CellTrace) {
        if other.frames == 0 {
            return;
        }
        if self.frames == 0 {
            *self = *other;
            return;
        }
        self.frames += other.frames;
        self.wire_bytes += other.wire_bytes;
        self.first = self.first.min(other.first);
        self.last = self.last.max(other.last);
    }
}

/// One day of passively observed traffic on one connection, with the raw
/// totals and every mitigation cell's counterfactual view. This is the
/// atomic §10 observation: it is emitted once per `(connection, day)` by
/// the producer, so analyzer merges only ever combine records for
/// *different* keys (or per-shard halves of the shared DNS client).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireTraceDay {
    /// Which wire this trace was captured on.
    pub(crate) kind: TraceKind,
    /// The connection's subject DID (the traced account for firehose
    /// wires; a fixed synthetic DID for the DNS client).
    pub(crate) did: Did,
    /// Absolute day index (unix seconds / 86 400).
    pub(crate) day: i64,
    /// Ground-truth class of the traced account.
    pub(crate) class: ActivityClass,
    /// Raw events observed (before batching).
    pub(crate) events: u64,
    /// Raw payload bytes (canonical event wire sizes, no framing).
    pub(crate) payload_bytes: u64,
    /// Frames the bounded capture buffer dropped (counted, never silent).
    pub(crate) dropped: u64,
    /// Counterfactual wire view per [`MITIGATION_CELLS`] cell.
    pub(crate) cells: [CellTrace; CELL_COUNT],
}

impl WireTraceDay {
    /// Build a trace record from one connection-day's raw `(time, size)`
    /// frames, evaluating every mitigation cell counterfactually.
    ///
    /// For [`TraceKind::Repo`] wires a batching cell coalesces all events
    /// in the same window into one frame flushed at the window edge. The
    /// [`TraceKind::Dns`] wire is request/response, not a stream: each
    /// lookup is always its own (padded) frame — batching it would also
    /// make the accounting depend on how the population is sharded, since
    /// every shard's resolver shares one connection key.
    pub(crate) fn from_frames(
        kind: TraceKind,
        did: Did,
        day: i64,
        class: ActivityClass,
        frames: &[(i64, u64)],
        dropped: u64,
    ) -> WireTraceDay {
        let events = frames.len() as u64;
        let payload_bytes: u64 = frames.iter().map(|&(_, size)| size).sum();
        let mut cells = [CellTrace::default(); CELL_COUNT];
        for (slot, &(_, padding, window)) in cells.iter_mut().zip(MITIGATION_CELLS.iter()) {
            let window = if kind == TraceKind::Dns { 0 } else { window };
            *slot = cell_trace(frames, padding, window);
        }
        WireTraceDay {
            kind,
            did,
            day,
            class,
            events,
            payload_bytes,
            dropped,
            cells,
        }
    }
}

/// Evaluate one `(padding, batch window)` cell over a raw frame sequence.
///
/// `window == 0` means no batching: each event is its own frame at its own
/// time. Otherwise events sharing `time.div_euclid(window)` coalesce into
/// one frame flushed at the window's trailing edge. Both are pure functions
/// of the `(time, size)` list, so the result is independent of how the
/// producer chunked the underlying day.
pub(crate) fn cell_trace(frames: &[(i64, u64)], padding: PaddingPolicy, window: u64) -> CellTrace {
    let mut out = CellTrace::default();
    let mut push = |time: i64, events: usize, payload: u64| {
        let wire = padding.frame_wire_size(events, payload as usize) as u64;
        if out.frames == 0 {
            out.first = time;
            out.last = time;
        } else {
            out.first = out.first.min(time);
            out.last = out.last.max(time);
        }
        out.frames += 1;
        out.wire_bytes += wire;
    };
    if window == 0 {
        for &(time, size) in frames {
            push(time, 1, size);
        }
    } else {
        // Group by window id. Frame times within a drained day arrive in
        // relay-append order per connection; aggregate via a BTreeMap so
        // the result is a pure function of the (time, size) multiset.
        let mut windows: BTreeMap<i64, (usize, u64)> = BTreeMap::new();
        for &(time, size) in frames {
            let entry = windows.entry(time.div_euclid(window as i64)).or_default();
            entry.0 += 1;
            entry.1 += size;
        }
        let batch = bsky_atproto::framing::BatchPolicy::window(window);
        for (wid, (events, payload)) in windows {
            push(batch.flush_at(wid), events, payload);
        }
    }
    out
}

/// Internal classifier instance: one `(did, day)` record's features under
/// one mitigation cell.
struct Instance {
    class: ActivityClass,
    features: [f64; 5],
}

fn features(cell: &CellTrace) -> [f64; 5] {
    let frames = cell.frames as f64;
    let span = (cell.last - cell.first) as f64;
    [
        frames,
        cell.wire_bytes as f64,
        cell.wire_bytes as f64 / frames.max(1.0),
        span,
        if cell.frames > 1 {
            span / (frames - 1.0)
        } else {
            0.0
        },
    ]
}

/// One mitigation cell's §10 results.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CellReport {
    /// Cell name from [`MITIGATION_CELLS`].
    name: &'static str,
    /// Closed-world 1-NN accuracy on the held-out (odd) days.
    accuracy: f64,
    /// Total firehose wire bytes under this cell.
    wire_bytes: u64,
    /// Wire bytes above the raw event payload (headers + padding).
    overhead_bytes: u64,
}

/// The §10 report: classifier accuracy × bandwidth overhead per mitigation
/// cell, plus the capture totals.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct ObservatoryReport {
    /// Per-cell accuracy and overhead, in [`MITIGATION_CELLS`] order.
    cells: Vec<CellReport>,
    /// `(did, day)` firehose traces captured.
    traced_days: u64,
    /// Raw firehose payload bytes across all traces.
    payload_bytes: u64,
    /// Identity-resolution lookups observed on the DNS wire.
    dns_lookups: u64,
    /// Modeled bytes on the DNS wire (unpadded).
    dns_payload_bytes: u64,
    /// Capture-buffer drops across all connections (never silent).
    trace_drops: u64,
    /// Training instances used (class-balanced, stride-subsampled past
    /// [`TRAIN_CAP`]).
    train_sampled: usize,
    /// Training instances available (`(did, week)` pairs on even weeks).
    train_total: usize,
    /// Test instances used / available.
    test_sampled: usize,
    /// Test instances available (`(did, week)` pairs on odd weeks).
    test_total: usize,
    /// Majority-class share of the balanced, sampled test set — the chance
    /// baseline (~1/classes).
    chance_accuracy: f64,
}

impl ObservatoryReport {
    /// Render the §10 section.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("## §10 Wire-level traffic observatory\n\n");
        if self.traced_days == 0 {
            out.push_str("No wire traces captured (window too short?).\n");
            return out;
        }
        out.push_str(&format!(
            "Passive per-connection capture: {} (did, day) firehose traces, {} raw payload bytes; \
             identity resolution: {} lookups, {} modeled bytes.\n",
            self.traced_days, self.payload_bytes, self.dns_lookups, self.dns_payload_bytes
        ));
        if self.trace_drops > 0 {
            out.push_str(&format!(
                "WARNING: {} frame(s) dropped by full capture buffers — traces truncated.\n",
                self.trace_drops
            ));
        }
        out.push_str(&format!(
            "Closed-world 1-NN over per-week (size, gap) features, class-balanced: train {} of {} \
             even-week traces, test {} of {} odd-week traces; chance (majority class) {:.3}.\n\n",
            self.train_sampled,
            self.train_total,
            self.test_sampled,
            self.test_total,
            self.chance_accuracy
        ));
        out.push_str("| mitigation cell | accuracy | wire bytes | overhead bytes | overhead |\n");
        out.push_str("|---|---|---|---|---|\n");
        for cell in &self.cells {
            let pct = if self.payload_bytes > 0 {
                100.0 * cell.overhead_bytes as f64 / self.payload_bytes as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "| {} | {:.3} | {} | {} | +{:.1}% |\n",
                cell.name, cell.accuracy, cell.wire_bytes, cell.overhead_bytes, pct
            ));
        }
        out.push('\n');
        out
    }

    /// The headline numbers for the JSON export.
    pub(crate) fn to_json(&self) -> Json {
        let mut cells = Json::object();
        for cell in &self.cells {
            cells = cells.with(
                cell.name,
                Json::object()
                    .with("accuracy", cell.accuracy)
                    .with("wire_bytes", cell.wire_bytes)
                    .with("overhead_bytes", cell.overhead_bytes),
            );
        }
        Json::object()
            .with("traced_days", self.traced_days)
            .with("dns_lookups", self.dns_lookups)
            .with("chance_accuracy", self.chance_accuracy)
            .with("cells", cells)
    }
}

/// Map key identifying one connection-day. The DID enters by its stable
/// shard hash so per-shard analyzer states merge on identical keys without
/// retaining every DID string.
type TraceKey = (TraceKind, u64, i64);

/// Accumulated state for one `(kind, did, day)`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TraceAgg {
    class: ActivityClass,
    events: u64,
    payload_bytes: u64,
    dropped: u64,
    cells: [CellTrace; CELL_COUNT],
}

/// The §10 analyzer: folds [`Observation::WireTrace`] records into per-key
/// aggregates, merges per-shard states by key union, and runs the
/// closed-world classifier sweep at finish.
#[derive(Debug, Default)]
pub(crate) struct ObservatoryAnalyzer {
    records: BTreeMap<TraceKey, TraceAgg>,
}

impl ObservatoryAnalyzer {
    /// Fold one record into its key's aggregate.
    fn fold(&mut self, key: TraceKey, agg: TraceAgg) {
        let Some(mine) = self.records.get_mut(&key) else {
            self.records.insert(key, agg);
            return;
        };
        mine.class = mine.class.min(agg.class);
        mine.events += agg.events;
        mine.payload_bytes += agg.payload_bytes;
        mine.dropped += agg.dropped;
        for (slot, cell) in mine.cells.iter_mut().zip(agg.cells.iter()) {
            slot.absorb(cell);
        }
    }
}

impl Analyzer for ObservatoryAnalyzer {
    type Output = ObservatoryReport;

    fn observe(&mut self, obs: &Observation<'_>) {
        if let Observation::WireTrace(trace) = obs {
            let key = (trace.kind, trace.did.shard_hash(), trace.day);
            let agg = TraceAgg {
                class: trace.class,
                events: trace.events,
                payload_bytes: trace.payload_bytes,
                dropped: trace.dropped,
                cells: trace.cells,
            };
            self.fold(key, agg);
        }
    }

    fn merge(&mut self, other: Self) {
        for (key, agg) in other.records {
            self.fold(key, agg);
        }
    }

    fn finish(self) -> ObservatoryReport {
        let mut report = ObservatoryReport::default();
        // Capture totals, and one classifier instance per `(did, week)`.
        // DNS records feed the totals only; the classifier sees firehose
        // wires. Single days are too noisy an instance (most carry one
        // commit frame); a week of a connection's (size, gap) structure —
        // how often it transmits and how much — is what a passive observer
        // actually accumulates. Even absolute weeks train, odd weeks test,
        // so every user's history sits on both sides of the split.
        struct WeekAgg {
            class: ActivityClass,
            week: i64,
            cells: [CellTrace; CELL_COUNT],
        }
        let mut repo: Vec<WeekAgg> = Vec::new();
        let mut slot_of: BTreeMap<(u64, i64), usize> = BTreeMap::new();
        let mut train_idx: Vec<usize> = Vec::new();
        let mut test_idx: Vec<usize> = Vec::new();
        for ((kind, did_hash, day), agg) in &self.records {
            report.trace_drops += agg.dropped;
            match kind {
                TraceKind::Repo => {
                    report.traced_days += 1;
                    report.payload_bytes += agg.payload_bytes;
                    let week = day.div_euclid(7);
                    let slot = *slot_of.entry((*did_hash, week)).or_insert_with(|| {
                        repo.push(WeekAgg {
                            class: agg.class,
                            week,
                            cells: [CellTrace::default(); CELL_COUNT],
                        });
                        repo.len() - 1
                    });
                    repo[slot].class = repo[slot].class.min(agg.class);
                    for (acc, cell) in repo[slot].cells.iter_mut().zip(agg.cells.iter()) {
                        acc.absorb(cell);
                    }
                }
                TraceKind::Dns => {
                    report.dns_lookups += agg.events;
                    report.dns_payload_bytes += agg.payload_bytes;
                }
            }
        }
        for (slot, agg) in repo.iter().enumerate() {
            if agg.week.rem_euclid(2) == 0 {
                train_idx.push(slot);
            } else {
                test_idx.push(slot);
            }
        }
        report.train_total = train_idx.len();
        report.test_total = test_idx.len();
        // Class-balanced evaluation sets (the closed-world protocol): every
        // class contributes equally many train and test instances, so the
        // chance baseline is ~1/classes and a population skewed toward
        // lurkers cannot make majority-vote look like an attack. A class
        // missing from either side drops out of the evaluation entirely.
        let mut by_class_train: BTreeMap<ActivityClass, Vec<usize>> = BTreeMap::new();
        let mut by_class_test: BTreeMap<ActivityClass, Vec<usize>> = BTreeMap::new();
        for &i in &train_idx {
            by_class_train.entry(repo[i].class).or_default().push(i);
        }
        for &i in &test_idx {
            by_class_test.entry(repo[i].class).or_default().push(i);
        }
        let classes: Vec<ActivityClass> = by_class_train
            .keys()
            .copied()
            .filter(|class| by_class_test.contains_key(class))
            .collect();
        let mut train_idx: Vec<usize> = Vec::new();
        let mut test_idx: Vec<usize> = Vec::new();
        if !classes.is_empty() {
            let smallest = |sets: &BTreeMap<ActivityClass, Vec<usize>>| {
                classes
                    .iter()
                    .map(|class| sets[class].len())
                    .min()
                    .unwrap_or(0)
            };
            let train_quota = (TRAIN_CAP / classes.len()).min(smallest(&by_class_train));
            let test_quota = (TEST_CAP / classes.len()).min(smallest(&by_class_test));
            for class in &classes {
                train_idx.extend(stride_sample(&by_class_train[class], train_quota));
                test_idx.extend(stride_sample(&by_class_test[class], test_quota));
            }
        }
        report.train_sampled = train_idx.len();
        report.test_sampled = test_idx.len();
        // Chance baseline: majority class share of the sampled test set
        // (= ~1/classes after balancing).
        if !test_idx.is_empty() {
            let mut counts: BTreeMap<ActivityClass, usize> = BTreeMap::new();
            for &i in &test_idx {
                *counts.entry(repo[i].class).or_default() += 1;
            }
            let majority = counts.values().copied().max().unwrap_or(0);
            report.chance_accuracy = majority as f64 / test_idx.len() as f64;
        }
        for (cell_index, &(name, _, _)) in MITIGATION_CELLS.iter().enumerate() {
            let wire_bytes: u64 = repo
                .iter()
                .map(|agg| agg.cells[cell_index].wire_bytes)
                .sum();
            let overhead_bytes = wire_bytes.saturating_sub(report.payload_bytes);
            let accuracy = if train_idx.is_empty() || test_idx.is_empty() {
                0.0
            } else {
                let train: Vec<Instance> = train_idx
                    .iter()
                    .map(|&i| Instance {
                        class: repo[i].class,
                        features: features(&repo[i].cells[cell_index]),
                    })
                    .collect();
                let test: Vec<Instance> = test_idx
                    .iter()
                    .map(|&i| Instance {
                        class: repo[i].class,
                        features: features(&repo[i].cells[cell_index]),
                    })
                    .collect();
                nearest_neighbor_accuracy(&train, &test)
            };
            report.cells.push(CellReport {
                name,
                accuracy,
                wire_bytes,
                overhead_bytes,
            });
        }
        report
    }
}

/// Deterministic stride subsampling to at most `cap` items, spread evenly
/// over the input order.
fn stride_sample(indices: &[usize], cap: usize) -> Vec<usize> {
    if indices.len() <= cap {
        return indices.to_vec();
    }
    // Evenly spaced positions, first-biased: floor(k * len / cap).
    (0..cap).map(|k| indices[k * indices.len() / cap]).collect()
}

/// 1-NN with per-feature z-scoring (statistics from the training set) and
/// deterministic tie-breaking (the earliest training instance wins).
fn nearest_neighbor_accuracy(train: &[Instance], test: &[Instance]) -> f64 {
    let n = train.len() as f64;
    let mut mean = [0.0f64; 5];
    let mut var = [0.0f64; 5];
    for instance in train {
        for (m, f) in mean.iter_mut().zip(&instance.features) {
            *m += f;
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    for instance in train {
        for ((v, f), m) in var.iter_mut().zip(&instance.features).zip(&mean) {
            let delta = f - m;
            *v += delta * delta;
        }
    }
    let scale: Vec<f64> = var
        .iter()
        .map(|v| {
            let sd = (v / n).sqrt();
            if sd > 0.0 {
                1.0 / sd
            } else {
                0.0
            }
        })
        .collect();
    let zscore = |instance: &Instance| -> [f64; 5] {
        let mut out = [0.0f64; 5];
        for (d, slot) in out.iter_mut().enumerate() {
            *slot = (instance.features[d] - mean[d]) * scale[d];
        }
        out
    };
    let train_z: Vec<([f64; 5], ActivityClass)> =
        train.iter().map(|i| (zscore(i), i.class)).collect();
    let mut correct = 0usize;
    for probe in test {
        let z = zscore(probe);
        let mut best = f64::INFINITY;
        let mut best_class = train_z[0].1;
        for (tz, class) in &train_z {
            let mut dist = 0.0;
            for (a, b) in z.iter().zip(tz) {
                let delta = a - b;
                dist += delta * delta;
            }
            if dist < best {
                best = dist;
                best_class = *class;
            }
        }
        if best_class == probe.class {
            correct += 1;
        }
    }
    correct as f64 / test.len() as f64
}

#[cfg(test)]
mod tests;
