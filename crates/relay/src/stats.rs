//! Relay volume accounting.
//!
//! §9 estimates that "the Firehose already outputs ≈30 GB of data per day per
//! subscribed client". The relay keeps per-day event and byte counters so the
//! study can reproduce that estimate for the simulated network (and so the
//! scaling section of EXPERIMENTS.md can extrapolate it to the real network
//! size).

use bsky_atproto::Datetime;
use std::collections::BTreeMap;

/// Per-day and lifetime relay statistics.
#[derive(Debug, Clone, Default)]
pub struct RelayStats {
    events_per_day: BTreeMap<i64, u64>,
    bytes_per_day: BTreeMap<i64, u64>,
    cache_hits: u64,
    cache_misses: u64,
    delta_fetches: u64,
    compaction_fallbacks: u64,
    mirror_read_failures: u64,
    delta_apply_failures: u64,
    delta_fetch_errors: u64,
    bytes_fetched_from_pds: u64,
    delta_bytes_fetched: u64,
    highest_seq: u64,
    events_forwarded: u64,
    duplicates_dropped: u64,
    dedup_tracked: u64,
    outbox_positions_skipped: u64,
}

impl RelayStats {
    /// Create empty statistics.
    pub fn new() -> RelayStats {
        RelayStats::default()
    }

    /// Record one firehose event of `wire_bytes` at `time`.
    pub fn record_event(&mut self, time: Datetime, wire_bytes: usize, seq: u64) {
        let day = time.day_index();
        *self.events_per_day.entry(day).or_insert(0) += 1;
        *self.bytes_per_day.entry(day).or_insert(0) += wire_bytes as u64;
        self.highest_seq = self.highest_seq.max(seq);
    }

    /// Record a repo fetch served from the mirror cache.
    pub fn record_cache_hit(&mut self) {
        self.cache_hits += 1;
    }

    /// Record a repo fetch that had to go to the hosting PDS.
    pub fn record_cache_miss(&mut self, bytes: usize) {
        self.cache_misses += 1;
        self.bytes_fetched_from_pds += bytes as u64;
    }

    /// Record a `getRepo(since)` delta fetched from a PDS — a stale mirror
    /// entry refreshed (or a downstream consumer served) without re-reading
    /// the whole repository.
    pub fn record_delta_fetch(&mut self, bytes: usize) {
        self.delta_fetches += 1;
        self.bytes_fetched_from_pds += bytes as u64;
        self.delta_bytes_fetched += bytes as u64;
    }

    /// Total events observed.
    pub fn total_events(&self) -> u64 {
        self.events_per_day.values().sum()
    }

    /// Total firehose bytes emitted.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_per_day.values().sum()
    }

    /// Number of days with at least one event.
    pub fn active_days(&self) -> usize {
        self.events_per_day.len()
    }

    /// Mean firehose output per active day, in bytes.
    pub fn mean_bytes_per_day(&self) -> f64 {
        if self.events_per_day.is_empty() {
            0.0
        } else {
            self.total_bytes() as f64 / self.active_days() as f64
        }
    }

    /// Per-day series `(day_index, events, bytes)` in day order.
    pub fn daily_series(&self) -> Vec<(i64, u64, u64)> {
        self.events_per_day
            .iter()
            .map(|(day, events)| {
                (
                    *day,
                    *events,
                    self.bytes_per_day.get(day).copied().unwrap_or(0),
                )
            })
            .collect()
    }

    /// Mirror cache hits.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Mirror cache misses.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Record a delta attempt that failed because the PDS compacted the
    /// cached revision out of its delta-serving window (a full fetch
    /// follows) — surfaced so fallbacks never happen silently.
    pub fn record_compaction_fallback(&mut self) {
        self.compaction_fallbacks += 1;
    }

    /// Record a mirror cache entry whose blocks could not be read back
    /// from the store (the fetch degrades to a refetch from the PDS) —
    /// previously a silent fall-through.
    pub fn record_mirror_read_failure(&mut self) {
        self.mirror_read_failures += 1;
    }

    /// Record a fetched delta that failed to apply to the cached base
    /// (the fetch degrades to a full refetch) — previously a silent
    /// fall-through.
    pub fn record_delta_apply_failure(&mut self) {
        self.delta_apply_failures += 1;
    }

    /// Record a `getRepo(since)` request that errored for a reason other
    /// than revision compaction (the fetch degrades to a full refetch) —
    /// previously a silent `_ => {}` arm.
    pub fn record_delta_fetch_error(&mut self) {
        self.delta_fetch_errors += 1;
    }

    /// Mirror cache entries whose stored blocks could not be read back.
    pub fn mirror_read_failures(&self) -> u64 {
        self.mirror_read_failures
    }

    /// Fetched deltas that failed to apply to the cached base.
    pub fn delta_apply_failures(&self) -> u64 {
        self.delta_apply_failures
    }

    /// Delta fetch errors other than revision compaction.
    pub fn delta_fetch_errors(&self) -> u64 {
        self.delta_fetch_errors
    }

    /// Delta (`getRepo(since)`) fetches served from PDSes.
    pub fn delta_fetches(&self) -> u64 {
        self.delta_fetches
    }

    /// Delta attempts that fell back to a full fetch because the revision
    /// was compacted away.
    pub fn compaction_fallbacks(&self) -> u64 {
        self.compaction_fallbacks
    }

    /// Bytes fetched from PDSes (full CARs and deltas combined).
    pub fn bytes_fetched_from_pds(&self) -> u64 {
        self.bytes_fetched_from_pds
    }

    /// Bytes of that total that were delta fetches.
    pub fn delta_bytes_fetched(&self) -> u64 {
        self.delta_bytes_fetched
    }

    /// Highest firehose sequence number observed.
    pub fn highest_seq(&self) -> u64 {
        self.highest_seq
    }

    /// Record one frame forwarded into this relay from an upstream
    /// (regional) relay tier.
    pub fn record_forwarded(&mut self) {
        self.events_forwarded += 1;
    }

    /// Record one frame dropped by the cross-relay dedup index because it
    /// already reached this relay via another region.
    pub fn record_duplicate_dropped(&mut self) {
        self.duplicates_dropped += 1;
    }

    /// Record one key admitted into the cross-relay dedup index.
    pub fn record_dedup_tracked(&mut self) {
        self.dedup_tracked += 1;
    }

    /// Record PDS outbox positions a crawl asked for that the server had
    /// already let go: events this relay will never see.
    pub fn record_outbox_skipped(&mut self, positions: usize) {
        self.outbox_positions_skipped += positions as u64;
    }

    /// PDS outbox positions trimmed before this relay crawled them. 0
    /// whenever outboxes are trimmed to this relay's own crawl cursors.
    pub fn outbox_positions_skipped(&self) -> u64 {
        self.outbox_positions_skipped
    }

    /// Frames forwarded into this relay from upstream relay tiers.
    pub fn events_forwarded(&self) -> u64 {
        self.events_forwarded
    }

    /// Frames dropped by cross-relay dedup as already-seen.
    pub fn duplicates_dropped(&self) -> u64 {
        self.duplicates_dropped
    }

    /// Keys admitted into the cross-relay dedup index.
    pub fn dedup_tracked(&self) -> u64 {
        self.dedup_tracked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day(n: i64) -> Datetime {
        Datetime::from_ymd(2024, 4, 1).unwrap().plus_days(n)
    }

    #[test]
    fn per_day_accounting() {
        let mut stats = RelayStats::new();
        stats.record_event(day(0), 100, 1);
        stats.record_event(day(0), 150, 2);
        stats.record_event(day(1), 200, 3);
        assert_eq!(stats.total_events(), 3);
        assert_eq!(stats.total_bytes(), 450);
        assert_eq!(stats.active_days(), 2);
        assert!((stats.mean_bytes_per_day() - 225.0).abs() < 1e-9);
        let series = stats.daily_series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].1, 2);
        assert_eq!(series[0].2, 250);
        assert_eq!(stats.highest_seq(), 3);
    }

    #[test]
    fn cache_accounting() {
        let mut stats = RelayStats::new();
        stats.record_cache_miss(1_000);
        stats.record_cache_hit();
        stats.record_cache_hit();
        stats.record_delta_fetch(50);
        assert_eq!(stats.cache_hits(), 2);
        assert_eq!(stats.cache_misses(), 1);
        assert_eq!(stats.delta_fetches(), 1);
        assert_eq!(stats.bytes_fetched_from_pds(), 1_050);
        assert_eq!(stats.delta_bytes_fetched(), 50);
    }

    #[test]
    fn empty_stats() {
        let stats = RelayStats::new();
        assert_eq!(stats.total_events(), 0);
        assert_eq!(stats.mean_bytes_per_day(), 0.0);
        assert!(stats.daily_series().is_empty());
    }
}
