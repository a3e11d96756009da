//! Relay accounting: the repository mirror's cache traffic and delta
//! fetches, each way a fetch can degrade, and the federation's forwarding
//! and dedup counters. (The firehose's own volume, §9, is measured by the
//! study from the frames it reads, not from these.)

/// Lifetime relay statistics.
#[derive(Debug, Clone, Default)]
pub struct RelayStats {
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
    pub(crate) delta_fetches: u64,
    pub(crate) compaction_fallbacks: u64,
    pub(crate) mirror_read_failures: u64,
    pub(crate) delta_apply_failures: u64,
    pub(crate) delta_fetch_errors: u64,
    pub(crate) bytes_fetched_from_pds: u64,
    pub(crate) delta_bytes_fetched: u64,
    events_forwarded: u64,
    duplicates_dropped: u64,
    dedup_tracked: u64,
    outbox_positions_skipped: u64,
}

impl RelayStats {
    /// Create empty statistics.
    pub(crate) fn new() -> RelayStats {
        RelayStats::default()
    }

    /// Record a repo fetch served from the mirror cache.
    pub(crate) fn record_cache_hit(&mut self) {
        self.cache_hits += 1;
    }

    /// Record a repo fetch that had to go to the hosting PDS.
    pub(crate) fn record_cache_miss(&mut self, bytes: usize) {
        self.cache_misses += 1;
        self.bytes_fetched_from_pds += bytes as u64;
    }

    /// Record a `getRepo(since)` delta fetched from a PDS — a stale mirror
    /// entry refreshed (or a downstream consumer served) without re-reading
    /// the whole repository.
    pub(crate) fn record_delta_fetch(&mut self, bytes: usize) {
        self.delta_fetches += 1;
        self.bytes_fetched_from_pds += bytes as u64;
        self.delta_bytes_fetched += bytes as u64;
    }

    /// Record a delta attempt that failed because the PDS compacted the
    /// cached revision out of its delta-serving window (a full fetch
    /// follows) — surfaced so fallbacks never happen silently.
    pub(crate) fn record_compaction_fallback(&mut self) {
        self.compaction_fallbacks += 1;
    }

    /// Record a mirror cache entry whose blocks could not be read back
    /// from the store (the fetch degrades to a refetch from the PDS) —
    /// previously a silent fall-through.
    pub(crate) fn record_mirror_read_failure(&mut self) {
        self.mirror_read_failures += 1;
    }

    /// Record a fetched delta that failed to apply to the cached base
    /// (the fetch degrades to a full refetch) — previously a silent
    /// fall-through.
    pub(crate) fn record_delta_apply_failure(&mut self) {
        self.delta_apply_failures += 1;
    }

    /// Record a `getRepo(since)` request that errored for a reason other
    /// than revision compaction (the fetch degrades to a full refetch) —
    /// previously a silent `_ => {}` arm.
    pub(crate) fn record_delta_fetch_error(&mut self) {
        self.delta_fetch_errors += 1;
    }

    /// Record one frame forwarded into this relay from an upstream
    /// (regional) relay tier.
    pub(crate) fn record_forwarded(&mut self) {
        self.events_forwarded += 1;
    }

    /// Record one frame dropped by the cross-relay dedup index because it
    /// already reached this relay via another region.
    pub(crate) fn record_duplicate_dropped(&mut self) {
        self.duplicates_dropped += 1;
    }

    /// Record one key admitted into the cross-relay dedup index.
    pub(crate) fn record_dedup_tracked(&mut self) {
        self.dedup_tracked += 1;
    }

    /// Record PDS outbox positions a crawl asked for that the server had
    /// already let go: events this relay will never see.
    pub(crate) fn record_outbox_skipped(&mut self, positions: usize) {
        self.outbox_positions_skipped += positions as u64;
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
impl RelayStats {
    /// PDS outbox positions trimmed before this relay crawled them. 0
    /// whenever outboxes are trimmed to this relay's own crawl cursors.
    pub(crate) fn outbox_positions_skipped(&self) -> u64 {
        self.outbox_positions_skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_accounting() {
        let mut stats = RelayStats::new();
        stats.record_cache_miss(1_000);
        stats.record_cache_hit();
        stats.record_cache_hit();
        stats.record_delta_fetch(50);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.delta_fetches, 1);
        assert_eq!(stats.bytes_fetched_from_pds, 1_050);
        assert_eq!(stats.delta_bytes_fetched, 50);
    }

    #[test]
    fn empty_stats() {
        let stats = RelayStats::new();
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 0));
        assert_eq!(stats.bytes_fetched_from_pds, 0);
        assert_eq!(stats.events_forwarded(), 0);
        assert_eq!(stats.outbox_positions_skipped(), 0);
    }
}
