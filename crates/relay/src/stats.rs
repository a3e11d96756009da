//! Relay accounting: the federation's forwarding and dedup counters and
//! the outbox positions a lagging crawl skipped. (The firehose's own volume,
//! §9, is measured by the study from the frames it reads, not from these.)

/// Lifetime relay statistics.
#[derive(Debug, Clone, Default)]
pub struct RelayStats {
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
    fn empty_stats() {
        let stats = RelayStats::new();
        assert_eq!(stats.events_forwarded(), 0);
        assert_eq!(stats.duplicates_dropped(), 0);
        assert_eq!(stats.dedup_tracked(), 0);
        assert_eq!(stats.outbox_positions_skipped(), 0);
    }
}
