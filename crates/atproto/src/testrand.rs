//! A tiny deterministic generator for randomized tests (SplitMix64), so the
//! property-style tests need no external dependency and are reproducible.
//!
//! This intentionally duplicates the SplitMix64 step in
//! `bsky-workload`'s `rng` module: this crate sits below `bsky-workload` in
//! the dependency graph, so it cannot reuse `SimRng`. Unlike `SimRng`, `below()`
//! uses plain modulo reduction — biased for huge bounds, fine for test-case
//! synthesis. Keep the constants in sync with the twin if either changes.

/// Deterministic pseudo-random generator for test-case synthesis.
pub(crate) struct TestRng(u64);

impl TestRng {
    /// Create from a fixed seed.
    pub(crate) fn new(seed: u64) -> TestRng {
        TestRng(seed)
    }

    /// Next raw 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)` (`bound` must be non-zero).
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Random byte vector with length in `[0, max_len)`.
    pub(crate) fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len.max(1) as u64) as usize;
        (0..len).map(|_| self.next_u64() as u8).collect()
    }

    /// Random lowercase ASCII string with length in `[min_len, max_len]`.
    pub(crate) fn lowercase(&mut self, min_len: usize, max_len: usize) -> String {
        let len = min_len + self.below((max_len - min_len + 1) as u64) as usize;
        (0..len)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }

    /// Random printable-ish string (includes non-ASCII) for parser fuzzing.
    pub(crate) fn junk_string(&mut self, max_len: usize) -> String {
        let len = self.below(max_len.max(1) as u64) as usize;
        (0..len)
            .map(|_| {
                match self.below(4) {
                    0 => (0x20 + self.below(0x5f) as u8) as char, // printable ASCII
                    1 => char::from_u32(0xa0 + self.below(0x500) as u32).unwrap_or('x'),
                    2 => ['.', ':', '/', '@', '-', '_'][self.below(6) as usize],
                    _ => char::from_u32(self.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
                }
            })
            .collect()
    }
}
