//! Tranco-style domain popularity ranking.
//!
//! §5 cross-references the registered domains behind custom handles with the
//! Tranco top-1M list and finds only 2.8 % of them inside it (media outlets,
//! tech companies, universities). This module provides a synthetic ranking
//! with the same query interface.

use std::collections::BTreeMap;

/// A popularity ranking of registered domains (rank 1 = most popular).
#[derive(Debug, Clone, Default)]
pub struct TrancoList {
    ranks: BTreeMap<String, u32>,
}

impl TrancoList {
    /// Create an empty list.
    pub(crate) fn new() -> TrancoList {
        TrancoList::default()
    }

    /// Build a list from domains in rank order (first = rank 1).
    pub(crate) fn from_ranked(domains: &[String]) -> TrancoList {
        let mut list = TrancoList::new();
        for (i, d) in domains.iter().enumerate() {
            list.insert(d, i as u32 + 1);
        }
        list
    }

    /// Insert a domain at a rank (keeps the best rank on duplicates).
    pub(crate) fn insert(&mut self, domain: &str, rank: u32) {
        let domain = domain.to_ascii_lowercase();
        self.ranks
            .entry(domain)
            .and_modify(|r| *r = (*r).min(rank))
            .or_insert(rank);
    }

    /// The rank of a domain, if listed.
    pub(crate) fn rank(&self, domain: &str) -> Option<u32> {
        self.ranks.get(&domain.to_ascii_lowercase()).copied()
    }

    /// Whether a domain is within the top `n`.
    pub fn in_top(&self, domain: &str, n: u32) -> bool {
        self.rank(domain).map(|r| r <= n).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_queries() {
        let list = TrancoList::from_ranked(&[
            "google.com".into(),
            "amazonaws.com".into(),
            "nytimes.com".into(),
        ]);
        assert_eq!(list.rank("google.com"), Some(1));
        assert_eq!(list.rank("NYTIMES.com"), Some(3));
        assert_eq!(list.rank("unknown.example"), None);
        assert!(list.in_top("amazonaws.com", 2));
        assert!(!list.in_top("nytimes.com", 2));
        assert!(!list.in_top("unknown.example", 1_000_000));
        assert_eq!(list.ranks.len(), 3);
    }

    #[test]
    fn duplicate_keeps_best_rank() {
        let mut list = TrancoList::new();
        list.insert("example.com", 500);
        list.insert("example.com", 100);
        list.insert("example.com", 900);
        assert_eq!(list.rank("example.com"), Some(100));
    }
}
