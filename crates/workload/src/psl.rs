//! Public Suffix List handling.
//!
//! §5 extracts *registered domains* (effective second-level domains) from
//! FQDN handles using the Public Suffix List, so that `alice.github.io`
//! groups under `github.io` (a private suffix) while `alice.example.co.uk`
//! groups under `example.co.uk`. We embed a compact PSL subset that covers
//! the suffixes appearing in the synthetic handle population; the lookup
//! (longest matching suffix, unknown TLDs as one-label suffixes) follows the
//! PSL algorithm. The subset has no wildcard (`*.`) rules, so the lookup has
//! none either.

use std::collections::BTreeSet;

/// A compiled Public Suffix List.
#[derive(Debug, Clone)]
pub(crate) struct PublicSuffixList {
    suffixes: BTreeSet<String>,
}

/// ICANN suffixes embedded by default.
const ICANN_SUFFIXES: &[&str] = &[
    "com", "org", "net", "edu", "gov", "mil", "int", "io", "social", "app", "dev", "cool", "work",
    "world", "me", "tv", "fm", "blue", "sh", "xyz", "cloud", "team", "online", "site", "club",
    "art", "blog", "wiki", "jp", "de", "fr", "br", "uk", "us", "ca", "au", "nl", "kr", "es", "it",
    "pl", "se", "ch", "at", "be", "cz", "eu", "info", "biz", "name", "pro",
    // Second-level ccTLD suffixes.
    "co.uk", "org.uk", "ac.uk", "com.br", "net.br", "org.br", "co.jp", "ne.jp", "or.jp", "ac.jp",
    "com.au", "net.au", "org.au", "co.kr", "or.kr", "com.es", "co.at", "co.nz",
];

/// Private-section suffixes embedded by default (operators offering
/// subdomains to the public, so each subdomain is its own registrable name).
const PRIVATE_SUFFIXES: &[&str] = &[
    "github.io",
    "gitlab.io",
    "netlify.app",
    "vercel.app",
    "pages.dev",
    "web.app",
    "herokuapp.com",
    "glitch.me",
    "neocities.org",
];

impl Default for PublicSuffixList {
    fn default() -> Self {
        PublicSuffixList {
            suffixes: ICANN_SUFFIXES
                .iter()
                .chain(PRIVATE_SUFFIXES)
                .map(|s| s.to_string())
                .collect(),
        }
    }
}

impl PublicSuffixList {
    /// The embedded default list.
    pub(crate) fn embedded() -> PublicSuffixList {
        PublicSuffixList::default()
    }

    /// The length (in labels) of the longest public suffix of `labels`, or 0.
    fn matching_suffix_len(&self, labels: &[&str]) -> usize {
        let mut best = 0usize;
        for start in 0..labels.len() {
            let candidate = labels[start..].join(".");
            if self.suffixes.contains(&candidate) {
                best = best.max(labels.len() - start);
            }
        }
        best
    }

    /// The registered (registrable) domain of an FQDN: the public suffix plus
    /// one label. Returns `None` when the FQDN *is* a public suffix or when
    /// no rule matches and the name has fewer than two labels.
    pub(crate) fn registered_domain(&self, fqdn: &str) -> Option<String> {
        let fqdn = fqdn.to_ascii_lowercase();
        let labels: Vec<&str> = fqdn.split('.').filter(|l| !l.is_empty()).collect();
        if labels.len() < 2 {
            return None;
        }
        let suffix_len = self.matching_suffix_len(&labels);
        if suffix_len == 0 {
            // PSL prevailing rule: unknown TLDs behave as a 1-label suffix.
            return Some(labels[labels.len() - 2..].join("."));
        }
        if suffix_len >= labels.len() {
            return None; // The whole name is a public suffix.
        }
        Some(labels[labels.len() - suffix_len - 1..].join("."))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_tlds() {
        let psl = PublicSuffixList::embedded();
        assert_eq!(
            psl.registered_domain("alice.bsky.social"),
            Some("bsky.social".into())
        );
        assert_eq!(
            psl.registered_domain("example.com"),
            Some("example.com".into())
        );
        assert_eq!(
            psl.registered_domain("a.b.c.example.com"),
            Some("example.com".into())
        );
        assert_eq!(psl.registered_domain("com"), None);
        assert_eq!(psl.registered_domain(""), None);
        assert_eq!(psl.registered_domain("single"), None);
    }

    #[test]
    fn multi_label_suffixes() {
        let psl = PublicSuffixList::embedded();
        assert_eq!(
            psl.registered_domain("news.bbc.co.uk"),
            Some("bbc.co.uk".into())
        );
        assert_eq!(psl.registered_domain("bbc.co.uk"), Some("bbc.co.uk".into()));
        assert_eq!(psl.registered_domain("co.uk"), None);
        assert_eq!(
            psl.registered_domain("user.blog.com.br"),
            Some("blog.com.br".into())
        );
    }

    #[test]
    fn private_suffixes_group_per_user() {
        let psl = PublicSuffixList::embedded();
        // The paper finds 35 accounts using github.io subdomains as handles.
        assert_eq!(
            psl.registered_domain("alice.github.io"),
            Some("alice.github.io".into())
        );
        assert_eq!(
            psl.registered_domain("deep.alice.github.io"),
            Some("alice.github.io".into())
        );
        assert_eq!(psl.registered_domain("github.io"), None);
    }

    #[test]
    fn unknown_tld_prevailing_rule() {
        let psl = PublicSuffixList::embedded();
        assert_eq!(
            psl.registered_domain("host.example.unknowntld"),
            Some("example.unknowntld".into())
        );
    }

    #[test]
    fn case_insensitive() {
        let psl = PublicSuffixList::embedded();
        assert_eq!(
            psl.registered_domain("Alice.Example.COM"),
            Some("example.com".into())
        );
        assert_eq!(psl.registered_domain("COM"), None);
    }
}
