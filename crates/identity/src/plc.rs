//! The PLC directory.
//!
//! `plc.directory` is the centralized service operated by Bluesky PBC that
//! stores the DID documents of every `did:plc` identity (§2, §5). The study
//! downloaded a full snapshot of it (5,077,159 documents) over one week. The
//! simulated directory supports creation, updates (PDS migration, handle
//! change), tombstoning, and a paginated export used by the measurement
//! pipeline.

use crate::diddoc::DidDocument;
use bsky_atproto::error::{AtError, Result};
use bsky_atproto::Did;
use std::collections::{BTreeMap, BTreeSet};

/// The PLC directory service.
#[derive(Debug, Clone, Default)]
pub struct PlcDirectory {
    documents: BTreeMap<String, DidDocument>,
    tombstones: BTreeSet<String>,
}

impl PlcDirectory {
    /// Create an empty directory.
    pub fn new() -> PlcDirectory {
        PlcDirectory::default()
    }

    /// Register a new identity. Fails if the DID already exists (or was
    /// tombstoned) or is not a `did:plc`.
    pub fn create(&mut self, document: DidDocument) -> Result<()> {
        if document.did.method() != bsky_atproto::DidMethod::Plc {
            return Err(AtError::InvalidDid(format!(
                "PLC directory only stores did:plc, got {}",
                document.did
            )));
        }
        let key = document.did.to_string();
        if self.documents.contains_key(&key) || self.tombstones.contains(&key) {
            return Err(AtError::InvalidDid(format!("{key} already registered")));
        }
        self.documents.insert(key, document);
        Ok(())
    }

    /// Update an identity's document (handle change, PDS migration, ...).
    pub fn update(&mut self, did: &Did, mutate: impl FnOnce(&mut DidDocument)) -> Result<()> {
        let key = did.to_string();
        let doc = self
            .documents
            .get_mut(&key)
            .ok_or_else(|| AtError::InvalidDid(format!("{key} not registered")))?;
        mutate(doc);
        Ok(())
    }

    /// Tombstone (delete) an identity.
    pub fn tombstone(&mut self, did: &Did) -> Result<()> {
        let key = did.to_string();
        if self.documents.remove(&key).is_none() {
            return Err(AtError::InvalidDid(format!("{key} not registered")));
        }
        self.tombstones.insert(key);
        Ok(())
    }

    /// Paginated export: documents in DID order, starting after `cursor`.
    /// Returns the page and the next cursor (None when exhausted). This is
    /// what the study's snapshot download uses.
    pub fn export(
        &self,
        cursor: Option<&str>,
        page_size: usize,
    ) -> (Vec<&DidDocument>, Option<String>) {
        let page_size = page_size.max(1);
        let iter: Box<dyn Iterator<Item = (&String, &DidDocument)>> = match cursor {
            Some(c) => Box::new(self.documents.range::<String, _>((
                std::ops::Bound::Excluded(c.to_string()),
                std::ops::Bound::Unbounded,
            ))),
            None => Box::new(self.documents.iter()),
        };
        let page: Vec<&DidDocument> = iter.take(page_size).map(|(_, d)| d).collect();
        let next = if page.len() == page_size {
            page.last().map(|d| d.did.to_string())
        } else {
            None
        };
        (page, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsky_atproto::Handle;

    fn doc(name: &str) -> DidDocument {
        DidDocument::new(
            Did::plc_from_seed(name.as_bytes()),
            Handle::parse(&format!("{name}.bsky.social")).unwrap(),
            format!("key-{name}"),
            "https://pds001.bsky.network".into(),
        )
    }

    #[test]
    fn create_resolve_update_tombstone() {
        let mut plc = PlcDirectory::new();
        let d = doc("alice");
        let did = d.did.clone();
        plc.create(d).unwrap();
        assert_eq!(plc.documents.len(), 1);
        assert!(plc.documents.contains_key(&did.to_string()));

        plc.update(&did, |doc| {
            doc.handle = Handle::parse("alice.example.com").unwrap();
        })
        .unwrap();
        assert_eq!(
            plc.documents.get(&did.to_string()).unwrap().handle.as_str(),
            "alice.example.com"
        );

        plc.tombstone(&did).unwrap();
        assert!(!plc.documents.contains_key(&did.to_string()));
        assert!(plc.tombstones.contains(&did.to_string()));
        // Cannot recreate a tombstoned DID.
        assert!(plc.create(doc("alice")).is_err());
    }

    #[test]
    fn duplicate_and_missing_errors() {
        let mut plc = PlcDirectory::new();
        plc.create(doc("bob")).unwrap();
        assert!(plc.create(doc("bob")).is_err());
        let missing = Did::plc_from_seed(b"missing");
        assert!(plc.update(&missing, |_| {}).is_err());
        assert!(plc.tombstone(&missing).is_err());
        assert!(!plc.tombstones.contains(&missing.to_string()));
    }

    #[test]
    fn rejects_did_web() {
        let mut plc = PlcDirectory::new();
        let d = DidDocument::new(
            Did::web("example.com").unwrap(),
            Handle::parse("example.com").unwrap(),
            "key".into(),
            "https://pds.example".into(),
        );
        assert!(plc.create(d).is_err());
    }

    #[test]
    fn paginated_export_covers_everything_once() {
        let mut plc = PlcDirectory::new();
        for i in 0..57 {
            plc.create(doc(&format!("user{i}"))).unwrap();
        }
        let mut seen = Vec::new();
        let mut cursor: Option<String> = None;
        let mut pages = 0;
        loop {
            let (page, next) = plc.export(cursor.as_deref(), 10);
            seen.extend(page.iter().map(|d| d.did.to_string()));
            pages += 1;
            match next {
                Some(c) => cursor = Some(c),
                None => break,
            }
            assert!(pages < 100, "pagination did not terminate");
        }
        assert_eq!(seen.len(), 57);
        let mut dedup = seen.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 57);
        assert!(pages >= 6);
    }
}
