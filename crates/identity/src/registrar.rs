//! Registrars and WHOIS.
//!
//! §5 ("Registrar Concentration") runs a WHOIS scan over the registered
//! domains behind custom handles, extracts IANA registrar IDs where present,
//! and reports concentration (Table 2). This module provides the registrar
//! catalogue and a WHOIS database with the same coverage gaps the paper
//! describes: not every domain has retrievable WHOIS data, and ccTLD records
//! frequently omit the IANA ID.

use std::collections::BTreeMap;

/// A domain registrar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registrar {
    /// IANA registrar ID (None for locally-accredited ccTLD registrars).
    pub iana_id: Option<u32>,
    /// Registrar name as it appears in WHOIS.
    pub name: String,
}

/// The registrar catalogue used by the synthetic population, mirroring the
/// real-world market shares Table 2 reports.
pub fn default_catalogue() -> Vec<Registrar> {
    let named: [(u32, &str); 7] = [
        (1068, "NameCheap, Inc."),
        (1910, "CloudFlare, Inc."),
        (895, "Squarespace Domains"),
        (146, "GoDaddy.com, LLC"),
        (1861, "Porkbun, LLC"),
        (69, "Tucows Domains Inc."),
        (49, "GMO Internet Group"),
    ];
    let mut catalogue: Vec<Registrar> = named
        .iter()
        .map(|(id, name)| Registrar {
            iana_id: Some(*id),
            name: (*name).to_string(),
        })
        .collect();
    // A long tail of smaller ICANN-accredited registrars...
    for i in 0..230u32 {
        catalogue.push(Registrar {
            iana_id: Some(2000 + i),
            name: format!("Registrar {:03} LLC", i),
        });
    }
    // ...and locally-accredited ccTLD registrars without IANA IDs.
    for i in 0..12u32 {
        catalogue.push(Registrar {
            iana_id: None,
            name: format!("ccTLD Registry Partner {i:02}"),
        });
    }
    catalogue
}

/// A WHOIS record for a registered domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WhoisRecord {
    /// The registered domain.
    pub(crate) domain: String,
    /// The registrar, if WHOIS data could be retrieved at all.
    pub registrar: Option<Registrar>,
}

/// The WHOIS database queried by the study's scan.
#[derive(Debug, Clone, Default)]
pub struct WhoisDatabase {
    records: BTreeMap<String, WhoisRecord>,
}

impl WhoisDatabase {
    /// Create an empty database.
    pub fn new() -> WhoisDatabase {
        WhoisDatabase::default()
    }

    /// Register a domain with its registrar (or `None` when WHOIS data will
    /// be unavailable for it).
    pub fn register(&mut self, domain: &str, registrar: Option<Registrar>) {
        let domain = domain.to_ascii_lowercase();
        self.records
            .insert(domain.clone(), WhoisRecord { domain, registrar });
    }

    /// Perform a WHOIS query. `None` means no data could be retrieved.
    pub fn query(&self, domain: &str) -> Option<&WhoisRecord> {
        self.records.get(&domain.to_ascii_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_table2_registrars() {
        let catalogue = default_catalogue();
        assert!(catalogue.len() >= 249, "paper finds 249 registrars");
        let namecheap = catalogue
            .iter()
            .find(|r| r.name.contains("NameCheap"))
            .unwrap();
        assert_eq!(namecheap.iana_id, Some(1068));
        let cloudflare = catalogue
            .iter()
            .find(|r| r.name.contains("CloudFlare"))
            .unwrap();
        assert_eq!(cloudflare.iana_id, Some(1910));
        let without_id = catalogue.iter().filter(|r| r.iana_id.is_none()).count();
        assert!(without_id > 0, "some ccTLD registrars lack IANA IDs");
        // IANA IDs are unique where present.
        let mut ids: Vec<u32> = catalogue.iter().filter_map(|r| r.iana_id).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn whois_query_paths() {
        let mut db = WhoisDatabase::new();
        let catalogue = default_catalogue();
        db.register("example.com", Some(catalogue[0].clone()));
        db.register(
            "example.co.jp",
            Some(
                catalogue
                    .iter()
                    .find(|r| r.iana_id.is_none())
                    .unwrap()
                    .clone(),
            ),
        );
        db.register("hidden.example", None);

        let rec = db.query("EXAMPLE.com").unwrap();
        assert_eq!(rec.registrar.as_ref().unwrap().iana_id, Some(1068));
        let cc = db.query("example.co.jp").unwrap();
        assert!(cc.registrar.is_some());
        assert_eq!(cc.registrar.as_ref().unwrap().iana_id, None);
        let hidden = db.query("hidden.example").unwrap();
        assert!(hidden.registrar.is_none());
        assert!(db.query("unregistered.example").is_none());
        assert_eq!(db.records.len(), 3);
    }
}
