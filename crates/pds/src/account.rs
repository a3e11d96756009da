//! Accounts hosted on a PDS.
//!
//! A PDS keeps, next to each hosted repository, the account's identity and
//! status. The account's private settings — moderation preferences among
//! them — are not modelled: the study deliberately does not crawl them (§6:
//! "the user preferences are not publicly visible and we make no attempt to
//! reveal them"), and nothing in the simulation reads them.

use bsky_atproto::{Datetime, Did, Handle};

/// Account status on its PDS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccountStatus {
    /// Active account.
    Active,
    /// Deactivated (kept but not serving).
    Deactivated,
    /// Deleted (tombstoned network-wide).
    Deleted,
}

/// An account hosted on a PDS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Account {
    /// The account's immutable DID.
    pub(crate) did: Did,
    /// The current handle.
    pub(crate) handle: Handle,
    /// When the account was created.
    pub(crate) created_at: Datetime,
    /// Account status.
    pub(crate) status: AccountStatus,
}

impl Account {
    /// Create an active account.
    pub(crate) fn new(did: Did, handle: Handle, created_at: Datetime) -> Account {
        Account {
            did,
            handle,
            created_at,
            status: AccountStatus::Active,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn account_construction() {
        let account = Account::new(
            Did::plc_from_seed(b"alice"),
            Handle::parse("alice.bsky.social").unwrap(),
            Datetime::from_ymd(2023, 5, 1).unwrap(),
        );
        assert_eq!(account.status, AccountStatus::Active);
        assert_eq!(account.handle.as_str(), "alice.bsky.social");
    }
}
