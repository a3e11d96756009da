//! Accounts and (non-public) user preferences.
//!
//! A PDS stores, next to each hosted repository, the account's private
//! settings. The study deliberately does not crawl these (§6: "the user
//! preferences are not publicly visible and we make no attempt to reveal
//! them"), but the AppView needs them to apply moderation, so the simulation
//! models them faithfully and simply never exports them through sync APIs.

use bsky_atproto::{Datetime, Did, Handle};
use std::collections::BTreeMap;

/// How a client should react to a label (§2, "User Preferences").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LabelAction {
    /// Show the content untouched.
    Ignore,
    /// Show the content behind a warning.
    Warn,
    /// Hide the content entirely.
    Hide,
}

/// Per-user moderation preferences.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModerationPreferences {
    /// Labelers the user subscribes to, beyond the mandatory Bluesky one.
    pub subscribed_labelers: Vec<Did>,
    /// Reaction overrides per label value.
    pub label_actions: BTreeMap<String, LabelAction>,
    /// Whether adult content is enabled (age-gated labels).
    pub adult_content_enabled: bool,
}

impl ModerationPreferences {
    /// The action for a label value, falling back to `Warn` for unknown
    /// values and `Hide` for reserved values.
    pub fn action_for(&self, value: &str) -> LabelAction {
        if let Some(action) = self.label_actions.get(value) {
            return *action;
        }
        if bsky_atproto::label::is_reserved_value(value) {
            LabelAction::Hide
        } else {
            LabelAction::Warn
        }
    }

    /// Subscribe to a labeler (idempotent).
    pub fn subscribe(&mut self, labeler: Did) {
        if !self.subscribed_labelers.contains(&labeler) {
            self.subscribed_labelers.push(labeler);
        }
    }
}

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
    /// Private moderation preferences.
    pub(crate) preferences: ModerationPreferences,
}

impl Account {
    /// Create an active account.
    pub(crate) fn new(did: Did, handle: Handle, created_at: Datetime) -> Account {
        Account {
            did,
            handle,
            created_at,
            status: AccountStatus::Active,
            preferences: ModerationPreferences::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preference_defaults() {
        let prefs = ModerationPreferences::default();
        assert_eq!(prefs.action_for("porn"), LabelAction::Warn);
        assert_eq!(prefs.action_for("!takedown"), LabelAction::Hide);
        assert!(!prefs.adult_content_enabled);
    }

    #[test]
    fn preference_overrides() {
        let mut prefs = ModerationPreferences::default();
        prefs
            .label_actions
            .insert("spoiler".into(), LabelAction::Hide);
        prefs
            .label_actions
            .insert("porn".into(), LabelAction::Ignore);
        assert_eq!(prefs.action_for("spoiler"), LabelAction::Hide);
        assert_eq!(prefs.action_for("porn"), LabelAction::Ignore);
        assert_eq!(prefs.action_for("other"), LabelAction::Warn);
    }

    #[test]
    fn subscription_is_idempotent() {
        let mut prefs = ModerationPreferences::default();
        let labeler = Did::plc_from_seed(b"labeler");
        prefs.subscribe(labeler.clone());
        prefs.subscribe(labeler.clone());
        assert_eq!(prefs.subscribed_labelers, vec![labeler]);
    }

    #[test]
    fn account_construction() {
        let account = Account::new(
            Did::plc_from_seed(b"alice"),
            Handle::parse("alice.bsky.social").unwrap(),
            Datetime::from_ymd(2023, 5, 1).unwrap(),
        );
        assert_eq!(account.status, AccountStatus::Active);
        assert!(account.preferences.subscribed_labelers.is_empty());
    }
}
