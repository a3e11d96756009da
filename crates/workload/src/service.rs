//! Labeler services.
//!
//! A Labeler is a regular account with a service record in its repository and
//! a public label-stream endpoint in its DID document (§2, §6). The service
//! observes posts (and accounts), decides whether to label them according to
//! its [`IssuancePolicy`], waits out its modelled reaction delay, and then
//! publishes the label on its stream. Consumers (the AppView, the study's
//! collector) read the stream with a cursor. A cursor is an absolute stream
//! position, so it keeps its meaning once the entries every consumer has
//! read are let go (`LabelerService::trim_stream`); until then a consumer
//! can backfill from the start.

use crate::net::HostingClass;
use crate::policy::IssuancePolicy;
use crate::rng::SimRng;
use bsky_atproto::error::Result;
use bsky_atproto::label::{Label, LabelTarget};
use bsky_atproto::record::PostRecord;
use bsky_atproto::{AtUri, Datetime, Did};
use std::collections::VecDeque;

/// Upper bound on a labeler's reaction delay, in days. Every sampled delay
/// is clamped to this window, which gives downstream consumers a hard
/// guarantee: a label for a post always surfaces within
/// `REACTION_WINDOW_DAYS` of the post's publication. The study pipeline
/// relies on this to age out its post-creation index without losing any
/// reaction-time measurement.
pub const REACTION_WINDOW_DAYS: i64 = 14;

/// Who operates a labeler (for the Bluesky-vs-community split in §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LabelerOperator {
    /// The official, mandatory Bluesky moderation service.
    BlueskyOfficial,
    /// A community-run labeler.
    Community,
}

/// A labeler service instance.
#[derive(Debug, Clone)]
pub struct LabelerService {
    did: Did,
    display_name: String,
    operator: LabelerOperator,
    hosting: HostingClass,
    policy: IssuancePolicy,
    /// Labels awaiting their reaction delay, ordered by due time. The flag
    /// marks labels that will be rescinded right after publication.
    pending: VecDeque<(Datetime, Label, bool)>,
    /// The published entries still held, in publication order: `stream[i]`
    /// is the entry at absolute position `stream_trimmed + i`.
    stream: Vec<Label>,
    /// Entries let go by `LabelerService::trim_stream`: the position of
    /// `stream[0]`.
    stream_trimmed: usize,
    rng: SimRng,
    /// Whether the endpoint currently answers (dead endpoints never publish).
    functional: bool,
    /// Where `observe_post` renders the post URI its generator is derived
    /// from: every labeler sees every post, so the key is never allocated.
    uri_buf: Vec<u8>,
}

impl LabelerService {
    /// Create a labeler service.
    pub fn new(
        did: Did,
        display_name: impl Into<String>,
        operator: LabelerOperator,
        hosting: HostingClass,
        policy: IssuancePolicy,
        rng: SimRng,
    ) -> LabelerService {
        let display_name = display_name.into();
        LabelerService {
            functional: hosting != HostingClass::Dead,
            did,
            display_name,
            operator,
            hosting,
            policy,
            pending: VecDeque::new(),
            stream: Vec::new(),
            stream_trimmed: 0,
            rng,
            uri_buf: Vec::new(),
        }
    }

    /// The labeler's account DID.
    pub fn did(&self) -> &Did {
        &self.did
    }

    /// Human-readable name (Table 3).
    pub fn display_name(&self) -> &str {
        &self.display_name
    }

    /// Operator class.
    pub fn operator(&self) -> LabelerOperator {
        self.operator
    }

    /// Hosting classification of the endpoint (§6.1).
    pub fn hosting(&self) -> HostingClass {
        self.hosting
    }

    /// Whether the endpoint answers at all.
    pub fn is_functional(&self) -> bool {
        self.functional
    }

    /// Observe a freshly published post. Matching triggers enqueue labels
    /// that will surface on the stream after the reaction delay.
    ///
    /// Every stochastic decision — trigger sampling, reaction delay, the
    /// rescind coin — is drawn from a generator derived from this labeler's
    /// seed *and the post URI*, never from a sequential stream. The verdict
    /// on a given post is therefore identical no matter which other posts
    /// this service instance has seen, which is what lets a sharded run
    /// (each shard's labeler copy sees only that shard's posts) reproduce
    /// the single-instance label stream exactly.
    pub fn observe_post(&mut self, uri: &AtUri, post: &PostRecord, observed_at: Datetime) {
        if !self.functional {
            return;
        }
        self.uri_buf.clear();
        uri.write_to(&mut self.uri_buf);
        let uri_str = std::str::from_utf8(&self.uri_buf).expect("AT-URIs render as UTF-8");
        let mut rng = self.rng.fork(uri_str);
        let values = self.policy.evaluate(post, &mut rng);
        for value in values {
            let delay = self
                .policy
                .reaction
                .sample_delay_secs(&mut rng)
                .min((REACTION_WINDOW_DAYS * 86_400) as f64);
            let due = observed_at.plus_seconds(delay.round() as i64);
            let label = match Label::new(
                self.did.clone(),
                LabelTarget::Record(uri.clone()),
                value,
                due,
            ) {
                Ok(l) => l,
                Err(_) => continue,
            };
            let rescind = rng.chance(self.policy.rescind_probability);
            self.schedule(due, label, rescind);
        }
    }

    /// Directly apply a label to an arbitrary target (account-level
    /// moderation, profile media, retroactive labelling).
    pub(crate) fn apply_label(
        &mut self,
        target: LabelTarget,
        value: &str,
        observed_at: Datetime,
    ) -> Result<()> {
        let mut rng = self.rng.fork(&target.uri());
        let delay = self
            .policy
            .reaction
            .sample_delay_secs(&mut rng)
            .min((REACTION_WINDOW_DAYS * 86_400) as f64);
        let due = observed_at.plus_seconds(delay.round() as i64);
        let label = Label::new(self.did.clone(), target, value, due)?;
        let rescind = rng.chance(self.policy.rescind_probability);
        self.schedule(due, label, rescind);
        Ok(())
    }

    fn schedule(&mut self, due: Datetime, label: Label, rescind: bool) {
        // Keep the pending queue sorted by due time (insertion point search).
        let idx = self
            .pending
            .iter()
            .position(|(t, _, _)| *t > due)
            .unwrap_or(self.pending.len());
        self.pending.insert(idx, (due, label, rescind));
    }

    /// Release every pending label whose reaction delay has elapsed onto the
    /// public stream. Labels drawn for rescission (false-positive cleanup)
    /// are followed by their negation. Returns how many stream entries were
    /// added.
    pub fn poll(&mut self, now: Datetime) -> usize {
        if !self.functional {
            return 0;
        }
        let mut published = 0usize;
        while matches!(self.pending.front(), Some((due, _, _)) if *due <= now) {
            let (_, label, rescind) = self.pending.pop_front().expect("checked front");
            self.stream.push(label.clone());
            published += 1;
            if rescind {
                self.stream.push(label.negation(now));
                published += 1;
            }
        }
        published
    }

    /// Read the public stream from a cursor (an absolute stream position).
    /// Returns the entries from there on and the next cursor. Unavailable
    /// endpoints return an empty read without advancing the cursor.
    ///
    /// # Panics
    ///
    /// When `cursor` is below the entries let go
    /// (`LabelerService::trim_stream`): that reader would get a shortened
    /// history, so it is stopped rather than served one.
    pub fn subscribe_labels(&self, cursor: usize) -> (&[Label], usize) {
        assert!(
            cursor >= self.stream_trimmed,
            "label stream read from {cursor}, below the {} entries already let go",
            self.stream_trimmed
        );
        if !self.functional {
            return (&[], cursor);
        }
        let start = (cursor - self.stream_trimmed).min(self.stream.len());
        (
            &self.stream[start..],
            self.stream_trimmed + self.stream.len(),
        )
    }

    /// Let go of every entry below the absolute position `upto`. The caller
    /// vouches that every reader of the stream is at or past `upto`: in a
    /// study that is the collector, the stream's only reader. Trimming to a
    /// position already let go is a no-op.
    pub(crate) fn trim_stream(&mut self, upto: usize) {
        let gone = upto
            .saturating_sub(self.stream_trimmed)
            .min(self.stream.len());
        self.stream.drain(..gone);
        self.stream_trimmed += gone;
    }
}

/// The registry of all labelers known to the network (the set the study
/// compiles from repositories and firehose updates).
#[derive(Debug, Clone, Default)]
pub struct LabelerRegistry {
    labelers: Vec<LabelerService>,
}

impl LabelerRegistry {
    /// Create an empty registry.
    pub(crate) fn new() -> LabelerRegistry {
        LabelerRegistry::default()
    }

    /// Register a labeler.
    pub(crate) fn register(&mut self, labeler: LabelerService) {
        self.labelers.push(labeler);
    }

    /// All labelers.
    pub fn all(&self) -> &[LabelerService] {
        &self.labelers
    }

    /// Mutable access to all labelers.
    pub(crate) fn all_mut(&mut self) -> &mut [LabelerService] {
        &mut self.labelers
    }

    /// Number of announced labelers.
    pub(crate) fn announced_count(&self) -> usize {
        self.labelers.len()
    }
}

// Whether a labeler published anything is the study's to find out from
// its stream; only the tests ask the services directly.
#[cfg(test)]
impl LabelerService {
    /// Whether the labeler has ever published anything.
    pub(crate) fn has_issued(&self) -> bool {
        self.stream_trimmed + self.stream.len() > 0
    }
}

#[cfg(test)]
impl LabelerRegistry {
    /// Number of labelers that issued at least one label.
    pub(crate) fn active_count(&self) -> usize {
        self.labelers.iter().filter(|l| l.has_issued()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ReactionModel, Trigger};
    use bsky_atproto::nsid::known;
    use bsky_atproto::record::{Embed, ImageEmbed, MediaKind};
    use bsky_atproto::Nsid;
    use std::collections::HashSet;

    fn now() -> Datetime {
        Datetime::from_ymd(2024, 4, 1).unwrap()
    }

    fn post_uri(n: u32) -> AtUri {
        AtUri::record(
            Did::plc_from_seed(b"author"),
            Nsid::parse(known::POST).unwrap(),
            format!("rkey{n:09}"),
        )
    }

    fn media_post(alt: Option<&str>) -> PostRecord {
        PostRecord {
            text: "pic".into(),
            created_at: now(),
            langs: vec!["en".into()],
            reply_parent: None,
            embed: Some(Embed::Images(vec![ImageEmbed {
                alt: alt.map(str::to_string),
                kind: MediaKind::Photo,
            }])),
            tags: vec![],
        }
    }

    fn alt_text_labeler() -> LabelerService {
        LabelerService::new(
            Did::plc_from_seed(b"alt-labeler"),
            "Bad Accessibility / Alt Text Labeler",
            LabelerOperator::Community,
            HostingClass::Cloud,
            IssuancePolicy::new(
                vec![Trigger::MissingAltText {
                    value: "no-alt-text".into(),
                }],
                ReactionModel::Automated {
                    median_secs: 0.6,
                    sigma: 0.1,
                },
            ),
            SimRng::new(1),
        )
    }

    #[test]
    fn observe_then_poll_publishes_after_delay() {
        let mut labeler = alt_text_labeler();
        labeler.observe_post(&post_uri(1), &media_post(None), now());
        labeler.observe_post(&post_uri(2), &media_post(Some("described")), now());
        assert_eq!(labeler.pending.len(), 1);
        assert_eq!(labeler.poll(now()), 0, "reaction delay has not elapsed");
        let published = labeler.poll(now().plus_seconds(120));
        assert_eq!(published, 1);
        let (labels, cursor) = labeler.subscribe_labels(0);
        assert_eq!(labels.len(), 1);
        assert_eq!(labels[0].value, "no-alt-text");
        assert_eq!(labels[0].target, LabelTarget::Record(post_uri(1)));
        assert!(!labels[0].negated);
        assert!(labeler.has_issued());
        // Cursor semantics.
        let (rest, _) = labeler.subscribe_labels(cursor);
        assert!(rest.is_empty());
    }

    #[test]
    fn a_trimmed_stream_keeps_absolute_cursors() {
        let mut labeler = alt_text_labeler();
        labeler.observe_post(&post_uri(1), &media_post(None), now());
        labeler.poll(now().plus_seconds(120));
        let (_, cursor) = labeler.subscribe_labels(0);
        assert_eq!(cursor, 1);
        labeler.trim_stream(cursor);
        labeler.trim_stream(0);
        assert!(labeler.stream.is_empty(), "read entries go");
        assert!(labeler.has_issued());
        labeler.observe_post(&post_uri(2), &media_post(None), now());
        labeler.poll(now().plus_seconds(240));
        let (labels, next) = labeler.subscribe_labels(cursor);
        assert_eq!(labels.len(), 1);
        assert_eq!(labels[0].target, LabelTarget::Record(post_uri(2)));
        assert_eq!(next, 2);
    }

    #[test]
    #[should_panic(expected = "below the 1 entries already let go")]
    fn a_reader_the_trim_passed_is_not_served_a_short_history() {
        let mut labeler = alt_text_labeler();
        labeler.observe_post(&post_uri(1), &media_post(None), now());
        labeler.poll(now().plus_seconds(120));
        labeler.trim_stream(1);
        let _ = labeler.subscribe_labels(0);
    }

    #[test]
    fn reaction_time_is_observable_from_stream() {
        let mut labeler = alt_text_labeler();
        for i in 0..200 {
            labeler.observe_post(&post_uri(i), &media_post(None), now());
        }
        labeler.poll(now().plus_days(1));
        let (labels, _) = labeler.subscribe_labels(0);
        assert_eq!(labels.len(), 200);
        // Median reaction time (label time − post observation time) is close
        // to the configured 0.6 s median (rounded to whole seconds).
        let mut delays: Vec<i64> = labels
            .iter()
            .map(|l| l.created_at.timestamp() - now().timestamp())
            .collect();
        delays.sort();
        let median = delays[delays.len() / 2];
        assert!((0..=2).contains(&median), "median delay {median}");
    }

    #[test]
    fn dead_endpoints_never_publish() {
        let mut labeler = LabelerService::new(
            Did::plc_from_seed(b"dead"),
            "Dead Labeler",
            LabelerOperator::Community,
            HostingClass::Dead,
            IssuancePolicy::new(
                vec![Trigger::Sample {
                    probability: 1.0,
                    value: "test-label".into(),
                }],
                ReactionModel::fast_automated(),
            ),
            SimRng::new(2),
        );
        assert!(!labeler.is_functional());
        labeler.observe_post(&post_uri(1), &media_post(None), now());
        assert_eq!(labeler.poll(now().plus_days(1)), 0);
        assert_eq!(labeler.subscribe_labels(0).0.len(), 0);
        assert!(!labeler.has_issued());
        // Bringing it up later lets it work.
        labeler.functional = true;
        labeler.observe_post(&post_uri(2), &media_post(None), now());
        labeler.poll(now().plus_days(1));
        assert!(labeler.has_issued());
    }

    #[test]
    fn rescissions_appear_as_negations() {
        let mut labeler = LabelerService::new(
            Did::plc_from_seed(b"rescinder"),
            "Rescinding Labeler",
            LabelerOperator::Community,
            HostingClass::Cloud,
            IssuancePolicy::new(
                vec![Trigger::Sample {
                    probability: 1.0,
                    value: "test-label".into(),
                }],
                ReactionModel::fast_automated(),
            )
            .with_rescind_probability(0.5),
            SimRng::new(3),
        );
        for i in 0..200 {
            labeler.observe_post(&post_uri(i), &media_post(None), now());
        }
        labeler.poll(now().plus_days(1));
        let (labels, _) = labeler.subscribe_labels(0);
        let negated = labels.iter().filter(|l| l.negated).count();
        assert!(negated > 50 && negated < 150, "negated {negated}");
        // One application per post, and each negation rescinds a distinct
        // label applied earlier in the stream.
        assert_eq!(labels.len() - negated, 200);
        let mut rescinded = HashSet::new();
        for (i, label) in labels.iter().enumerate().filter(|(_, l)| l.negated) {
            assert!(labels[..i]
                .iter()
                .any(|l| !l.negated && l.target == label.target && l.value == label.value));
            assert!(rescinded.insert((&label.target, &label.value)));
        }
    }

    #[test]
    fn account_level_labels_and_service_record() {
        let mut labeler = alt_text_labeler();
        labeler
            .apply_label(
                LabelTarget::Account(Did::plc_from_seed(b"spammer")),
                "spam",
                now(),
            )
            .unwrap();
        assert!(labeler
            .apply_label(
                LabelTarget::Account(Did::plc_from_seed(b"spammer")),
                "NOT VALID",
                now()
            )
            .is_err());
        labeler.poll(now().plus_days(1));
        let (labels, _) = labeler.subscribe_labels(0);
        assert_eq!(labels.len(), 1);
        assert_eq!(labels[0].target.kind().display_name(), "Account");
    }

    #[test]
    fn registry_counts() {
        let mut registry = LabelerRegistry::new();
        let mut active = alt_text_labeler();
        active.observe_post(&post_uri(1), &media_post(None), now());
        active.poll(now().plus_days(1));
        registry.register(active);
        registry.register(LabelerService::new(
            Did::plc_from_seed(b"official"),
            "Bluesky Moderation",
            LabelerOperator::BlueskyOfficial,
            HostingClass::Cloud,
            IssuancePolicy::new(vec![], ReactionModel::fast_automated()),
            SimRng::new(4),
        ));
        registry.register(LabelerService::new(
            Did::plc_from_seed(b"dead2"),
            "Dead",
            LabelerOperator::Community,
            HostingClass::Dead,
            IssuancePolicy::new(vec![], ReactionModel::fast_automated()),
            SimRng::new(5),
        ));
        assert_eq!(registry.announced_count(), 3);
        let functional = registry.all().iter().filter(|l| l.is_functional());
        assert_eq!(functional.count(), 2);
        assert_eq!(registry.active_count(), 1);
        assert_eq!(registry.all().len(), registry.all_mut().len());
    }
}
