use super::*;
use crate::collect::tests::{collected, identifiers, repositories, small_config};
use bsky_atproto::blockstore::StoreConfig;
use bsky_atproto::cbor::Value;
use bsky_atproto::record::{PostRecord, UnknownRecord};
use bsky_atproto::repo::Repository;
use bsky_atproto::Handle;
use std::mem::size_of;

fn now() -> Datetime {
    Datetime::from_ymd(2024, 4, 2)
        .unwrap()
        .plus_seconds(9 * 3600)
}

fn post(text: &str) -> Record {
    Record::Post(PostRecord::simple(text, "en", now()))
}

fn post_on(fleet: &mut PdsFleet, did: &Did, text: &str, at: Datetime) {
    fleet
        .pds_for_mut(did)
        .unwrap()
        .create_record(did, Nsid::parse(known::POST).unwrap(), post(text), at)
        .unwrap();
}

fn setup(users: usize) -> (Relay, PdsFleet, Vec<Did>) {
    let mut fleet = PdsFleet::with_default_servers_store(2, &StoreConfig::default());
    let mut dids = Vec::new();
    for i in 0..users {
        let did = Did::plc_from_seed(format!("mirror-user{i}").as_bytes());
        fleet
            .create_account_on(
                "pds001.host.bsky.network",
                did.clone(),
                Handle::parse(&format!("mu{i}.bsky.social")).unwrap(),
                now(),
            )
            .unwrap();
        for p in 0..10 {
            post_on(&mut fleet, &did, &format!("u{i} post {p}"), now());
        }
        dids.push(did);
    }
    let mut relay = Relay::default();
    relay.crawl(&fleet, now());
    (relay, fleet, dids)
}

/// The CIDs of the records the mirror holds for `did`, in its order.
fn held(mirror: &IncrementalRepoMirror, did: &Did) -> Vec<Cid> {
    mirror.repos[did].records.iter().map(|r| r.cid).collect()
}

fn cid_of(record: &Record) -> Cid {
    Cid::for_cbor(&record.to_cbor())
}

/// The heap bytes a mirror holds: each DID's state and record list,
/// and the name tables (each name counted twice: once in its table,
/// once as a lookup key).
fn mirror_bytes(mirror: &IncrementalRepoMirror) -> usize {
    let did = |did: &Did| size_of::<Did>() + did.as_string().len();
    let repos: usize = mirror
        .repos
        .iter()
        .map(|(key, entry)| {
            did(key)
                + size_of::<MirroredRepo>()
                + entry.records.capacity() * size_of::<MirroredRecord>()
                + entry.host.as_ref().map_or(0, String::capacity)
        })
        .sum();
    let names = &mirror.names;
    let collections = names.collections.values.iter();
    let collections: usize = collections
        .map(|nsid| size_of::<Nsid>() + nsid.as_str().len())
        .sum();
    let langs = names.langs.values.iter();
    let langs: usize = langs.map(|lang| size_of::<String>() + lang.len()).sum();
    let subjects: usize = names.subjects.values.iter().map(did).sum();
    repos + 2 * (collections + langs + subjects)
}

#[test]
fn a_mirrored_record_is_a_fixed_size_projection() {
    // CID included: the per-record cost the mirror's lists pay.
    let size = size_of::<MirroredRecord>();
    assert!(size <= 56, "{size} bytes");
}

#[test]
fn a_long_post_costs_the_mirror_what_a_short_one_does() {
    let mut fetched = Vec::new();
    let mut bytes = Vec::new();
    for text in ["hi".to_string(), "long text ".repeat(1_024)] {
        let (mut relay, mut fleet, dids) = setup(1);
        post_on(&mut fleet, &dids[0], &text, now());
        relay.crawl(&fleet, now());
        let mut mirror = IncrementalRepoMirror::new();
        let mut summary = StreamSummary::default();
        mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
        assert_eq!(mirror.repos[&dids[0]].records.len(), 11);
        fetched.push(summary.snapshot_bytes_fetched);
        bytes.push(mirror_bytes(&mirror));
    }
    assert!(fetched[1] > fetched[0] + 10_000, "{fetched:?}");
    assert_eq!(bytes[0], bytes[1]);
}

#[test]
fn unchanged_revs_cost_no_fetches() {
    let (mut relay, mut fleet, dids) = setup(3);
    let mut mirror = IncrementalRepoMirror::new();
    let mut summary = StreamSummary::default();
    mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
    assert_eq!(mirror.repos.len(), 3);
    assert_eq!(summary.repo_full_fetches, 3);
    assert_eq!(summary.repo_delta_fetches, 0);
    let after_first = summary;
    let state = |mirror: &IncrementalRepoMirror| -> Vec<Vec<Cid>> {
        dids.iter().map(|did| held(mirror, did)).collect()
    };
    let held_after_first = state(&mirror);
    // Nothing changed: the second weekly sync is free — no fetch,
    // nothing inserted.
    mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
    assert_eq!(summary, after_first);
    assert_eq!(state(&mirror), held_after_first);
    // Each DID's ten posts, once each, all decodable.
    for did in &dids {
        let snapshot = mirror.take_snapshot(did, &mut summary).unwrap();
        assert_eq!(snapshot.records().count(), 10);
    }
    assert_eq!(summary.repo_records_undecodable, 0);
}

#[test]
fn advanced_revs_sync_with_deltas() {
    let (mut relay, mut fleet, dids) = setup(3);
    let mut mirror = IncrementalRepoMirror::new();
    let mut summary = StreamSummary::default();
    mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
    let full_bytes = summary.snapshot_bytes_fetched;
    let before: Vec<Vec<Cid>> = dids.iter().map(|did| held(&mirror, did)).collect();

    // One user posts; only that repo is re-synced, as a delta.
    post_on(&mut fleet, &dids[1], "fresh", now().plus_days(1));
    relay.crawl(&fleet, now().plus_days(1));
    mirror.sync(&mut relay, &mut fleet, now().plus_days(1), &mut summary);
    assert_eq!(summary.repo_full_fetches, 3, "no extra full fetch");
    assert_eq!(summary.repo_delta_fetches, 1);
    let delta_bytes = summary.snapshot_bytes_fetched - full_bytes;
    assert!(delta_bytes > 0);
    assert!(delta_bytes < full_bytes / 3, "delta must be small");
    // The delta added its one new record — the head commit it
    // carried was verified, not kept — and touched no other DID.
    let mut expected = before[1].clone();
    expected.push(cid_of(&post("fresh")));
    expected.sort();
    assert_eq!(held(&mirror, &dids[1]), expected);
    assert_eq!(held(&mirror, &dids[0]), before[0]);
    assert_eq!(held(&mirror, &dids[2]), before[2]);
}

#[test]
fn deleted_accounts_drop_mirrored_state() {
    let (mut relay, mut fleet, dids) = setup(2);
    let mut mirror = IncrementalRepoMirror::new();
    let mut summary = StreamSummary::default();
    mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
    assert_eq!(mirror.repos.len(), 2);
    fleet
        .pds_for_mut(&dids[0])
        .unwrap()
        .delete_account(&dids[0], now().plus_days(1))
        .unwrap();
    relay.crawl(&fleet, now().plus_days(1));
    mirror.sync(&mut relay, &mut fleet, now().plus_days(1), &mut summary);
    assert_eq!(mirror.repos.len(), 1);
    assert!(mirror.take_snapshot(&dids[0], &mut summary).is_none());
    assert!(mirror.take_snapshot(&dids[1], &mut summary).is_some());
    // The dropped repo is a dataset gap, counted as a skip.
    assert_eq!(summary.repo_snapshot_skips, 1);
}

#[test]
fn replaced_repo_falls_back_to_full_refetch() {
    let (mut relay, mut fleet, dids) = setup(2);
    let did = dids[0].clone();
    let mut mirror = IncrementalRepoMirror::new();
    let mut summary = StreamSummary::default();
    mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
    assert_eq!(summary.repo_full_fetches, 2);
    let old_rev = mirror
        .repos
        .get(&did)
        .map(|m| m.rev)
        .unwrap()
        .unwrap()
        .to_string();

    // The account is deleted on pds001 and re-created from scratch
    // on pds002 before the next snapshot: its repository history —
    // and its revision sequence — restarts. pds001 sorts first, so
    // the crawl sees the tombstone before the re-registration.
    fleet
        .pds_for_mut(&did)
        .unwrap()
        .delete_account(&did, now().plus_days(1))
        .unwrap();
    fleet
        .create_account_on(
            "pds002.host.bsky.network",
            did.clone(),
            Handle::parse("mu0-reborn.bsky.social").unwrap(),
            now().plus_days(1),
        )
        .unwrap();
    post_on(&mut fleet, &did, "rewound", now().plus_days(1));
    relay.crawl(&fleet, now().plus_days(1));

    mirror.sync(&mut relay, &mut fleet, now().plus_days(1), &mut summary);
    // The mirror could not delta from a revision the new repo never
    // had: it re-fetched the whole (new) repository.
    assert_eq!(summary.repo_full_fetches, 3);
    let new_rev = mirror
        .repos
        .get(&did)
        .map(|m| m.rev)
        .unwrap()
        .unwrap()
        .to_string();
    assert_ne!(new_rev, old_rev);
    // Replaced repos must not retain pre-rewind records.
    assert_eq!(held(&mirror, &did), vec![cid_of(&post("rewound"))]);
}

#[test]
fn compacted_source_revisions_fall_back_to_full_fetch_counted() {
    let (mut relay, mut fleet, dids) = setup(2);
    let mut mirror = IncrementalRepoMirror::new();
    let mut summary = StreamSummary::default();
    mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
    assert_eq!(summary.repo_full_fetches, 2);

    // One repo advances, then the source compacts the mirror's
    // synced revision out of its delta-serving window.
    let later = now().plus_days(30);
    post_on(&mut fleet, &dids[0], "after window", later);
    // Everything before the new head's commit time goes.
    let cutoff = Tid::from_micros(later.timestamp() as u64 * 1_000_000, 0);
    let stats = fleet.compact_all(&cutoff);
    assert!(stats.commits_dropped > 0);
    relay.crawl(&fleet, later);

    mirror.sync(&mut relay, &mut fleet, later, &mut summary);
    // The delta attempt failed because of compaction — counted,
    // then satisfied by a full fetch.
    assert_eq!(summary.repo_compaction_fallbacks, 1, "{summary:?}");
    assert_eq!(summary.repo_delta_fetches, 0);
    assert_eq!(summary.repo_full_fetches, 3);
    assert!(held(&mirror, &dids[0]).contains(&cid_of(&post("after window"))));
}

#[test]
fn undecodable_mirrored_blocks_are_counted_not_dropped() {
    // A block that claims the post lexicon and lacks its required
    // fields: the `$type` probe mirrors it, the decode on arrival
    // refuses it. It must show up in the summary, once, and not in
    // the snapshot.
    let (mut relay, mut fleet, dids) = setup(2);
    let post_nsid = Nsid::parse(known::POST).unwrap();
    let imposter = Record::Unknown(UnknownRecord {
        record_type: post_nsid.clone(),
        value: Value::map([("note", Value::text("no text, no createdAt"))]),
    });
    assert!(Record::is_record_block(&imposter.to_cbor()));
    assert!(Record::from_cbor(&imposter.to_cbor()).is_err());
    fleet
        .pds_for_mut(&dids[0])
        .unwrap()
        .create_record(&dids[0], post_nsid, imposter, now().plus_days(1))
        .unwrap();
    relay.crawl(&fleet, now().plus_days(1));

    let mut mirror = IncrementalRepoMirror::new();
    let mut summary = StreamSummary::default();
    mirror.sync(&mut relay, &mut fleet, now().plus_days(1), &mut summary);
    assert_eq!(summary.repo_records_undecodable, 0, "counted at emission");
    let healthy = mirror.take_snapshot(&dids[1], &mut summary).unwrap();
    assert_eq!(summary.repo_records_undecodable, 0);
    let gapped = mirror.take_snapshot(&dids[0], &mut summary).unwrap();
    assert_eq!(summary.repo_records_undecodable, 1);
    assert_eq!(gapped.records().count(), healthy.records().count());
    assert!(gapped
        .records()
        .all(|r| r.collection.as_str() == known::POST));

    // Rendered only when non-zero, and shards add up exactly.
    assert!(!StreamSummary::default().render().contains("undecodable"));
    assert!(summary.render().contains("1 mirrored block(s) undecodable"));
    let mut merged = StreamSummary::default();
    merged.absorb(&summary);
    merged.absorb(&summary);
    assert_eq!(merged.repo_records_undecodable, 2);
}

#[test]
fn a_block_two_dids_hold_outlives_either_of_them() {
    // Two repositories hold an identical record, so both DIDs hold
    // its projection. Losing one holder — its DID vanishes from
    // `listRepos`, or a full refetch replaces its state — leaves the
    // record in the other DID's snapshot.
    let said_twice = cid_of(&post("said twice"));
    let later = now().plus_days(1);
    for replaced in [false, true] {
        let here = format!("replaced: {replaced}");
        let (mut relay, mut fleet, dids) = setup(2);
        for did in &dids {
            post_on(&mut fleet, did, "said twice", now());
        }
        relay.crawl(&fleet, now());
        let mut mirror = IncrementalRepoMirror::new();
        let mut summary = StreamSummary::default();
        mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
        let (gone, keeper) = (&dids[0], &dids[1]);
        assert!(held(&mirror, gone).contains(&said_twice), "{here}");
        let kept_before = held(&mirror, keeper);
        assert!(kept_before.contains(&said_twice), "{here}");

        fleet
            .pds_for_mut(gone)
            .unwrap()
            .delete_account(gone, later)
            .unwrap();
        if replaced {
            fleet
                .create_account_on(
                    "pds002.host.bsky.network",
                    gone.clone(),
                    Handle::parse("mu0-reborn.bsky.social").unwrap(),
                    later,
                )
                .unwrap();
            post_on(&mut fleet, gone, "said once", later);
        }
        relay.crawl(&fleet, later);
        mirror.sync(&mut relay, &mut fleet, later, &mut summary);
        let full_fetches = 2 + u64::from(replaced);
        assert_eq!(summary.repo_full_fetches, full_fetches, "{here}");
        let replacement = mirror.repos.contains_key(gone).then(|| held(&mirror, gone));
        let expected = replaced.then(|| vec![cid_of(&post("said once"))]);
        assert_eq!(replacement, expected, "{here}");
        let kept = mirror.take_snapshot(keeper, &mut summary).unwrap();
        let kept: Vec<Cid> = kept.records.iter().map(|r| r.cid).collect();
        assert_eq!(kept, kept_before, "{here}");
        assert_eq!(summary.repo_records_undecodable, 0, "{here}");
    }
}

#[test]
fn repos_without_commits_are_mirrored_once() {
    let mut fleet = PdsFleet::with_default_servers_store(1, &StoreConfig::default());
    let did = Did::plc_from_seed(b"mirror-quiet");
    fleet
        .create_account_on(
            "pds001.host.bsky.network",
            did.clone(),
            Handle::parse("quiet.bsky.social").unwrap(),
            now(),
        )
        .unwrap();
    let mut relay = Relay::default();
    relay.crawl(&fleet, now());
    let mut mirror = IncrementalRepoMirror::new();
    let mut summary = StreamSummary::default();
    mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
    assert_eq!(summary.repo_full_fetches, 1);
    assert_eq!(mirror.repos.get(&did).map(|m| m.rev), Some(None));
    // No commits, no rev change: the next sync is free; the first
    // commit then syncs as a full fetch (no `since` to delta from).
    mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
    assert_eq!(summary.repo_full_fetches, 1);
    post_on(&mut fleet, &did, "first", now().plus_days(1));
    relay.crawl(&fleet, now().plus_days(1));
    mirror.sync(&mut relay, &mut fleet, now().plus_days(1), &mut summary);
    assert_eq!(summary.repo_full_fetches, 2);
    assert_eq!(summary.repo_delta_fetches, 0);
}

/// The window-end oracle (see the module docs): the paper's naive
/// reading of §3 — one full CAR per collected DID, fetched and decoded
/// at the window end — must yield exactly the snapshots the mirror
/// emitted, for more bytes.
#[test]
fn incremental_and_full_refetch_repositories_are_identical() {
    for seed in [7u64, 31] {
        let (mut world, tape, summary) = collected(small_config(seed));
        let end = world.config.end;
        let mut car_bytes = 0u64;
        let mut oracle: Vec<RepoSnapshot> = Vec::new();
        for did in identifiers(&tape) {
            // Deleted mid-window: no snapshot either way.
            let Ok(car) = world.relay.get_repo(did, &mut world.fleet, end) else {
                continue;
            };
            car_bytes += car.len() as u64;
            let (_roots, blocks) = Repository::parse_car(&car).expect("relay serves valid CARs");
            // Every block that decodes as a record, in CID order,
            // projected the way the mirror projects what it decodes.
            let mut names = MirrorNames::default();
            let records = blocks
                .iter()
                .filter_map(|(cid, bytes)| {
                    let record = Record::from_cbor(bytes).ok()?;
                    Some(names.project(*cid, Some(&record)))
                })
                .collect();
            oracle.push(RepoSnapshot {
                did: did.clone(),
                records,
                names: Arc::new(names),
            });
        }
        // Same DIDs in the same order, same records: the same CIDs with
        // the same projections once their names are resolved (each
        // side numbers its names in its own order).
        fn resolved(snapshot: &RepoSnapshot) -> Vec<(Cid, Option<RecordView<'_>>)> {
            let names = &snapshot.names;
            let records = snapshot.records.iter();
            records.map(|r| (r.cid, names.view(r))).collect()
        }
        let emitted = repositories(&tape);
        assert!(!emitted.is_empty(), "seed {seed}");
        assert_eq!(emitted.len(), oracle.len(), "seed {seed}");
        for (a, b) in emitted.iter().zip(&oracle) {
            assert_eq!(a.did, b.did, "seed {seed}");
            assert_eq!(
                resolved(a),
                resolved(b),
                "seed {seed}: records diverge for {}",
                a.did
            );
        }
        // The mirror really used deltas and fetched strictly fewer
        // bytes than the window-end full download.
        assert!(summary.repo_delta_fetches > 0, "seed {seed}: {summary:?}");
        assert!(
            summary.snapshot_bytes_fetched < car_bytes,
            "seed {seed}: mirror fetched {} bytes vs {car_bytes} for full CARs",
            summary.snapshot_bytes_fetched,
        );
    }
}
