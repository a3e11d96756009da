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
    post_in(text, "en")
}

/// A post in language `lang`: what tells one record from another once the
/// mirror has projected it.
fn post_in(text: &str, lang: &str) -> Record {
    Record::Post(PostRecord::simple(text, lang, now()))
}

fn post_on(fleet: &mut PdsFleet, did: &Did, text: &str, at: Datetime) {
    post_record_on(fleet, did, post(text), at);
}

fn post_record_on(fleet: &mut PdsFleet, did: &Did, record: Record, at: Datetime) {
    fleet
        .pds_for_mut(did)
        .unwrap()
        .create_record(did, Nsid::parse(known::POST).unwrap(), record, at)
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

/// `records` with their names resolved, one line each (`None` for an
/// undecodable marker), sorted: the multiset of what the analyzers read,
/// comparable across name tables.
fn resolved(names: &MirrorNames, records: &[MirroredRecord]) -> Vec<String> {
    let mut lines: Vec<String> = records
        .iter()
        .map(|record| format!("{:?}", names.view(record)))
        .collect();
    lines.sort_unstable();
    lines
}

/// The records the mirror holds for `did`, resolved.
fn held(mirror: &IncrementalRepoMirror, did: &Did) -> Vec<String> {
    resolved(&mirror.names, &mirror.repos[did].records)
}

/// `record` as [`held`] lists it.
fn view_of(record: &Record) -> String {
    let mut names = MirrorNames::default();
    let projected = names.project(Some(record));
    resolved(&names, &[projected]).remove(0)
}

/// The heap bytes a mirror holds: each DID's state and record list,
/// and the name tables (each name counted twice: once in its table,
/// once as a lookup key; a month once, beside its numeric key).
fn mirror_bytes(mirror: &IncrementalRepoMirror) -> usize {
    let did = |did: &Did| size_of::<Did>() + did.as_str().len();
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
    let months = names.months.rendered.iter();
    let months: usize = months
        .map(|month| size_of::<String>() + month.len() + size_of::<(i64, MonthId)>())
        .sum();
    repos + 2 * (collections + langs + subjects) + months
}

#[test]
fn a_mirrored_record_is_a_fixed_size_projection() {
    // The per-record cost the mirror's lists pay: no CID, no time finer
    // than the month, one name.
    let size = size_of::<MirroredRecord>();
    assert!(size <= 8, "{size} bytes");
}

/// A full fetch replaces a DID's list with the archive's records, so an
/// archive that repeats a block must still yield it once.
#[test]
fn a_block_an_archive_repeats_is_one_record() {
    let (relay, mut fleet, dids) = setup(1);
    let car = relay.get_repo(&dids[0], &mut fleet, now()).unwrap();
    // A CAR is a varint-framed header, then its blocks: repeat them all.
    let (mut header, mut width) = (0usize, 0usize);
    loop {
        let byte = car[width];
        header |= usize::from(byte & 0x7f) << (7 * width);
        width += 1;
        if byte & 0x80 == 0 {
            break;
        }
    }
    let doubled = [&car[..], &car[width + header..]].concat();
    let once = scan_car(&car).unwrap().records;
    let twice = scan_car(&doubled).unwrap();
    assert!(twice.head_commit.is_some());
    assert_eq!(once.len(), 10);
    assert_eq!(twice.records, once);
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
        mirror.sync(&mut relay, &mut fleet, now(), None, &mut summary);
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
    mirror.sync(&mut relay, &mut fleet, now(), None, &mut summary);
    assert_eq!(mirror.repos.len(), 3);
    assert_eq!(summary.repo_full_fetches, 3);
    assert_eq!(summary.repo_delta_fetches, 0);
    let after_first = summary;
    let state = |mirror: &IncrementalRepoMirror| -> Vec<Vec<String>> {
        dids.iter().map(|did| held(mirror, did)).collect()
    };
    let held_after_first = state(&mirror);
    // Nothing changed: the second weekly sync is free — no fetch,
    // nothing inserted.
    mirror.sync(&mut relay, &mut fleet, now(), None, &mut summary);
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
    mirror.sync(&mut relay, &mut fleet, now(), None, &mut summary);
    let full_bytes = summary.snapshot_bytes_fetched;
    let before: Vec<Vec<String>> = dids.iter().map(|did| held(&mirror, did)).collect();

    // One user posts; only that repo is re-synced, as a delta.
    let fresh = post_in("fresh", "pt");
    post_record_on(&mut fleet, &dids[1], fresh.clone(), now().plus_days(1));
    relay.crawl(&fleet, now().plus_days(1));
    mirror.sync(
        &mut relay,
        &mut fleet,
        now().plus_days(1),
        None,
        &mut summary,
    );
    assert_eq!(summary.repo_full_fetches, 3, "no extra full fetch");
    assert_eq!(summary.repo_delta_fetches, 1);
    let delta_bytes = summary.snapshot_bytes_fetched - full_bytes;
    assert!(delta_bytes > 0);
    assert!(delta_bytes < full_bytes / 3, "delta must be small");
    // The delta added its one new record — the head commit it
    // carried was verified, not kept — and touched no other DID.
    let mut expected = before[1].clone();
    expected.push(view_of(&fresh));
    expected.sort_unstable();
    assert_eq!(held(&mirror, &dids[1]), expected);
    assert_eq!(held(&mirror, &dids[0]), before[0]);
    assert_eq!(held(&mirror, &dids[2]), before[2]);
}

/// A full fetch that reads past the revision the relay lists is synced to
/// the archive's own head: the next delta starts there, so a record the
/// archive carried arrives once, not again with the delta.
#[test]
fn a_full_fetch_ahead_of_the_relay_deltas_from_its_own_head() {
    let (mut relay, mut fleet, dids) = setup(1);
    let did = &dids[0];
    let before = relay.list_repos(None, 10).0[0].1;
    // Committed after the relay's last crawl: the relay still lists the
    // revision before it, and the full fetch reads it anyway.
    let unlisted = post_in("not crawled yet", "pt");
    post_record_on(&mut fleet, did, unlisted.clone(), now().plus_days(1));
    let mut mirror = IncrementalRepoMirror::new();
    let mut summary = StreamSummary::default();
    mirror.sync(
        &mut relay,
        &mut fleet,
        now().plus_days(1),
        None,
        &mut summary,
    );
    assert_eq!(relay.list_repos(None, 10).0[0].1, before);
    assert_ne!(mirror.repos[did].rev, before);
    assert!(held(&mirror, did).contains(&view_of(&unlisted)));

    let later = post_in("crawled", "de");
    post_record_on(&mut fleet, did, later.clone(), now().plus_days(2));
    relay.crawl(&fleet, now().plus_days(2));
    mirror.sync(
        &mut relay,
        &mut fleet,
        now().plus_days(2),
        None,
        &mut summary,
    );
    assert_eq!(summary.repo_full_fetches, 1);
    assert_eq!(summary.repo_delta_fetches, 1);
    let mut expected = vec![view_of(&post("")); 10];
    expected.extend([view_of(&unlisted), view_of(&later)]);
    expected.sort_unstable();
    assert_eq!(held(&mirror, did), expected);
}

#[test]
fn deleted_accounts_drop_mirrored_state() {
    let (mut relay, mut fleet, dids) = setup(2);
    let mut mirror = IncrementalRepoMirror::new();
    let mut summary = StreamSummary::default();
    mirror.sync(&mut relay, &mut fleet, now(), None, &mut summary);
    assert_eq!(mirror.repos.len(), 2);
    fleet
        .pds_for_mut(&dids[0])
        .unwrap()
        .delete_account(&dids[0], now().plus_days(1))
        .unwrap();
    relay.crawl(&fleet, now().plus_days(1));
    mirror.sync(
        &mut relay,
        &mut fleet,
        now().plus_days(1),
        None,
        &mut summary,
    );
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
    mirror.sync(&mut relay, &mut fleet, now(), None, &mut summary);
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
    let rewound = post_in("rewound", "de");
    post_record_on(&mut fleet, &did, rewound.clone(), now().plus_days(1));
    relay.crawl(&fleet, now().plus_days(1));

    mirror.sync(
        &mut relay,
        &mut fleet,
        now().plus_days(1),
        None,
        &mut summary,
    );
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
    assert_eq!(held(&mirror, &did), vec![view_of(&rewound)]);
}

#[test]
fn compacted_source_revisions_fall_back_to_full_fetch_counted() {
    let (mut relay, mut fleet, dids) = setup(2);
    let mut mirror = IncrementalRepoMirror::new();
    let mut summary = StreamSummary::default();
    mirror.sync(&mut relay, &mut fleet, now(), None, &mut summary);
    assert_eq!(summary.repo_full_fetches, 2);

    // One repo advances, then the source compacts the mirror's
    // synced revision out of its delta-serving window.
    let later = now().plus_days(30);
    let after_window = post_in("after window", "fr");
    post_record_on(&mut fleet, &dids[0], after_window.clone(), later);
    // Everything before the new head's commit time goes.
    let cutoff = Tid::from_micros(later.timestamp() as u64 * 1_000_000, 0);
    let stats = fleet.compact_all(&cutoff);
    assert!(stats.commits_dropped > 0);
    relay.crawl(&fleet, later);

    mirror.sync(&mut relay, &mut fleet, later, None, &mut summary);
    // The delta attempt failed because of compaction — counted,
    // then satisfied by a full fetch.
    assert_eq!(summary.repo_compaction_fallbacks, 1, "{summary:?}");
    assert_eq!(summary.repo_delta_fetches, 0);
    assert_eq!(summary.repo_full_fetches, 3);
    assert!(held(&mirror, &dids[0]).contains(&view_of(&after_window)));
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
    mirror.sync(
        &mut relay,
        &mut fleet,
        now().plus_days(1),
        None,
        &mut summary,
    );
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
    let said_twice = post_in("said twice", "es");
    let said_once = post_in("said once", "it");
    let later = now().plus_days(1);
    for replaced in [false, true] {
        let here = format!("replaced: {replaced}");
        let (mut relay, mut fleet, dids) = setup(2);
        for did in &dids {
            post_record_on(&mut fleet, did, said_twice.clone(), now());
        }
        relay.crawl(&fleet, now());
        let mut mirror = IncrementalRepoMirror::new();
        let mut summary = StreamSummary::default();
        mirror.sync(&mut relay, &mut fleet, now(), None, &mut summary);
        let (gone, keeper) = (&dids[0], &dids[1]);
        assert!(
            held(&mirror, gone).contains(&view_of(&said_twice)),
            "{here}"
        );
        let kept_before = held(&mirror, keeper);
        assert!(kept_before.contains(&view_of(&said_twice)), "{here}");

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
            post_record_on(&mut fleet, gone, said_once.clone(), later);
        }
        relay.crawl(&fleet, later);
        mirror.sync(&mut relay, &mut fleet, later, None, &mut summary);
        let full_fetches = 2 + u64::from(replaced);
        assert_eq!(summary.repo_full_fetches, full_fetches, "{here}");
        let replacement = mirror.repos.contains_key(gone).then(|| held(&mirror, gone));
        let expected = replaced.then(|| vec![view_of(&said_once)]);
        assert_eq!(replacement, expected, "{here}");
        let kept = mirror.take_snapshot(keeper, &mut summary).unwrap();
        assert_eq!(resolved(&kept.names, &kept.records), kept_before, "{here}");
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
    mirror.sync(&mut relay, &mut fleet, now(), None, &mut summary);
    assert_eq!(summary.repo_full_fetches, 1);
    assert_eq!(mirror.repos.get(&did).map(|m| m.rev), Some(None));
    // No commits, no rev change: the next sync is free; the first
    // commit then syncs as a full fetch (no `since` to delta from).
    mirror.sync(&mut relay, &mut fleet, now(), None, &mut summary);
    assert_eq!(summary.repo_full_fetches, 1);
    post_on(&mut fleet, &did, "first", now().plus_days(1));
    relay.crawl(&fleet, now().plus_days(1));
    mirror.sync(
        &mut relay,
        &mut fleet,
        now().plus_days(1),
        None,
        &mut summary,
    );
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
            // Every block that decodes as a record, projected the way the
            // mirror projects what it decodes.
            let mut names = MirrorNames::default();
            let records = blocks
                .values()
                .filter_map(|bytes| {
                    let record = Record::from_cbor(bytes).ok()?;
                    Some(names.project(Some(&record)))
                })
                .collect();
            oracle.push(RepoSnapshot {
                did: did.clone(),
                records,
                names: Arc::new(names),
            });
        }
        // Same DIDs in the same order, same records: the same multiset of
        // projections once their names are resolved (each side numbers
        // its names in its own order, and the mirror keeps its records in
        // arrival order). An undecodable marker resolves to `None`, which
        // the oracle never holds.
        let emitted = repositories(&tape);
        assert!(!emitted.is_empty(), "seed {seed}");
        assert_eq!(emitted.len(), oracle.len(), "seed {seed}");
        for (a, b) in emitted.iter().zip(&oracle) {
            assert_eq!(a.did, b.did, "seed {seed}");
            assert_eq!(
                resolved(&a.names, &a.records),
                resolved(&b.names, &b.records),
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

/// What a fleet is lent so that it may release: it draws nothing again,
/// and no test below exports a released repository.
#[derive(Debug)]
struct NoRedraw;

impl bsky_atproto::repo::RecordSource for NoRedraw {
    fn redraw(&self, _did: &Did, _day: u16) -> Vec<bsky_atproto::repo::Write> {
        Vec::new()
    }
}

/// A retiring sync compacts and releases each listed DID's repository
/// right after handling it: fetched first (the mirror holds its records),
/// then its commits before the cutoff dropped and the bytes of its
/// user-days before the cutoff day let go, unchanged DIDs included, and
/// counted in the summary. A DID the relay does not list keeps its commits
/// and bytes until a later sync lists it, which retires it then.
#[test]
fn a_retiring_sync_retires_each_did_it_handles() {
    let (mut relay, mut fleet, mut dids) = setup(2);
    fleet.lend_source(Arc::new(NoRedraw));
    // Each day's post in a language of its own, so that the mirror's view
    // of it tells the days apart.
    let day_post =
        |did: &Did, day: u16| post_in(&format!("{did} on day {day}"), &format!("d{day}"));
    fn repo<'f>(fleet: &'f PdsFleet, did: &Did) -> &'f Repository {
        fleet.pds_for(did).unwrap().repo(did).unwrap()
    }
    // Writes `did`'s post of `day`, returning the revision of its commit.
    let write = |fleet: &mut PdsFleet, did: &Did, day: u16| -> Tid {
        let write = bsky_atproto::repo::Write::Create {
            collection: Nsid::parse(known::POST).unwrap(),
            rkey: format!("d{day:03}"),
            record: day_post(did, day),
        };
        let at = now().plus_days(i64::from(day));
        let pds = fleet.pds_for_mut(did).unwrap();
        pds.apply_redrawable_writes(did, &[write], at, day).unwrap();
        pds.repo(did).unwrap().rev().unwrap()
    };
    let mut day_one = Vec::new();
    for day in [1, 5] {
        for did in &dids {
            let rev = write(&mut fleet, did, day);
            if day == 1 {
                day_one.push(rev);
            }
        }
    }
    relay.crawl(&fleet, now().plus_days(5));
    // An account the relay has not crawled, so does not list.
    let unlisted = Did::plc_from_seed(b"mirror-unlisted");
    let host = "pds001.host.bsky.network";
    let handle = Handle::parse("unlisted.bsky.social").unwrap();
    fleet
        .create_account_on(host, unlisted.clone(), handle, now())
        .unwrap();
    day_one.push(write(&mut fleet, &unlisted, 1));
    write(&mut fleet, &unlisted, 5);
    dids.push(unlisted.clone());
    let bytes = |fleet: &PdsFleet, did: &Did| repo(fleet, did).store_stats().logical_bytes;
    // Whether a delta since the DID's day-1 commit is still served, or
    // that commit was compacted away.
    let serves_day_one = |fleet: &PdsFleet, n: usize| -> bool {
        match repo(fleet, &dids[n]).export_car_since(&day_one[n], DeltaScope::Records) {
            Ok(_) => true,
            Err(AtError::RevisionCompacted(_)) => false,
            Err(err) => panic!("{}: {err}", dids[n]),
        }
    };
    let before: Vec<usize> = dids.iter().map(|did| bytes(&fleet, did)).collect();
    let day_bytes = day_post(&dids[0], 1).to_cbor().len();
    let cutoff = |day: u16| Cutoff {
        rev: Tid::from_micros(
            now().plus_days(i64::from(day)).timestamp() as u64 * 1_000_000,
            0,
        ),
        day,
    };

    let mut mirror = IncrementalRepoMirror::new();
    let mut summary = StreamSummary::default();
    let at = now().plus_days(6);
    mirror.sync(&mut relay, &mut fleet, at, Some(cutoff(3)), &mut summary);
    assert_eq!(summary.repo_full_fetches, 2);
    for (n, did) in dids[..2].iter().enumerate() {
        // Fetched before its release: the mirror holds its day-1 post.
        assert!(
            held(&mirror, did).contains(&view_of(&day_post(did, 1))),
            "{did}"
        );
        assert_eq!(bytes(&fleet, did), before[n] - day_bytes, "{did}");
        assert!(!serves_day_one(&fleet, n), "{did}");
    }
    assert!(summary.commits_dropped > 0, "{summary:?}");
    assert_eq!(summary.store_bytes_reclaimed, 2 * day_bytes as u64);
    assert_eq!(bytes(&fleet, &unlisted), before[2]);
    assert!(serves_day_one(&fleet, 2));

    // A week on, both listed DIDs are unchanged: no fetch, and each is
    // still retired, right where the sync passes it. The relay lists the
    // third account now: fetched, then retired like the others.
    relay.crawl(&fleet, at.plus_days(7));
    let mut later = StreamSummary::default();
    mirror.sync(
        &mut relay,
        &mut fleet,
        at.plus_days(7),
        Some(cutoff(6)),
        &mut later,
    );
    assert_eq!((later.repo_full_fetches, later.repo_delta_fetches), (1, 0));
    assert!(held(&mirror, &unlisted).contains(&view_of(&day_post(&unlisted, 1))));
    assert_eq!(later.store_bytes_reclaimed, 4 * day_bytes as u64);
    for (n, did) in dids.iter().enumerate() {
        assert_eq!(bytes(&fleet, did), before[n] - 2 * day_bytes, "{did}");
        assert!(!serves_day_one(&fleet, n), "{did}");
    }
    assert!(later.commits_dropped > 0, "{later:?}");
    // Retired to its cutoff already: a second pass drops nothing more.
    let retired = (later.commits_dropped, later.store_bytes_reclaimed);
    mirror.sync(
        &mut relay,
        &mut fleet,
        at.plus_days(7),
        Some(cutoff(6)),
        &mut later,
    );
    assert_eq!(
        (later.commits_dropped, later.store_bytes_reclaimed),
        retired
    );
}
