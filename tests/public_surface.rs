//! `pub` means a caller outside the crate. `dead_code` holds that line for
//! `pub(crate)` items; nothing holds it for `pub`, so this does: every
//! item-level `pub` name in the non-test region of a library crate must occur
//! as a word in some `.rs` file outside that crate. Necessary, not sufficient
//! (`new` always passes) — the narrowing procedure in the verify skill is the
//! exact check; this is the one that runs on every `cargo test`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Public although no `.rs` file outside the crate spells the name, each with
/// its reason. All but the first three are types an outside caller reaches
/// through a public signature and uses without naming (`relay.firehose()
/// .total_events()`); narrowing one trips rustc's `private_interfaces` lint,
/// which `-D warnings` makes an error, so the compiler holds those the other
/// way and the reason names the exposing item.
const EXEMPT: &[(&str, &str)] = &[
    (
        "workload::config::paper::",
        "the scorecard's population rows, not yet written",
    ),
    ("atproto::crypto::Sha256", "named by its own doctest"),
    (
        "atproto::crypto::finalize",
        "`Sha256::finalize`, called by that doctest",
    ),
    ("atproto::datetime::CivilDate", "Datetime::date"),
    (
        "atproto::record::LabelerServiceRecord",
        "Record::LabelerService",
    ),
    ("atproto::repo::RecordOp", "EventBody::Commit::ops"),
    ("core::collect::mirror::RecordView", "RepoSnapshot::records"),
    ("core::collect::mirror::RepoSnapshot", "Observation::Repo"),
    ("core::moderation::LabelerEntry", "Observation::Labeler"),
    ("core::observatory::WireTraceDay", "Observation::WireTrace"),
    (
        "core::recommendation::FeedGenEntry",
        "Observation::FeedGenerator",
    ),
    ("core::table1::Table1", "StudyReport::table1"),
    ("pds::server::PdsEvent", "Pds::events_since"),
    ("relay::firehose::FirehoseLog", "Relay::firehose"),
    ("relay::firehose::Subscription", "Relay::subscribe"),
    ("relay::observer::ConnTrace", "Relay::take_wire_traces"),
    ("relay::relay::EventOrigin", "Relay::event_origin"),
    ("workload::faas::FaasPlatform", "faas::default_platforms"),
    ("workload::faas::FilterFeatures", "FaasPlatform::filters"),
    ("workload::faas::Pricing", "FaasPlatform::pricing"),
    ("workload::faults::FaultCounters", "World::fault_counters"),
    ("workload::faults::RetryOutcome", "RetryPolicy::outcome"),
    ("workload::http::WebSpace", "World::web"),
    ("workload::plc::PlcDirectory", "World::plc"),
    ("workload::population::UserProfile", "World::users"),
    ("workload::rng::UniformSample", "the bound of SimRng::range"),
    ("workload::route::FeedRoutes", "World::feed_routes"),
    ("workload::service::LabelerRegistry", "World::labelers"),
    ("workload::world::DayCursor", "World::begin_day"),
];

/// The library crates: every directory under `crates/` with a `src/lib.rs`.
fn library_crates(root: &Path) -> Vec<String> {
    let mut crates: Vec<String> = fs::read_dir(root.join("crates"))
        .unwrap()
        .flatten()
        .filter(|entry| entry.path().join("src/lib.rs").is_file())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .collect();
    crates.sort();
    crates
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() && path.file_name().is_some_and(|n| n != "target") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric() && c != '_')
        .filter(|w| !w.is_empty())
}

/// The names an item-level `pub` declaration introduces (several for a
/// grouped `pub use`), or nothing when `decl` is not one.
fn declared(decl: &str) -> Vec<&str> {
    let Some(mut rest) = decl.trim_start().strip_prefix("pub ") else {
        return Vec::new();
    };
    if let Some(path) = rest.strip_prefix("use ") {
        let names = path.split_once('{').map_or(path, |(_, group)| group);
        return names.split(',').filter_map(|n| words(n).last()).collect();
    }
    let upper = |w: &str| {
        w.chars()
            .all(|c| c.is_uppercase() || c.is_numeric() || c == '_')
    };
    if let Some(name) = rest.strip_prefix("const ").and_then(|r| words(r).next()) {
        if upper(name) {
            return vec![name];
        }
    }
    for modifier in ["const ", "unsafe ", "async "] {
        rest = rest.strip_prefix(modifier).unwrap_or(rest);
    }
    let mut tokens = words(rest);
    match tokens.next() {
        Some("fn" | "struct" | "enum" | "trait" | "static" | "type") => {
            tokens.next().into_iter().collect()
        }
        _ => Vec::new(),
    }
}

#[test]
fn every_pub_item_is_named_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in [
        "crates",
        "src",
        "examples",
        "tests",
        "benchmark/src",
        "benchmark/tests",
    ] {
        rust_files(&root.join(dir), &mut files);
    }
    let sources: Vec<(PathBuf, String)> = files
        .into_iter()
        .filter(|path| !path.ends_with(file!())) // the exemption list names names
        .map(|path| (path.clone(), fs::read_to_string(path).unwrap()))
        .collect();
    let mut unnamed = Vec::new();
    let mut exempted = BTreeSet::new();
    for krate in &library_crates(root) {
        let home = root.join("crates").join(krate);
        let (inside, outside): (Vec<_>, Vec<_>) = sources
            .iter()
            .partition(|(path, _)| path.starts_with(&home));
        let named: BTreeSet<&str> = outside.iter().flat_map(|(_, text)| words(text)).collect();
        for (path, text) in inside
            .iter()
            .filter(|(p, _)| p.starts_with(home.join("src")))
        {
            let file = path
                .strip_prefix(home.join("src"))
                .unwrap()
                .with_extension("");
            let mut module: Vec<String> = vec![krate.to_string()];
            module.extend(file.iter().map(|part| part.to_string_lossy().into_owned()));
            module.retain(|part| part != "lib" && part != "mod");
            let mut inline: Vec<(usize, usize)> = Vec::new(); // (indent, depth in `module`)
            let mut lines = text
                .lines()
                .take_while(|line| !line.starts_with("#[cfg(test)]"));
            while let Some(line) = lines.next() {
                let indent = line.len() - line.trim_start().len();
                if inline.last().is_some_and(|(at, _)| *at == indent) && line.trim() == "}" {
                    module.truncate(inline.pop().unwrap().1);
                }
                let bare = line.trim_start().trim_start_matches("pub ");
                if let Some(name) = bare.strip_prefix("mod ").filter(|m| m.ends_with('{')) {
                    inline.push((indent, module.len()));
                    module.push(words(name).next().unwrap().to_string());
                }
                let mut decl = line.to_string();
                while decl.trim_start().starts_with("pub use ") && !decl.ends_with(';') {
                    decl.push_str(lines.next().unwrap().trim());
                }
                for name in declared(&decl) {
                    let item = format!("{}::{name}", module.join("::"));
                    if named.contains(name) {
                        continue;
                    }
                    if let Some((prefix, _)) = EXEMPT.iter().find(|(p, _)| item.starts_with(p)) {
                        exempted.insert(*prefix);
                    } else {
                        let package = if krate == "core" { "study" } else { krate };
                        unnamed.push(format!(
                            "{item} is pub but nothing outside bsky-{package} names it: \
                             make it pub(crate)"
                        ));
                    }
                }
            }
        }
    }
    for (prefix, reason) in EXEMPT.iter().filter(|(p, _)| !exempted.contains(p)) {
        unnamed.push(format!("{prefix} ({reason}) no longer needs its exemption"));
    }
    assert!(
        unnamed.is_empty(),
        "{} name(s):\n{}",
        unnamed.len(),
        unnamed.join("\n")
    );
}
