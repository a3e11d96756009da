//! Golden anchor for the `RunSpec` redesign: a default `RunSpec` run
//! renders and serialises byte-for-byte what the pre-redesign entry points
//! produced, pinned as FNV-1a hashes captured from the old
//! `StudyReport::run_streaming` before the refactor, for two seeds. Any
//! accidental behavior change trips these constants. The other layouts are
//! held to this run by `tests/pipeline_equivalence.rs`.

use bluesky_repro::bsky_atproto::did::{fnv1a_64, FNV_OFFSET};
use bluesky_repro::bsky_atproto::Datetime;
use bluesky_repro::bsky_study::{RunSpec, StudyReport};
use bluesky_repro::bsky_workload::ScenarioConfig;

fn small_config(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::test_scale(seed);
    config.start = Datetime::from_ymd(2024, 2, 20).unwrap();
    config.end = Datetime::from_ymd(2024, 4, 20).unwrap();
    config.scale = 40_000;
    config
}

fn spec(seed: u64) -> RunSpec {
    RunSpec::new(small_config(seed))
}

/// `(seed, fnv1a_64(render), fnv1a_64(to_json pretty))` captured from
/// `StudyReport::run_streaming(small_config(seed))` immediately before the
/// RunSpec redesign and the hot/cold AppView split landed.
const GOLDEN: [(u64, u64, u64); 2] = [
    (31, 0xba69_c98a_fe7c_859e, 0xe0c1_a314_661f_7867),
    (32, 0xff1a_63ca_e6bb_ac82, 0xa4de_4963_1cae_edbc),
];

#[test]
fn runspec_defaults_match_pre_redesign_goldens() {
    for (seed, render_hash, json_hash) in GOLDEN {
        let (report, summary) = StudyReport::run_serial(&spec(seed));
        // The goldens are complete datasets: every mirrored record block
        // decoded into its snapshot.
        assert_eq!(summary.repo_records_undecodable, 0, "seed {seed}");
        assert_eq!(
            fnv1a_64(report.render().as_bytes(), FNV_OFFSET),
            render_hash,
            "seed {seed}: rendered report diverged from the pre-redesign golden"
        );
        assert_eq!(
            fnv1a_64(report.to_json().to_string_pretty().as_bytes(), FNV_OFFSET),
            json_hash,
            "seed {seed}: JSON export diverged from the pre-redesign golden"
        );
    }
}
