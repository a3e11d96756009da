//! Quickstart: build a tiny simulated Bluesky network, run it for a few
//! weeks, and print what the Relay, the PDS fleet and the feed generators
//! saw.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use bluesky_repro::bsky_atproto::Datetime;
use bluesky_repro::bsky_workload::{ScenarioConfig, World};

fn main() {
    // A small, fast scenario: six weeks around the public launch.
    let mut config = ScenarioConfig::test_scale(1);
    config.start = Datetime::from_ymd(2024, 2, 1).unwrap();
    config.end = Datetime::from_ymd(2024, 3, 15).unwrap();
    config.scale = 40_000;

    let mut world = World::new(config);
    println!(
        "simulating {} days with a target of ≈{} users...",
        config.total_days(),
        config.target_users()
    );
    world.run_to_end();

    println!("users signed up:        {}", world.users.len());
    println!(
        "accounts known to relay: {}",
        world.relay.known_account_count()
    );
    println!(
        "firehose events:         {}",
        world.relay.firehose().total_events()
    );
    println!(
        "record blocks on PDSes:  {}",
        world.fleet.store_stats().blocks
    );
    println!("feed generators online:  {}", world.feedgens.len());
    println!(
        "posts curated by feeds:  {}",
        world
            .feedgens
            .iter()
            .map(|f| f.entries().len())
            .sum::<usize>()
    );
}
