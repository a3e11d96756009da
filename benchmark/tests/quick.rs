//! The whole benchmark at its smallest scale: all five workloads, one run
//! each, the traced pass, the tape replay and `compare`, through the real
//! program. One test, because the runs share the results directory.

use bsky_benchmark::contract::Contract;
use bsky_benchmark::paths;
use bsky_benchmark::surface::Json;
use std::process::Command;

const SEED: &str = "7";

fn program() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bsky-benchmark"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn keys(object: &Json) -> Vec<&str> {
    match object {
        Json::Obj(entries) => entries.iter().map(|(key, _)| key.as_str()).collect(),
        _ => Vec::new(),
    }
}

/// Parse a span dump and check it the hard way: every line parses, every
/// parent comes earlier, every span lies inside its parent.
fn check_span_dump(path: &str, workload: &str) -> usize {
    let text = std::fs::read_to_string(path).expect("span dump is written");
    let spans: Vec<Json> = text
        .lines()
        .map(|line| Json::parse(line).expect("span line parses"))
        .collect();
    assert!(spans.len() > 100, "{workload}: {} spans", spans.len());
    assert_eq!(spans[0]["name"].as_str(), Some("study"));
    for (index, span) in spans.iter().enumerate() {
        assert_eq!(span["workload"].as_str(), Some(workload));
        let (start, end) = (
            span["start_ns"].as_u64().unwrap(),
            span["end_ns"].as_u64().unwrap(),
        );
        assert!(start <= end);
        if let Some(parent) = span["parent"].as_u64() {
            assert!((parent as usize) < index, "parents come first");
            let parent = &spans[parent as usize];
            assert!(
                start >= parent["start_ns"].as_u64().unwrap()
                    && end <= parent["end_ns"].as_u64().unwrap(),
                "{workload}: span {index} leaves its parent"
            );
        }
    }
    spans.len()
}

#[test]
fn quick_run_measures_every_metric_of_the_contract() {
    let contract = Contract::load().expect("BENCHMARK.json parses");
    assert!(contract.end_to_end.len() <= 16 && contract.per_layer.len() <= 128);

    let run = program()
        .args(["run", "--quick", "--seed", SEED])
        .output()
        .expect("the program starts");
    let printed = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "run --quick failed:\n{printed}");
    assert!(
        printed.trim_end().ends_with("\"claim\": null"),
        "no gain is claimed"
    );

    let file = paths::results_dir().join(format!("run-seed{SEED}-quick.json"));
    let results = Json::parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
    assert_eq!(results["correct"].as_bool(), Some(true));
    assert_eq!(results["claim"], Json::Null);
    assert_eq!(keys(&results["workloads"]), contract.workloads);

    for workload in &contract.workloads {
        let entry = &results["workloads"][workload.as_str()];
        // Every emitted name is well formed and is the contract's.
        let emitted_e2e = keys(&entry["end_to_end"]);
        let emitted_layers = keys(&entry["per_layer"]);
        let contract_e2e: Vec<&str> = contract
            .end_to_end
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        let contract_layers: Vec<&str> =
            contract.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(emitted_e2e, contract_e2e, "{workload}");
        assert_eq!(emitted_layers, contract_layers, "{workload}");
        assert!(emitted_e2e
            .iter()
            .chain(&emitted_layers)
            .all(|n| well_formed(n)));
        // Every name is printed with its unit.
        for metric in contract.end_to_end.iter().chain(&contract.per_layer) {
            assert!(
                printed.contains(&metric.name),
                "{} is not printed",
                metric.name
            );
        }
        // End-to-end metrics are never zero; nothing failed.
        for metric in &contract.end_to_end {
            let median = entry["end_to_end"][metric.name.as_str()]["median"].as_f64();
            assert!(
                median.is_some_and(|m| m > 0.0),
                "{workload}/{}",
                metric.name
            );
        }
        assert_eq!(entry["failed"].as_u64(), Some(0), "{workload}");
        assert!(entry["attempted"].as_u64().unwrap() >= 1);
        // Every correctness check passed, the twin comparison among them.
        let checks = entry["checks"].as_array().unwrap();
        assert!(
            checks.iter().all(|c| c["ok"].as_bool() == Some(true)),
            "{workload}: {checks:?}"
        );
        assert!(checks
            .iter()
            .any(|c| c["name"].as_str() == Some("traced_report_identical")));
        if workload != "fullwindow_pipelined" {
            assert!(checks
                .iter()
                .any(|c| c["name"].as_str() == Some("twin_report_identical")));
        }
        // Spans nest, and the analyzers' busy time fits inside the stream.
        let traced = &entry["phases"]["traced"];
        let spans = check_span_dump(traced["span_dump"].as_str().unwrap(), workload);
        assert_eq!(
            traced["readings"]["trace_spans"].as_u64(),
            Some(spans as u64)
        );
        let layer = |name: &str| entry["per_layer"][name]["value"].as_f64().unwrap();
        assert!(
            layer("core.analysis.total_busy_s")
                <= traced["readings"]["traced_collect_s"].as_f64().unwrap()
        );
        assert!(
            layer("core.shard.max_shard_s")
                <= traced["readings"]["traced_wall_s"].as_f64().unwrap()
        );
        // The rows a later issue will name its target from are separate.
        assert!(layer("pds.commit.busy_s") > 0.0);
        assert!(layer("atproto.cbor.encode_s") > 0.0 && layer("atproto.sha256.hash_s") > 0.0);
    }
    // The layers a workload bypasses read zero there and not elsewhere.
    let layer = |workload: &str, name: &str| {
        results["workloads"][workload]["per_layer"][name]["value"]
            .as_f64()
            .unwrap()
    };
    assert_eq!(layer("serial_mem", "core.store.spilled_block_mb"), 0.0);
    assert!(layer("paged_fed", "core.store.spilled_block_mb") > 0.0);
    assert_eq!(layer("serial_mem", "core.pipeline.batches"), 0.0);
    assert!(layer("fullwindow_pipelined", "core.pipeline.batches") > 0.0);
    assert!(
        layer("fullwindow_pipelined", "core.datasets.firehose_events")
            > 2.0 * layer("serial_mem", "core.datasets.firehose_events")
    );
    assert!(
        layer("sharded_mem_2x", "core.shard.sum_shard_s")
            > layer("sharded_mem_2x", "core.shard.max_shard_s")
    );

    // A results file agrees with itself: no row is worse or unresolved.
    let path = file.to_string_lossy().into_owned();
    let compare = program()
        .args(["compare", &path, &path])
        .output()
        .expect("the program starts");
    let table = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "{table}");
    assert!(table.contains("0 worse, 0 unresolved"), "{table}");
    let rows = contract.workloads.len() * contract.end_to_end.len();
    assert!(table.contains(&format!("{rows} rows")), "{table}");

    // The driver's entry point prints exactly the four keys, last line.
    for (trace, metrics) in [("0", &contract.end_to_end), ("1", &contract.per_layer)] {
        let bench = program()
            .args([
                "bench",
                "--workload",
                "paged_fed",
                "--seed",
                "11",
                "--seconds",
                "1",
            ])
            .args(["--trace", trace, "--quick"])
            .output()
            .expect("the program starts");
        assert!(bench.status.success());
        let stdout = String::from_utf8_lossy(&bench.stdout);
        let result = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
        assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result["correct"].as_bool(), Some(true), "{stdout}");
        assert_eq!(result["failed"].as_u64(), Some(0));
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(keys(&result["metrics"]), names);
        for metric in metrics.iter() {
            let entry = &result["metrics"][metric.name.as_str()];
            assert_eq!(keys(entry), ["value", "unit"]);
            assert_eq!(entry["unit"].as_str(), Some(metric.unit.as_str()));
            assert!(entry["value"].as_f64().is_some_and(f64::is_finite));
        }
    }

    // Bad input is refused with a message, not a panic.
    let bad = program()
        .args(["bench", "--workload", "nope"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(2));
    let bad = program().args(["compare", &path]).output().unwrap();
    assert_eq!(bad.status.code(), Some(2));
}
