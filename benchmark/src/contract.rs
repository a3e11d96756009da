//! `BENCHMARK.json` as the program reads it: the one place that fixes each
//! metric's unit, direction and regression bound. The code that measures a
//! metric names it; everything else about it is looked up here, so a name
//! the contract does not list cannot be emitted.

use crate::paths;
use crate::surface::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may get worse;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn metric_defs(list: &Json, bounded: bool) -> Result<Vec<MetricDef>, String> {
    list.as_array()
        .ok_or("metric list is not an array")?
        .iter()
        .map(|entry| {
            let text = |key: &str| {
                entry[key]
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("metric without {key}: {entry:?}"))
            };
            let name = text("name")?;
            let bound = entry["bound"].as_f64();
            if bounded && bound.is_none() {
                return Err(format!("end-to-end metric {name} has no bound"));
            }
            Ok(MetricDef {
                unit: text("unit")?,
                lower_is_better: match text("better")?.as_str() {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("{name}: better is {other:?}")),
                },
                bound,
                name,
            })
        })
        .collect()
}

impl Contract {
    pub fn load() -> Result<Contract, String> {
        let path = paths::contract_path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Contract::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let json = Json::parse(text)?;
        Ok(Contract {
            run_seconds: json["run_seconds"]
                .as_u64()
                .ok_or("run_seconds is not a whole number")?,
            workloads: json["workloads"]
                .as_array()
                .ok_or("workloads is not an array")?
                .iter()
                .filter_map(|w| w["name"].as_str().map(str::to_string))
                .collect(),
            end_to_end: metric_defs(&json["end_to_end"], true)?,
            per_layer: metric_defs(&json["per_layer"], false)?,
        })
    }

    pub fn per_layer(&self, name: &str) -> Option<&MetricDef> {
        self.per_layer.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_committed_contract_is_within_the_drivers_limits() {
        let contract = Contract::load().expect("BENCHMARK.json parses");
        assert!((1..=60).contains(&contract.run_seconds));
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(contract.workloads, names, "same workloads, same order");
        assert!((1..=16).contains(&contract.end_to_end.len()));
        assert!((1..=128).contains(&contract.per_layer.len()));
        let setup = contract
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is listed");
        assert!(setup.lower_is_better && setup.unit == "s");
        let mut seen = std::collections::BTreeSet::new();
        for metric in contract.end_to_end.iter().chain(&contract.per_layer) {
            assert!(well_formed(&metric.name), "{}", metric.name);
            assert!(metric.unit.len() <= 16, "{}", metric.unit);
            assert!(seen.insert(&metric.name), "{} listed twice", metric.name);
            if let Some(bound) = metric.bound {
                assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", metric.name);
                assert!(
                    bound <= setup.bound.unwrap(),
                    "setup_s has the largest bound"
                );
            }
        }
    }

    #[test]
    fn the_committed_reasons_are_the_programs_own() {
        let text = std::fs::read_to_string(paths::contract_path()).unwrap();
        let json = Json::parse(&text).unwrap();
        for (entry, workload) in json["workloads"].as_array().unwrap().iter().zip(&WORKLOADS) {
            assert_eq!(entry["why"].as_str(), Some(workload.why));
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
        }
    }

    #[test]
    fn a_metric_without_a_direction_is_refused() {
        let text = r#"{"run_seconds": 5, "workloads": [], "per_layer": [],
            "end_to_end": [{"name": "x", "unit": "s", "better": "faster", "bound": 0.1}]}"#;
        assert!(Contract::parse(text).unwrap_err().contains("better"));
    }
}
