//! `compare A.json B.json`: two results files of `run`, side by side. One
//! row per (metric, workload): both medians, the bound, and a verdict. A is
//! the parent, B the change. Per-layer metrics have no bound and get no
//! verdict; they are listed so that a moved end-to-end number can be traced
//! to its layer.

use crate::contract::{Contract, MetricDef};
use crate::harness::median;
use crate::surface::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The runs' spread is wider than the bound and the two sides overlap:
    /// the benchmark cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the first and third quartile as a share of the median
/// (the whole range when there are too few runs for quartiles).
fn spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = median(&sorted);
    if sorted.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let width = if sorted.len() < 4 {
        sorted[sorted.len() - 1] - sorted[0]
    } else {
        // The exclusive method, as Python's `statistics.quantiles(n=4)`.
        let at = |p: f64| {
            let rank = p * (sorted.len() + 1) as f64;
            let below = (rank.floor() as usize).clamp(1, sorted.len() - 1);
            let frac = (rank - below as f64).clamp(0.0, 1.0);
            sorted[below - 1] + frac * (sorted[below] - sorted[below - 1])
        };
        at(0.75) - at(0.25)
    };
    (width / mid).abs()
}

/// The rule of the benchmark: B is worse when its median is worse than A's
/// by more than the bound; when the spread is wider than the bound and the
/// sides overlap the pair is unresolved; B is better only when every one of
/// its runs reads better than every run of A.
pub fn judge(a: &[f64], b: &[f64], metric: &MetricDef) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let (mid_a, mid_b) = (median(a), median(b));
    if a == b || mid_a == mid_b {
        return Verdict::Same;
    }
    // Orient both sides so that larger is worse.
    let sign = if metric.lower_is_better { 1.0 } else { -1.0 };
    let worst = |values: &[f64]| {
        values
            .iter()
            .map(|v| sign * v)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let best = |values: &[f64]| {
        values
            .iter()
            .map(|v| sign * v)
            .fold(f64::INFINITY, f64::min)
    };
    let b_wins_every_pair = worst(b) < best(a);
    let a_wins_every_pair = worst(a) < best(b);
    let worse_by = sign * (mid_b - mid_a) / mid_a.abs();
    if b_wins_every_pair {
        return Verdict::Better;
    }
    if spread(a).max(spread(b)) > bound && !a_wins_every_pair {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

fn values_of(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file["workloads"][workload]["end_to_end"][metric]["values"]
        .as_array()
        .map(|values| values.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub verdict: Verdict,
}

/// Print the table; the rows with a verdict come back for the exit code.
pub fn compare(a: &Json, b: &Json, contract: &Contract) -> Result<Vec<Row>, String> {
    for (label, file) in [("A", a), ("B", b)] {
        if file["schema"].as_u64() != Some(1) {
            return Err(format!("{label} is not a results file of `run`"));
        }
    }
    if a["seed"] != b["seed"] || a["quick"] != b["quick"] {
        return Err("the two files were run on different inputs".into());
    }
    let mut rows = Vec::new();
    println!(
        "{:<22} {:<24} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "change", "bound"
    );
    for workload in &contract.workloads {
        for metric in &contract.end_to_end {
            let (va, vb) = (
                values_of(a, workload, &metric.name),
                values_of(b, workload, &metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}/{} is missing from a file", metric.name));
            }
            let verdict = judge(&va, &vb, metric);
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<22} {:<24} {:>14.6} {:>14.6} {:>+7.2}% {:>6.1}%  {}",
                workload,
                metric.name,
                ma,
                mb,
                (mb - ma) / ma * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                verdict.name()
            );
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name.clone(),
                verdict,
            });
        }
        let failed = |file: &Json| file["workloads"][workload.as_str()]["failed"].as_u64();
        if failed(b) > failed(a) {
            println!(
                "{workload:<22} failed operations rose: {:?} -> {:?}  worse",
                failed(a),
                failed(b)
            );
            rows.push(Row {
                workload: workload.clone(),
                metric: "failed".into(),
                verdict: Verdict::Worse,
            });
        }
    }
    println!();
    println!(
        "{:<22} {:<46} {:>16} {:>16} {:>9}",
        "workload", "per-layer metric", "A", "B", "change"
    );
    for workload in &contract.workloads {
        for metric in &contract.per_layer {
            let value = |file: &Json| {
                file["workloads"][workload.as_str()]["per_layer"][metric.name.as_str()]["value"]
                    .as_f64()
            };
            if let (Some(va), Some(vb)) = (value(a), value(b)) {
                let change = if va == vb {
                    "=".to_string()
                } else if va == 0.0 {
                    "new".to_string()
                } else {
                    format!("{:+.2}%", (vb - va) / va * 100.0)
                };
                println!(
                    "{:<22} {:<46} {:>16.6} {:>16.6} {:>9}",
                    workload, metric.name, va, vb, change
                );
            }
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricDef {
        MetricDef {
            name: "t".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: Some(bound),
        }
    }

    #[test]
    fn identical_counts_are_the_same() {
        assert_eq!(judge(&[5.0; 3], &[5.0; 3], &lower(0.005)), Verdict::Same);
    }

    #[test]
    fn a_median_beyond_the_bound_is_worse() {
        let a = [10.0, 10.1, 10.2, 10.1, 10.0];
        let b = [11.5, 11.6, 11.4, 11.5, 11.6];
        assert_eq!(judge(&a, &b, &lower(0.10)), Verdict::Worse);
        assert_eq!(judge(&b, &a, &lower(0.10)), Verdict::Better);
    }

    #[test]
    fn a_small_drift_inside_the_bound_is_the_same() {
        let a = [10.0, 10.1, 10.2, 10.1, 10.0];
        let b = [10.3, 10.2, 10.1, 10.3, 10.2];
        assert_eq!(judge(&a, &b, &lower(0.10)), Verdict::Same);
    }

    #[test]
    fn a_wide_overlapping_spread_is_unresolved() {
        let a = [10.0, 14.0, 9.0, 13.0, 10.5];
        let b = [12.0, 9.5, 15.0, 10.0, 13.5];
        assert_eq!(judge(&a, &b, &lower(0.10)), Verdict::Unresolved);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let higher = MetricDef {
            lower_is_better: false,
            ..lower(0.10)
        };
        assert_eq!(judge(&[10.0; 3], &[8.0; 3], &higher), Verdict::Worse);
        assert_eq!(judge(&[10.0; 3], &[12.0; 3], &higher), Verdict::Better);
    }

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&values) - 1.0).abs() < 1e-12);
    }
}
