//! Statistics helpers used by the analyses.

use bsky_atproto::Datetime;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::io::Write;

/// The `YYYY-MM` month a time falls in: the bucket of every monthly series.
pub(crate) fn month_of(dt: Datetime) -> String {
    dt.date().year_month()
}

/// [`month_of`] on the stack: a month-keyed table looks it up through
/// [`slot`], which copies it into a `String` only for a new month.
pub(crate) struct MonthKey([u8; 16], usize);

impl MonthKey {
    pub(crate) fn of(dt: Datetime) -> MonthKey {
        let month = dt.date().month_number();
        let (year, month) = (month.div_euclid(12), month.rem_euclid(12) + 1);
        let mut key = MonthKey([0; 16], 16);
        let mut rest = &mut key.0[..];
        write!(rest, "{year:04}-{month:02}").expect("a year and a month fit 16 bytes");
        key.1 -= rest.len();
        key
    }

    pub(crate) fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0[..self.1]).expect("digits and a dash")
    }
}

/// Exact quantile of a slice (linear interpolation). Returns `None` on empty
/// input.
pub(crate) fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Add every count of `from` into `into`: how two count maps merge.
pub(crate) fn add_counts<K: Ord>(into: &mut BTreeMap<K, u64>, from: BTreeMap<K, u64>) {
    for (key, count) in from {
        *into.entry(key).or_insert(0) += count;
    }
}

/// The value under `key`, inserted as its default first when absent. The
/// key is made owned (a clone, or a `String` from a `&str`) only then,
/// where `entry(key.to_owned())` allocates it per call.
pub(crate) fn slot<'m, K, Q, V>(map: &'m mut BTreeMap<K, V>, key: &Q) -> &'m mut V
where
    K: Ord + Borrow<Q>,
    Q: Ord + ToOwned<Owned = K> + ?Sized,
    V: Default,
{
    if !map.contains_key(key) {
        map.insert(key.to_owned(), V::default());
    }
    map.get_mut(key).expect("inserted above")
}

/// Median.
pub(crate) fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Interquartile distance (Q3 − Q1), the dispersion measure of Table 6.
pub(crate) fn iqd(values: &[f64]) -> Option<f64> {
    Some(quantile(values, 0.75)? - quantile(values, 0.25)?)
}

/// Pearson's correlation coefficient between two equally long samples.
pub(crate) fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mean_x = x.iter().sum::<f64>() / n;
    let mean_y = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (a, b) in x.iter().zip(y) {
        cov += (a - mean_x) * (b - mean_y);
        var_x += (a - mean_x).powi(2);
        var_y += (b - mean_y).powi(2);
    }
    if var_x == 0.0 || var_y == 0.0 {
        return None;
    }
    Some(cov / (var_x.sqrt() * var_y.sqrt()))
}

/// Percentage share of `part` in `total`.
pub(crate) fn share(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64 * 100.0
    }
}

/// Count occurrences and return `(key, count)` pairs sorted by descending
/// count (ties broken by key for determinism).
pub(crate) fn top_counts<I, K>(items: I) -> Vec<(K, u64)>
where
    I: IntoIterator<Item = K>,
    K: Ord + Clone,
{
    let mut counts: BTreeMap<K, u64> = BTreeMap::new();
    for item in items {
        *counts.entry(item).or_insert(0) += 1;
    }
    let mut out: Vec<(K, u64)> = counts.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_month_key_reads_as_month_of() {
        for (year, month) in [
            (2024, 3),
            (2023, 12),
            (1970, 1),
            (7, 1),
            (12_345, 11),
            (-44, 3),
        ] {
            let dt = Datetime::from_ymd(year, month, 28).unwrap();
            assert_eq!(MonthKey::of(dt).as_str(), month_of(dt), "{year}-{month}");
        }
    }

    #[test]
    fn quantiles_and_median() {
        let values: Vec<f64> = (1..=9).map(|v| v as f64).collect();
        assert_eq!(median(&values), Some(5.0));
        assert_eq!(quantile(&values, 0.0), Some(1.0));
        assert_eq!(quantile(&values, 1.0), Some(9.0));
        assert_eq!(iqd(&values), Some(4.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[f64::NAN]), None);
    }

    #[test]
    fn quantile_ignores_nan_and_infinities_without_panicking() {
        // Regression: the sort used `partial_cmp(..).unwrap()` and panicked
        // on NaN input; `total_cmp` plus the finite filter must not.
        let values = [3.0, f64::NAN, 1.0, f64::INFINITY, 2.0, f64::NEG_INFINITY];
        assert_eq!(median(&values), Some(2.0));
        assert_eq!(quantile(&values, 0.0), Some(1.0));
        assert_eq!(quantile(&values, 1.0), Some(3.0));
        // All-NaN input degrades to None, not a panic.
        assert_eq!(quantile(&[f64::NAN, f64::NAN], 0.5), None);
    }

    #[test]
    fn pearson_known_values() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 4.0, 6.0, 8.0, 10.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let inverse = [10.0, 8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &inverse).unwrap() + 1.0).abs() < 1e-12);
        let constant = [3.0; 5];
        assert_eq!(pearson(&x, &constant), None);
        assert_eq!(pearson(&x, &[1.0]), None);
        // Uncorrelated-ish data gives something between -1 and 1.
        let z = [4.0, 1.0, 3.0, 5.0, 2.0];
        let r = pearson(&x, &z).unwrap();
        assert!(r > -1.0 && r < 1.0);
    }

    #[test]
    fn shares_and_counts() {
        assert_eq!(share(1, 4), 25.0);
        assert_eq!(share(1, 0), 0.0);
        let counts = top_counts(vec!["a", "b", "a", "c", "a", "b"]);
        assert_eq!(counts[0], ("a", 3));
        assert_eq!(counts[1], ("b", 2));
        assert_eq!(counts[2], ("c", 1));
        let mut into = BTreeMap::from([("a", 1), ("b", 2)]);
        add_counts(&mut into, BTreeMap::from([("b", 3), ("c", 4)]));
        assert_eq!(into, BTreeMap::from([("a", 1), ("b", 5), ("c", 4)]));
    }
}
