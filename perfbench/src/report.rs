//! Named metrics, order statistics and the one-line JSON result.

use std::fmt::Write as _;

/// Metrics in insertion order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, String)>,
}

impl Metrics {
    /// Record `name`; a second record of the same name replaces the first.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        let (name, unit) = (name.into(), unit.to_string());
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.entries.iter_mut().find(|e| e.0 == name) {
            Some(entry) => *entry = (name, value, unit),
            None => self.entries.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    pub fn entries(&self) -> &[(String, f64, String)] {
        &self.entries
    }
}

/// Whether the run's outputs were right, and how many operations failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Number of correctness gates that failed (value mismatches, counts
    /// that did not repeat, groups that never became visible).
    pub gate_failures: u64,
}

impl Tally {
    /// Count one operation, failed or not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count one correctness gate; a failed gate is also a failed operation.
    pub fn gate(&mut self, ok: bool, what: &str) {
        self.op(ok);
        if !ok {
            self.gate_failures += 1;
            eprintln!("perfbench: correctness gate failed: {what}");
        }
    }

    pub fn correct(&self) -> bool {
        self.gate_failures == 0
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(tally: &Tally, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.entries().iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Bit patterns of `a` and `b` agree everywhere.
pub fn bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Median of `values` (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 1]`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        m.put("setup_s", 0.25, "s");
        let mut t = Tally::default();
        t.op(true);
        let line = result_json(&t, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
