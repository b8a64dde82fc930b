//! The benchmark's arithmetic: medians, quantiles, tail selection,
//! same-round ratios, the failure tally and metric-name legality.

use std::collections::BTreeMap;

/// Median of `values` (mean of the two middle values for an even count);
/// 0.0 for no values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`; 0.0 for no
/// values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Interquartile range of `values` as a share of their median (the
/// run-to-run spread measure the bounds are set against).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m.abs()
}

/// Tail percentiles considered, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_PERCENTILES`] with at least
/// [`TAIL_BEYOND`] of `n` samples beyond it, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES.into_iter().find(|p| {
        // Samples at or below the percentile; the guard absorbs rounding
        // in `n * p / 100` (e.g. 90.00000000000001 for n = 100).
        let at_or_below = ((n as f64 * p) / 100.0 - 1e-9).ceil().max(0.0) as usize;
        n.saturating_sub(at_or_below) >= TAIL_BEYOND
    })
}

/// The tail of `values`: `(percentile, value)` at [`tail_percentile`], or
/// the maximum (reported as percentile 100) when there are too few samples.
pub fn tail(values: &[f64]) -> (f64, f64) {
    match tail_percentile(values.len()) {
        Some(p) => (p, quantile(values, p / 100.0)),
        None => (100.0, quantile(values, 1.0)),
    }
}

/// Simulated work and host time of one configuration over one round.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundTotal {
    pub cycles: u64,
    pub host_ns: u64,
}

impl RoundTotal {
    pub fn add(&mut self, cycles: u64, host_ns: u64) {
        self.cycles += cycles;
        self.host_ns += host_ns;
    }

    /// Simulated cycles per host second.
    pub fn rate(&self) -> f64 {
        if self.host_ns == 0 {
            0.0
        } else {
            self.cycles as f64 * 1e9 / self.host_ns as f64
        }
    }
}

/// The same-round speed ratio `a ÷ b` of two configurations, each rate
/// taken over the same round's kernels (the Figure 10 number when `b` is
/// the SimpleScalar-style baseline). Host drift slower than a round
/// cancels.
pub fn speedup(a: RoundTotal, b: RoundTotal) -> f64 {
    let rb = b.rate();
    if rb == 0.0 {
        0.0
    } else {
        a.rate() / rb
    }
}

/// Geometric mean over programs of the same-round speed ratio `a ÷ b` of
/// each `(a, b)` pair; 0.0 when there are none. Each program's two runs are
/// interleaved, so host drift cancels per program, and every program
/// weighs the same whatever its length (the Figure 10 bars, summarised).
pub fn geomean_speedup(pairs: impl IntoIterator<Item = (RoundTotal, RoundTotal)>) -> f64 {
    let logs: Vec<f64> = pairs.into_iter().map(|(a, b)| speedup(a, b).ln()).collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// Attempted and failed operations, with the reason for each failure.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: BTreeMap<String, u64>,
}

impl Tally {
    /// Counts one operation; `failure` is its reason if it failed.
    pub fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = failure {
            self.failed += 1;
            *self.reasons.entry(reason).or_default() += 1;
        }
    }

    /// Failed ÷ attempted; 0.0 before any operation.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Whether `name` is a legal metric or workload name: starts with a letter
/// or digit, at most 64 of letters, digits, `_`, `.` and `-`.
pub fn legal_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn legal_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_linear_interpolation() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.75), 4.0);
        assert!((spread(&v) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        let v: Vec<f64> = (0..5).map(f64::from).collect();
        assert_eq!(tail(&v), (100.0, 4.0));
        let v: Vec<f64> = (0..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
    }

    #[test]
    fn in_round_ratio_is_a_ratio_of_summed_rates() {
        let mut a = RoundTotal::default();
        a.add(100, 10);
        a.add(300, 30);
        let mut b = RoundTotal::default();
        b.add(400, 20);
        assert_eq!(a.rate(), 1e10);
        assert_eq!(speedup(a, b), 0.5);
        assert_eq!(speedup(a, RoundTotal::default()), 0.0);
        // A host that runs everything twice as slowly leaves the ratio.
        let slow = |t: RoundTotal| RoundTotal { host_ns: t.host_ns * 2, ..t };
        assert_eq!(speedup(slow(a), slow(b)), speedup(a, b));
    }

    #[test]
    fn geomean_weighs_every_program_the_same() {
        let t = |cycles, host_ns| RoundTotal { cycles, host_ns };
        // Ratios 2 and 0.5: geometric mean 1, whatever the programs' lengths.
        let pairs = [(t(200, 10), t(100, 10)), (t(1000, 200), t(1000, 100))];
        assert!((geomean_speedup(pairs) - 1.0).abs() < 1e-12);
        assert!((geomean_speedup([(t(300, 10), t(100, 10))]) - 3.0).abs() < 1e-12);
        assert_eq!(geomean_speedup([]), 0.0);
    }

    #[test]
    fn error_rate_counts_failures_over_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        t.record(None);
        t.record(Some("checksum".into()));
        t.record(None);
        t.record(Some("checksum".into()));
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.error_rate(), 0.5);
        assert_eq!(t.reasons["checksum"], 2);
    }

    #[test]
    fn metric_names_and_units() {
        assert!(legal_name("core.place_visits_per_cycle"));
        assert!(legal_name("serve-mix"));
        assert!(!legal_name("_x"));
        assert!(!legal_name("a b"));
        assert!(!legal_name(&"a".repeat(65)));
        assert!(legal_unit("ms") && legal_unit("1/s") && legal_unit("%"));
        assert!(!legal_unit("") && !legal_unit("m s") && !legal_unit(&"u".repeat(17)));
    }
}
