//! End-to-end metrics, the human-readable report and the result line.

use crate::plan::Workload;
use crate::rounds::Paired;
use crate::rounds::MIN_ROUNDS;
use crate::serve::Served;
use crate::setup::{Setup, STRONGARM, XSCALE};
use crate::stats::{median, quantile, spread, tail_percentile, Tally};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.into(), unit, value }
    }
}

/// An end-to-end metric with the values it summarises.
pub struct Row {
    pub metric: Metric,
    /// Per-round (or per-burst) values, when the metric is their median.
    pub per_round: Vec<f64>,
    pub note: String,
}

fn median_row(name: &str, unit: &'static str, per_round: Vec<f64>, note: String) -> Row {
    Row { metric: Metric::new(name, unit, median(&per_round)), per_round, note }
}

fn plain_row(name: &str, unit: &'static str, value: f64, note: String) -> Row {
    Row { metric: Metric::new(name, unit, value), per_round: Vec::new(), note }
}

/// Job latencies in ms, host-normalised and raw; jobs per host-normalised
/// second; and the fewest jobs a run guarantees, which fixes the tail
/// percentile so it does not move with the sample count.
struct Jobs {
    latency_ms: Vec<f64>,
    raw_ms: Vec<f64>,
    per_s: f64,
    min_jobs: usize,
    what: &'static str,
}

fn jobs(setup: &Setup, paired: &Paired, served: Option<&Served>) -> Jobs {
    match served {
        // A served job is normalised by the baseline's turns on its program
        // in the paired round that follows its burst.
        Some(s) => {
            let factor = |burst: usize, program: usize| {
                paired.rounds[burst.min(paired.rounds.len() - 1)].program_host_factor(program)
            };
            let latency_ms = s.done.iter().map(|d| d.ms * factor(d.burst, d.program)).collect();
            // A burst's wall time is normalised by the mean factor of the
            // jobs it completed.
            let mut sums = vec![(0.0, 0usize); s.bursts.len()];
            for d in &s.done {
                sums[d.burst].0 += factor(d.burst, d.program);
                sums[d.burst].1 += 1;
            }
            let wall: f64 =
                s.bursts.iter().zip(&sums).map(|(w, (f, n))| w * f / (*n).max(1) as f64).sum();
            Jobs {
                latency_ms,
                raw_ms: s.done.iter().map(|d| d.ms).collect(),
                per_s: s.done.len() as f64 / wall,
                min_jobs: crate::SERVE_MIN_JOBS,
                what: "served jobs, submit to JobDone",
            }
        }
        None => {
            let samples: Vec<_> = paired
                .samples
                .iter()
                .filter(|s| setup.configs[s.config].model().is_some())
                .collect();
            let raw_ms: Vec<f64> = samples
                .iter()
                .map(|s| (s.timing.instantiate_ns + s.timing.run_ns) as f64 / 1e6)
                .collect();
            let latency_ms: Vec<f64> = samples
                .iter()
                .zip(&raw_ms)
                .map(|(s, ms)| ms * paired.rounds[s.round].program_host_factor(s.program))
                .collect();
            Jobs {
                per_s: latency_ms.len() as f64 * 1e3 / latency_ms.iter().sum::<f64>(),
                min_jobs: MIN_ROUNDS * samples.len() / paired.rounds.len().max(1),
                latency_ms,
                raw_ms,
                what: "in-process RCPN jobs, instantiate + run",
            }
        }
    }
}

/// The end-to-end metrics of an untraced run. Host times are normalised
/// by the same round's baseline speed (see
/// [`crate::rounds::BASELINE_NOMINAL_MCPS`]); raw values are in the notes.
pub fn end_to_end(
    setup: &Setup,
    paired: &Paired,
    served: Option<&Served>,
    setup_s: &[f64],
    peak_rss_mb: f64,
) -> Vec<Row> {
    let ss = setup.baseline();
    let rounds = &paired.rounds;
    let per_round =
        |f: &dyn Fn(&crate::rounds::Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let n = rounds.len();
    let raw_mcps = median(&per_round(&|r| r.total(STRONGARM).rate() / 1e6));
    let j = jobs(setup, paired, served);
    let pct = tail_percentile(j.min_jobs).unwrap_or(100.0);
    let tail_of = |v: &[f64]| quantile(v, pct / 100.0);
    let raw_setup = median(setup_s);
    // Set-up `i` ran just before round `i`.
    let setup_norm: Vec<f64> =
        setup_s.iter().zip(rounds).map(|(s, r)| s * r.host_factor()).collect();
    vec![
        median_row(
            "speedup_vs_ss",
            "x",
            per_round(&|r| r.speedup(STRONGARM, ss)),
            format!("{n} rounds; RCPN-StrongArm ÷ SimpleScalar-Arm; raw RCPN-StrongArm {raw_mcps:.3} Mcycles/s"),
        ),
        median_row(
            "xscale_speedup_vs_ss",
            "x",
            per_round(&|r| r.speedup(XSCALE, ss)),
            format!("{n} rounds; RCPN-XScale ÷ SimpleScalar-Arm"),
        ),
        plain_row(
            "job_p50_ms",
            "ms",
            median(&j.latency_ms),
            format!("{} {}; raw {:.3} ms", j.latency_ms.len(), j.what, median(&j.raw_ms)),
        ),
        plain_row(
            "job_tail_ms",
            "ms",
            tail_of(&j.latency_ms),
            format!(
                "p{pct} of {} samples (≥ 10 beyond at the guaranteed {}); raw {:.3} ms",
                j.latency_ms.len(),
                j.min_jobs,
                tail_of(&j.raw_ms)
            ),
        ),
        plain_row("jobs_per_s", "1/s", j.per_s, format!("{} jobs", j.latency_ms.len())),
        median_row(
            "setup_s",
            "s",
            setup_norm,
            format!("median of {} set-ups, one before each round; raw {raw_setup:.6} s", setup_s.len()),
        ),
        plain_row("peak_rss_mb", "MB", peak_rss_mb, "VmHWM".into()),
    ]
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Prints the human-readable table.
pub fn print_table(workload: Workload, rows: &[Row]) {
    println!("workload {}", workload.name());
    println!("{:<24} {:>14} {:<10} {:>8}  note", "metric", "value", "unit", "IQR/med");
    for r in rows {
        let s =
            if r.per_round.len() > 1 { format!("{:.4}", spread(&r.per_round)) } else { "-".into() };
        println!(
            "{:<24} {:>14.4} {:<10} {:>8}  {}",
            r.metric.name, r.metric.value, r.metric.unit, s, r.note
        );
    }
}

/// Prints per-round quartiles of the same-round ratios and the cycle gap
/// beside each speedup.
pub fn print_speedups(rows: &[Row], gaps: &[(String, f64)]) {
    for r in rows.iter().filter(|r| r.metric.name.contains("speedup")) {
        println!(
            "{}: median {:.4}, quartiles [{:.4}, {:.4}] over {} rounds",
            r.metric.name,
            r.metric.value,
            quantile(&r.per_round, 0.25),
            quantile(&r.per_round, 0.75),
            r.per_round.len()
        );
    }
    let gaps: Vec<String> = gaps
        .iter()
        .map(|(k, v)| format!("{}={:+.3}", k.trim_start_matches("baseline.cycle_gap."), v))
        .collect();
    println!(
        "baseline.cycle_gap (SimpleScalar − RCPN-StrongArm cycles) ÷ RCPN-StrongArm: {}",
        gaps.join(" ")
    );
    println!("note: both models are unvalidated for timing against hardware; the cycle gap is the only cross-check");
}

/// The result line: one JSON object, printed last.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut t = Tally::default();
        t.record(None);
        let line = result_line(&t, &[Metric::new("setup_s", "s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        t.record(Some("x".into()));
        assert!(result_line(&t, &[])
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
