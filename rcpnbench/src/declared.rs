//! The metrics `BENCHMARK.json` declares, read at build time, so a run
//! that would print a different set fails instead.

use std::collections::BTreeMap;

use crate::report::Metric;
use crate::stats::{legal_name, legal_unit};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of each metric declared in `section` (`"end_to_end"` or
/// `"per_layer"`), in file order. The file lists `end_to_end` before
/// `per_layer`, one metric object per line.
pub fn declared(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON.find(&format!("\"{section}\"")).expect("section present");
    let body = &BENCHMARK_JSON[start..];
    let end = if section == "end_to_end" {
        body.find("\"per_layer\"").unwrap_or(body.len())
    } else {
        body.len()
    };
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body[..end].lines().filter_map(|l| Some((field(l, "name")?, field(l, "unit")?))).collect()
}

/// Fails unless `metrics` are exactly the declared metrics of the mode,
/// with the declared units.
pub fn check(metrics: &[Metric], trace: bool) -> Result<(), String> {
    let want: BTreeMap<String, String> =
        declared(if trace { "per_layer" } else { "end_to_end" }).into_iter().collect();
    let got: BTreeMap<String, String> =
        metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
    if let Some(m) = metrics.iter().find(|m| !legal_name(&m.name) || !legal_unit(m.unit)) {
        return Err(format!("illegal metric name or unit: {m:?}"));
    }
    if got.len() != metrics.len() {
        return Err("a metric name is printed twice".into());
    }
    if want != got {
        let missing: Vec<_> = want.keys().filter(|k| !got.contains_key(*k)).collect();
        let extra: Vec<_> = got.keys().filter(|k| !want.contains_key(*k)).collect();
        return Err(format!("metrics differ from BENCHMARK.json: missing {missing:?}, extra {extra:?}, or units differ"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_and_units_are_legal_and_unique() {
        let e2e = declared("end_to_end");
        let layers = declared("per_layer");
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in e2e.iter().chain(&layers) {
            assert!(legal_name(name), "{name}");
            assert!(legal_unit(unit), "{unit}");
            assert!(seen.insert(name.clone()), "{name} declared twice");
        }
        assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    }
}
