//! Parsing and diffing of sweep records (the `BENCH_sweep.json` house
//! format) — the observability half of the serving story.
//!
//! A sweep record is JSON lines: one flat `"group":"sweep"` object per
//! job plus one `"group":"sweep-summary"` object. The objects are flat —
//! every value is a string, a number, or a bool — so this module carries
//! its own small parser instead of a JSON dependency (the build
//! environment is offline; see `vendor/README.md` for the policy).
//!
//! [`SweepDiff::between`] compares two records the way a perf-watching
//! human would:
//!
//! * **added/removed rows** — variant/kernel coverage drift between the
//!   two records (informational, not a regression by itself);
//! * **simulation drift** — `cycles`/`instrs` changes on a shared row.
//!   These are *model* changes, reported unconditionally: the simulated
//!   machine ticked differently, which a speed knob must never cause;
//! * **rate deltas** — `mcps` changes beyond a relative tolerance
//!   (host-timing noise makes exact rate comparison meaningless);
//! * **counter deltas** — every other integer field (`place_visits`,
//!   `superblocks_entered`, …), aggregated per variant.
//!   Counters are collected *generically*: a future sweep field flows
//!   into diffs without touching this module.
//!
//! `rcpn-serve sweep-diff` is the CLI over this module; CI diffs the
//! committed record against itself and asserts [`SweepDiff::is_zero`].

use std::collections::BTreeMap;

/// One flat JSON value in a record line.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// A number written as a bare integer (no `.` or exponent) — how
    /// the house renderer writes counters. The lexical distinction
    /// matters: `"cpi":2.0` is a rate that happens to be whole, not a
    /// counter, and must not flow into counter diffs.
    Int(u64),
    /// A number written with a fraction or exponent.
    Float(f64),
    /// A JSON bool.
    Bool(bool),
}

impl Value {
    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(n) => Some(*n),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }
}

/// Record-parsing failure: the line number (1-based) and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.detail)
    }
}

impl std::error::Error for RecordError {}

fn err(line: usize, detail: impl Into<String>) -> RecordError {
    RecordError { line, detail: detail.into() }
}

/// Parses one flat JSON object (`{"key":value,...}` — string, number and
/// bool values only, which is all the house format emits).
fn parse_flat_object(line: usize, text: &str) -> Result<BTreeMap<String, Value>, RecordError> {
    let mut map = BTreeMap::new();
    let b = text.trim().as_bytes();
    let mut i = 0usize;
    let eat = |i: &mut usize, b: &[u8], want: u8| -> Result<(), RecordError> {
        if b.get(*i) == Some(&want) {
            *i += 1;
            Ok(())
        } else {
            Err(err(line, format!("expected {:?} at byte {}", want as char, i)))
        }
    };
    let parse_string = |i: &mut usize, b: &[u8]| -> Result<String, RecordError> {
        if b.get(*i) != Some(&b'"') {
            return Err(err(line, format!("expected string at byte {i}")));
        }
        *i += 1;
        let start = *i;
        while let Some(&c) = b.get(*i) {
            match c {
                b'"' => {
                    let s = std::str::from_utf8(&b[start..*i])
                        .map_err(|_| err(line, "invalid utf-8 in string"))?
                        .to_string();
                    *i += 1;
                    return Ok(s);
                }
                // The house renderer never escapes; reject rather than
                // mis-parse if that ever changes.
                b'\\' => return Err(err(line, "escape sequences are not supported")),
                _ => *i += 1,
            }
        }
        Err(err(line, "unterminated string"))
    };
    eat(&mut i, b, b'{')?;
    if b.get(i) == Some(&b'}') {
        return Ok(map);
    }
    loop {
        let key = parse_string(&mut i, b)?;
        eat(&mut i, b, b':')?;
        let value = match b.get(i) {
            Some(&b'"') => Value::Str(parse_string(&mut i, b)?),
            Some(&b't') if b[i..].starts_with(b"true") => {
                i += 4;
                Value::Bool(true)
            }
            Some(&b'f') if b[i..].starts_with(b"false") => {
                i += 5;
                Value::Bool(false)
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = i;
                while b.get(i).is_some_and(|c| {
                    c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    i += 1;
                }
                let text = std::str::from_utf8(&b[start..i]).expect("ascii digits");
                if text.bytes().all(|c| c.is_ascii_digit()) {
                    Value::Int(
                        text.parse::<u64>()
                            .map_err(|_| err(line, format!("bad integer {text:?}")))?,
                    )
                } else {
                    Value::Float(
                        text.parse::<f64>()
                            .map_err(|_| err(line, format!("bad number {text:?}")))?,
                    )
                }
            }
            _ => return Err(err(line, format!("unsupported value for key {key:?}"))),
        };
        map.insert(key, value);
        match b.get(i) {
            Some(&b',') => i += 1,
            Some(&b'}') => {
                i += 1;
                break;
            }
            _ => return Err(err(line, format!("expected ',' or '}}' at byte {i}"))),
        }
    }
    if b[i..].iter().any(|c| !c.is_ascii_whitespace()) {
        return Err(err(line, "trailing bytes after object"));
    }
    Ok(map)
}

/// One `"group":"sweep"` row, keyed by (`variant`, `kernel`, `size`).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordRow {
    /// Engine-variant label, e.g. `"strongarm/tables:per-place-class"`.
    pub variant: String,
    /// Kernel name, e.g. `"crc"`.
    pub kernel: String,
    /// Workload size.
    pub size: u64,
    /// Simulated cycles — part of the timing model, diffed exactly.
    pub cycles: u64,
    /// Retired instructions — part of the timing model, diffed exactly.
    pub instrs: u64,
    /// Simulation rate in millions of cycles per second (host timing;
    /// diffed with a tolerance).
    pub mcps: f64,
    /// Every other integer field on the row (scheduler counters and any
    /// future additions), collected generically.
    pub counters: BTreeMap<String, u64>,
}

/// The `"group":"sweep-summary"` row.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordSummary {
    /// Number of jobs in the sweep.
    pub jobs: u64,
    /// Whether the serial and parallel runs were bit-identical.
    pub identical: bool,
}

/// A parsed sweep record: per-job rows plus the summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// The `"sweep"` rows, in file order.
    pub rows: Vec<RecordRow>,
    /// The `"sweep-summary"` row.
    pub summary: RecordSummary,
}

impl SweepRecord {
    /// Parses a JSON-lines sweep record (the exact format
    /// [`crate::sweep::render_json`] emits). Lines of other `"group"`s
    /// are ignored so mixed bench logs still parse.
    ///
    /// # Errors
    ///
    /// [`RecordError`] naming the first malformed line, or the absence
    /// of a `"sweep-summary"` row.
    pub fn parse(text: &str) -> Result<SweepRecord, RecordError> {
        let mut rows = Vec::new();
        let mut summary = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            if raw.trim().is_empty() {
                continue;
            }
            let obj = parse_flat_object(line, raw)?;
            let group = obj.get("group").and_then(Value::as_str).unwrap_or("");
            match group {
                "sweep" => rows.push(Self::row_from(line, &obj)?),
                "sweep-summary" => summary = Some(Self::summary_from(line, &obj)?),
                _ => {}
            }
        }
        let summary =
            summary.ok_or_else(|| err(text.lines().count(), "no sweep-summary row found"))?;
        Ok(SweepRecord { rows, summary })
    }

    fn row_from(line: usize, obj: &BTreeMap<String, Value>) -> Result<RecordRow, RecordError> {
        let get_u64 = |key: &str| {
            obj.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| err(line, format!("missing integer field {key:?}")))
        };
        let bench = obj
            .get("bench")
            .and_then(Value::as_str)
            .ok_or_else(|| err(line, "missing string field \"bench\""))?;
        let (variant, kernel) = bench
            .rsplit_once('/')
            .ok_or_else(|| err(line, format!("bench {bench:?} is not variant/kernel")))?;
        let mcps = obj
            .get("mcps")
            .and_then(Value::as_f64)
            .ok_or_else(|| err(line, "missing number field \"mcps\""))?;
        // Core keys identify the row and its timing; every *other*
        // integer field is a counter and flows into the diff generically.
        const CORE: &[&str] = &["size", "cycles", "instrs"];
        let counters = obj
            .iter()
            .filter(|(k, v)| !CORE.contains(&k.as_str()) && v.as_u64().is_some())
            .map(|(k, v)| (k.clone(), v.as_u64().expect("filtered to u64")))
            .collect();
        Ok(RecordRow {
            variant: variant.to_string(),
            kernel: kernel.to_string(),
            size: get_u64("size")?,
            cycles: get_u64("cycles")?,
            instrs: get_u64("instrs")?,
            mcps,
            counters,
        })
    }

    fn summary_from(
        line: usize,
        obj: &BTreeMap<String, Value>,
    ) -> Result<RecordSummary, RecordError> {
        Ok(RecordSummary {
            jobs: obj
                .get("jobs")
                .and_then(Value::as_u64)
                .ok_or_else(|| err(line, "missing integer field \"jobs\""))?,
            identical: obj
                .get("identical")
                .and_then(|v| match v {
                    Value::Bool(b) => Some(*b),
                    _ => None,
                })
                .unwrap_or(true),
        })
    }
}

/// One shared row whose simulated timing changed between records — a
/// *model* change, reported unconditionally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingDrift {
    /// `variant/kernel@size` row key.
    pub row: String,
    /// Old and new cycle counts.
    pub cycles: (u64, u64),
    /// Old and new instruction counts.
    pub instrs: (u64, u64),
}

/// One shared row whose simulation *rate* moved beyond tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct RateDelta {
    /// `variant/kernel@size` row key.
    pub row: String,
    /// Old and new mcps.
    pub mcps: (f64, f64),
    /// Signed relative change, `new/old - 1`.
    pub relative: f64,
}

/// One per-variant counter whose aggregate changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDelta {
    /// Engine-variant label.
    pub variant: String,
    /// Counter name (e.g. `"superblocks_entered"`).
    pub counter: String,
    /// Old and new per-variant totals.
    pub totals: (u64, u64),
}

/// The structured difference between two sweep records.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepDiff {
    /// Row keys present only in the new record.
    pub added: Vec<String>,
    /// Row keys present only in the old record.
    pub removed: Vec<String>,
    /// Shared rows whose cycles/instrs changed (simulation drift).
    pub timing: Vec<TimingDrift>,
    /// Shared rows whose mcps moved beyond the tolerance.
    pub rates: Vec<RateDelta>,
    /// Per-variant counter aggregates that changed (shared rows only, so
    /// coverage drift doesn't masquerade as counter drift).
    pub counters: Vec<CounterDelta>,
    /// The relative mcps tolerance the diff was computed with.
    pub tolerance: f64,
}

fn row_key(r: &RecordRow) -> String {
    format!("{}/{}@{}", r.variant, r.kernel, r.size)
}

impl SweepDiff {
    /// Diffs two parsed records. `tolerance` is the relative `mcps`
    /// change to ignore (e.g. `0.10` = ±10%; host-timing noise between
    /// two runs on a busy machine easily reaches several percent).
    pub fn between(old: &SweepRecord, new: &SweepRecord, tolerance: f64) -> SweepDiff {
        let old_rows: BTreeMap<String, &RecordRow> =
            old.rows.iter().map(|r| (row_key(r), r)).collect();
        let new_rows: BTreeMap<String, &RecordRow> =
            new.rows.iter().map(|r| (row_key(r), r)).collect();

        let added =
            new_rows.keys().filter(|k| !old_rows.contains_key(*k)).cloned().collect::<Vec<_>>();
        let removed =
            old_rows.keys().filter(|k| !new_rows.contains_key(*k)).cloned().collect::<Vec<_>>();

        let mut timing = Vec::new();
        let mut rates = Vec::new();
        // (variant, counter) → (old total, new total), shared rows only.
        let mut totals: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
        for (key, o) in &old_rows {
            let Some(n) = new_rows.get(key) else { continue };
            if o.cycles != n.cycles || o.instrs != n.instrs {
                timing.push(TimingDrift {
                    row: key.clone(),
                    cycles: (o.cycles, n.cycles),
                    instrs: (o.instrs, n.instrs),
                });
            }
            if o.mcps > 0.0 {
                let relative = n.mcps / o.mcps - 1.0;
                if relative.abs() > tolerance {
                    rates.push(RateDelta { row: key.clone(), mcps: (o.mcps, n.mcps), relative });
                }
            }
            for (counter, &v) in &o.counters {
                totals.entry((o.variant.clone(), counter.clone())).or_default().0 += v;
            }
            for (counter, &v) in &n.counters {
                totals.entry((n.variant.clone(), counter.clone())).or_default().1 += v;
            }
        }
        let counters = totals
            .into_iter()
            .filter(|(_, (a, b))| a != b)
            .map(|((variant, counter), totals)| CounterDelta { variant, counter, totals })
            .collect();

        SweepDiff { added, removed, timing, rates, counters, tolerance }
    }

    /// True when the records agree on everything the diff inspects:
    /// same row set, identical timing, no rate move beyond tolerance,
    /// identical counter aggregates.
    pub fn is_zero(&self) -> bool {
        self.added.is_empty()
            && self.removed.is_empty()
            && self.timing.is_empty()
            && self.rates.is_empty()
            && self.counters.is_empty()
    }

    /// Renders the diff as a human-readable report. A zero diff renders
    /// as the single line `sweep-diff: no differences ...` (CI greps for
    /// this).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_zero() {
            out.push_str(&format!(
                "sweep-diff: no differences (mcps tolerance ±{:.0}%)\n",
                self.tolerance * 100.0
            ));
            return out;
        }
        if !self.added.is_empty() {
            out.push_str(&format!("added rows ({}):\n", self.added.len()));
            for k in &self.added {
                out.push_str(&format!("  + {k}\n"));
            }
        }
        if !self.removed.is_empty() {
            out.push_str(&format!("removed rows ({}):\n", self.removed.len()));
            for k in &self.removed {
                out.push_str(&format!("  - {k}\n"));
            }
        }
        if !self.timing.is_empty() {
            out.push_str(&format!(
                "SIMULATION DRIFT ({} rows — the timing model changed):\n",
                self.timing.len()
            ));
            for t in &self.timing {
                out.push_str(&format!(
                    "  ! {}: cycles {} -> {}, instrs {} -> {}\n",
                    t.row, t.cycles.0, t.cycles.1, t.instrs.0, t.instrs.1
                ));
            }
        }
        if !self.rates.is_empty() {
            out.push_str(&format!(
                "rate deltas beyond ±{:.0}% ({} rows):\n",
                self.tolerance * 100.0,
                self.rates.len()
            ));
            for r in &self.rates {
                out.push_str(&format!(
                    "  {} {}: {:.2} -> {:.2} mcps ({:+.1}%)\n",
                    if r.relative < 0.0 { "▼" } else { "▲" },
                    r.row,
                    r.mcps.0,
                    r.mcps.1,
                    r.relative * 100.0
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("counter deltas ({}):\n", self.counters.len()));
            for c in &self.counters {
                let (a, b) = c.totals;
                out.push_str(&format!("  {} {}: {} -> {}\n", c.variant, c.counter, a, b));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"group\":\"sweep\",\"bench\":\"strongarm/tables:per-place-class/crc\",",
        "\"size\":40,\"cycles\":1000,\"instrs\":500,\"cpi\":2.0,",
        "\"job_seconds\":0.001,\"mcps\":1.0,\"place_visits\":77,\"superblocks_entered\":3}\n",
        "{\"group\":\"sweep\",\"bench\":\"strongarm/tables:per-place-class/adpcm\",",
        "\"size\":16,\"cycles\":2000,\"instrs\":900,\"cpi\":2.2,",
        "\"job_seconds\":0.002,\"mcps\":1.0,\"place_visits\":50,\"superblocks_entered\":2}\n",
        "{\"group\":\"sweep-summary\",\"jobs\":2,\"workers\":2,\"total_cycles\":3000,",
        "\"total_retired\":1400,\"serial_seconds\":0.003,\"parallel_seconds\":0.002,",
        "\"speedup\":1.5,\"cache_hits\":1,\"cache_misses\":1,\"cache_bypasses\":0,",
        "\"identical\":true}\n",
    );

    #[test]
    fn parses_the_house_format() {
        let rec = SweepRecord::parse(SAMPLE).unwrap();
        assert_eq!(rec.rows.len(), 2);
        assert_eq!(rec.rows[0].variant, "strongarm/tables:per-place-class");
        assert_eq!(rec.rows[0].kernel, "crc");
        assert_eq!(rec.rows[0].size, 40);
        assert_eq!(rec.rows[0].cycles, 1000);
        assert_eq!(rec.rows[0].counters["place_visits"], 77);
        // cpi/job_seconds/mcps are floats, not counters.
        assert!(!rec.rows[0].counters.contains_key("cpi"));
        assert_eq!(rec.summary.jobs, 2);
        assert!(rec.summary.identical);
    }

    #[test]
    fn self_diff_is_zero() {
        let rec = SweepRecord::parse(SAMPLE).unwrap();
        let diff = SweepDiff::between(&rec, &rec, 0.10);
        assert!(diff.is_zero());
        assert!(diff.render().starts_with("sweep-diff: no differences"));
    }

    #[test]
    fn committed_record_parses_and_self_diffs_to_zero() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json"))
                .expect("committed BENCH_sweep.json");
        let rec = SweepRecord::parse(&text).unwrap();
        assert_eq!(rec.rows.len() as u64, rec.summary.jobs);
        assert!(rec.summary.identical);
        assert!(SweepDiff::between(&rec, &rec, 0.10).is_zero());
    }

    #[test]
    fn detects_timing_drift_and_counter_deltas() {
        let rec = SweepRecord::parse(SAMPLE).unwrap();
        let mut new = rec.clone();
        new.rows[0].cycles += 1;
        new.rows[1].counters.insert("place_visits".to_string(), 51);
        let diff = SweepDiff::between(&rec, &new, 0.10);
        assert!(!diff.is_zero());
        assert_eq!(diff.timing.len(), 1);
        assert_eq!(diff.timing[0].cycles, (1000, 1001));
        assert_eq!(diff.counters.len(), 1);
        assert_eq!(diff.counters[0].counter, "place_visits");
        assert_eq!(diff.counters[0].totals, (127, 128));
        let report = diff.render();
        assert!(report.contains("SIMULATION DRIFT"));
    }

    #[test]
    fn rate_moves_respect_tolerance() {
        let rec = SweepRecord::parse(SAMPLE).unwrap();
        let mut new = rec.clone();
        new.rows[0].mcps = 1.05; // +5%
        assert!(SweepDiff::between(&rec, &new, 0.10).is_zero());
        let diff = SweepDiff::between(&rec, &new, 0.01);
        assert_eq!(diff.rates.len(), 1);
        assert!((diff.rates[0].relative - 0.05).abs() < 1e-9);
    }

    #[test]
    fn added_and_removed_rows_are_reported() {
        let rec = SweepRecord::parse(SAMPLE).unwrap();
        let mut new = rec.clone();
        let mut extra = new.rows[0].clone();
        extra.kernel = "go".to_string();
        new.rows.push(extra);
        new.rows.remove(1);
        let diff = SweepDiff::between(&rec, &new, 0.10);
        assert_eq!(diff.added, vec!["strongarm/tables:per-place-class/go@40"]);
        assert_eq!(diff.removed, vec!["strongarm/tables:per-place-class/adpcm@16"]);
        // Coverage drift alone must not produce counter deltas.
        assert!(diff.counters.is_empty());
    }

    #[test]
    fn malformed_lines_name_their_line_number() {
        let e = SweepRecord::parse("{\"group\":\"sweep\",\"bench\":\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = SweepRecord::parse("{\"group\":\"x\"}\n").unwrap_err();
        assert!(e.detail.contains("no sweep-summary"));
    }
}
