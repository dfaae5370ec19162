//! One record type for every wall-clock number the bench binaries write,
//! read back or gate on.
//!
//! A [`Record`] is one measured number (`value` in `unit`, from `n`
//! samples), its pairing with a committed baseline (`baseline`, `ratio`)
//! and the [`Gate`] it must pass. [`to_json`] writes one record per line
//! and [`parse`] reads that format back, so a run document and a committed
//! baseline file (`crates/bench/data/<bench>_baseline[_smoke].json`, see
//! [`baseline_path`]) are the same thing. [`check`] pairs a run with its
//! baseline and applies every gate; [`render`] prints records as a table.

use std::fmt;
use std::hint::black_box;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Instant;

use hydranet_netsim::profile::CategoryStats;
use hydranet_obs::json::{push_f64, push_string, push_u64};

use crate::render_table;

/// Name of the record that carries the [`host_speed`] calibration.
pub const HOST_SPEED: &str = "host_speed";

/// The rule a record must pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// `value / baseline`, divided by the host-speed ratio (see
    /// [`speed_norm`]), must be at least `min`.
    Normalized {
        /// Lowest passing normalized ratio.
        min: f64,
    },
    /// `value / baseline` must be at most `max`. Not host-speed
    /// normalized: it gates numbers that do not depend on the host.
    AtMost {
        /// Highest passing ratio.
        max: f64,
    },
    /// The value itself — a speedup of one variant over another measured
    /// in the same run — must be at least `min`. Needs no baseline, so it
    /// holds on any host.
    SameRun {
        /// Lowest passing speedup.
        min: f64,
    },
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::Normalized { min } => write!(f, ">= {min} normalized"),
            Gate::AtMost { max } => write!(f, "<= {max}"),
            Gate::SameRun { min } => write!(f, ">= {min} same-run"),
        }
    }
}

impl FromStr for Gate {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let bound = |b: &str| {
            b.parse::<f64>()
                .map_err(|_| format!("bad gate bound in {s:?}"))
        };
        if let Some(rest) = s.strip_prefix("<= ") {
            return Ok(Gate::AtMost { max: bound(rest)? });
        }
        let rest = s
            .strip_prefix(">= ")
            .ok_or_else(|| format!("unknown gate {s:?}"))?;
        if let Some(min) = rest.strip_suffix(" normalized") {
            Ok(Gate::Normalized { min: bound(min)? })
        } else if let Some(min) = rest.strip_suffix(" same-run") {
            Ok(Gate::SameRun { min: bound(min)? })
        } else {
            Err(format!("unknown gate {s:?}"))
        }
    }
}

impl Gate {
    /// Why `r` fails this gate, or `None` if it passes. `speed_norm`
    /// applies to [`Gate::Normalized`] only.
    fn failure(self, r: &Record, speed_norm: f64) -> Option<String> {
        // Every bound test is written so that a NaN fails it.
        let (passed, detail) = match (self, r.ratio) {
            (Gate::SameRun { min }, _) => (
                r.value >= min,
                format!("x{:.3} < {min} (same run)", r.value),
            ),
            (_, None) => (false, "no baseline value to gate against".to_string()),
            (Gate::Normalized { min }, Some(ratio)) => (
                ratio / speed_norm >= min,
                format!(
                    "ratio {ratio:.3} ({:.3} host-speed-normalized) < {min}",
                    ratio / speed_norm
                ),
            ),
            (Gate::AtMost { max }, Some(ratio)) => (
                ratio <= max,
                format!(
                    "{} vs baseline {} (x{ratio:.3} > {max})",
                    r.value,
                    r.baseline.unwrap_or(f64::NAN)
                ),
            ),
        };
        (!passed).then(|| format!("{}: {detail}", r.name))
    }
}

/// One measured number, its baseline pairing and its gate.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// The binary that wrote it (`perf`, `scale`, `sweep`, `chaos`).
    pub bench: String,
    /// Record name, unique within a bench; baselines pair by it.
    pub name: String,
    /// The layer the number speaks to (`e2e`, `redirect`, `netsim`, `tcp`,
    /// `obs`, `runner`, `attribution`, `host`).
    pub layer: String,
    /// Unit of `value` and `baseline`.
    pub unit: String,
    /// The measured statistic: the best of `n` samples for the `perf`
    /// microbenches, a single run elsewhere.
    pub value: f64,
    /// Samples behind `value`.
    pub n: u64,
    /// The committed baseline's value for the same name, once paired.
    pub baseline: Option<f64>,
    /// `value / baseline`, once paired.
    pub ratio: Option<f64>,
    /// The rule this record must pass, if any.
    pub gate: Option<Gate>,
}

impl Record {
    /// An unpaired, ungated record.
    pub fn new(
        bench: &str,
        name: impl Into<String>,
        layer: &str,
        unit: &str,
        value: f64,
        n: u64,
    ) -> Self {
        Record {
            bench: bench.to_string(),
            name: name.into(),
            layer: layer.to_string(),
            unit: unit.to_string(),
            value,
            n,
            baseline: None,
            ratio: None,
            gate: None,
        }
    }

    /// The same record under `gate`.
    pub fn gated(mut self, gate: Option<Gate>) -> Self {
        self.gate = gate;
        self
    }
}

/// Pairs every record with the baseline record of the same name (filling
/// `baseline` and `ratio`) and returns one message per failed gate. A
/// record whose gate compares against a baseline fails when the baseline
/// has no value for it. `speed_norm` divides the ratios of
/// [`Gate::Normalized`] records.
pub fn check(records: &mut [Record], baseline: &[Record], speed_norm: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for r in records.iter_mut() {
        r.baseline = baseline.iter().find(|b| b.name == r.name).map(|b| b.value);
        r.ratio = r.baseline.map(|b| r.value / b);
        if let Some(msg) = r.gate.and_then(|g| g.failure(r, speed_norm)) {
            failures.push(msg);
        }
    }
    failures
}

/// Product-code-free host-speed calibration: FNV-1a over a fixed buffer,
/// best of three ~20 ms runs, in bytes per second. Wall-clock ratios
/// against a baseline pinned on different hardware (or the same box in a
/// different throttling state) conflate host speed with code speed;
/// [`Gate::Normalized`] divides ratios by the host-speed ratio so
/// machine-wide swings cancel while regressions in the measured code do
/// not.
pub fn host_speed() -> f64 {
    let buf: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    let mut best = 0.0f64;
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..3 {
        let started = Instant::now();
        for round in 0..400u64 {
            acc ^= round;
            for &b in &buf {
                acc ^= u64::from(b);
                acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        best = best.max((400 * buf.len() as u64) as f64 / secs);
    }
    black_box(acc);
    best
}

/// This host's speed over the baseline's [`HOST_SPEED`] record; 1.0 when
/// the baseline has none.
pub fn speed_norm(host_speed: f64, baseline: &[Record]) -> f64 {
    baseline
        .iter()
        .find(|b| b.name == HOST_SPEED)
        .map(|b| host_speed / b.value)
        .filter(|r| r.is_finite() && *r > 0.0)
        .unwrap_or(1.0)
}

/// The committed baseline of `bench`. Smoke and full mode measure
/// different workloads, so each pairs with (and re-pins) its own file.
pub fn baseline_path(bench: &str, smoke: bool) -> PathBuf {
    let suffix = if smoke { "_smoke" } else { "" };
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("data")
        .join(format!("{bench}_baseline{suffix}.json"))
}

/// Reads the committed baseline of `bench`; no file is an empty baseline
/// (so every baseline-gated record fails [`check`]).
///
/// # Errors
///
/// The file exists but cannot be read or parsed.
pub fn read_baseline(bench: &str, smoke: bool) -> Result<Vec<Record>, String> {
    let path = baseline_path(bench, smoke);
    match std::fs::read_to_string(&path) {
        Ok(doc) => parse(&doc).map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// One record per profiler category that saw events: the wall
/// milliseconds spent processing its `n` events.
pub fn attribution(bench: &str, snapshot: &[(&'static str, CategoryStats)]) -> Vec<Record> {
    snapshot
        .iter()
        .filter(|(_, s)| s.events > 0)
        .map(|(name, s)| {
            Record::new(
                bench,
                *name,
                "attribution",
                "wall_ms",
                s.wall_nanos as f64 / 1e6,
                s.events,
            )
        })
        .collect()
}

/// Writes `records` as a JSON array, one record per line.
pub fn to_json(records: &[Record]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let opt = |out: &mut String, v: Option<f64>| match v {
            Some(v) => push_f64(out, v),
            None => out.push_str("null"),
        };
        out.push_str("{\"bench\": ");
        push_string(&mut out, &r.bench);
        out.push_str(", \"name\": ");
        push_string(&mut out, &r.name);
        out.push_str(", \"layer\": ");
        push_string(&mut out, &r.layer);
        out.push_str(", \"unit\": ");
        push_string(&mut out, &r.unit);
        out.push_str(", \"value\": ");
        push_f64(&mut out, r.value);
        out.push_str(", \"n\": ");
        push_u64(&mut out, r.n);
        out.push_str(", \"baseline\": ");
        opt(&mut out, r.baseline);
        out.push_str(", \"ratio\": ");
        opt(&mut out, r.ratio);
        out.push_str(", \"gate\": ");
        match r.gate {
            Some(g) => push_string(&mut out, &g.to_string()),
            None => out.push_str("null"),
        }
        out.push('}');
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Reads a document written by [`to_json`].
///
/// # Errors
///
/// Any line other than the array brackets that is not a complete record,
/// with its line number.
pub fn parse(doc: &str) -> Result<Vec<Record>, String> {
    doc.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !matches!(*l, "" | "[" | "]"))
        .map(|(i, l)| {
            parse_line(l.strip_suffix(',').unwrap_or(l)).map_err(|e| format!("line {i}: {e}"))
        })
        .collect()
}

/// A value on a record line.
enum Field {
    Str(String),
    Num(f64),
    Null,
}

fn parse_line(line: &str) -> Result<Record, String> {
    let fields = fields(line)?;
    let get = |key: &str| {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing \"{key}\""))
    };
    let text = |key: &str| match get(key)? {
        Field::Str(s) => Ok(s.clone()),
        _ => Err(format!("\"{key}\" is not a string")),
    };
    // `push_f64` writes non-finite numbers as `null`.
    let num = |key: &str| match get(key)? {
        Field::Num(v) => Ok(Some(*v)),
        Field::Null => Ok(None),
        Field::Str(_) => Err(format!("\"{key}\" is not a number")),
    };
    let n = num("n")?.ok_or("\"n\" is null")?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("\"n\" is not a count: {n}"));
    }
    let gate = match get("gate")? {
        Field::Null => None,
        Field::Str(s) => Some(s.parse()?),
        Field::Num(_) => return Err("\"gate\" is a number".to_string()),
    };
    Ok(Record {
        bench: text("bench")?,
        name: text("name")?,
        layer: text("layer")?,
        unit: text("unit")?,
        value: num("value")?.unwrap_or(f64::NAN),
        n: n as u64,
        baseline: num("baseline")?,
        ratio: num("ratio")?,
        gate,
    })
}

/// Splits one flat `{"key": value, ...}` line into its fields. Reads what
/// [`to_json`] writes — strings, numbers and `null` — not general JSON.
fn fields(line: &str) -> Result<Vec<(String, Field)>, String> {
    let body = line
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .ok_or("not a {...} record")?;
    let mut chars = body.chars().peekable();
    let mut out = Vec::new();
    loop {
        while chars.next_if(|c| c.is_whitespace()).is_some() {}
        let key = string(&mut chars)?;
        if chars.next() != Some(':') {
            return Err(format!("no ':' after \"{key}\""));
        }
        while chars.next_if(|c| c.is_whitespace()).is_some() {}
        let value = if chars.peek() == Some(&'"') {
            Field::Str(string(&mut chars)?)
        } else {
            let raw: String = std::iter::from_fn(|| chars.next_if(|&c| c != ',')).collect();
            match raw.trim() {
                "null" => Field::Null,
                t => Field::Num(t.parse().map_err(|_| format!("bad number {t:?}"))?),
            }
        };
        out.push((key, value));
        match chars.next() {
            None => return Ok(out),
            Some(',') => {}
            Some(c) => return Err(format!("unexpected {c:?}")),
        }
    }
}

/// Reads one JSON string literal, undoing `push_string`'s escapes.
fn string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected a string".to_string());
    }
    let mut s = String::new();
    loop {
        match chars.next().ok_or("unterminated string")? {
            '"' => return Ok(s),
            '\\' => s.push(match chars.next().ok_or("unterminated escape")? {
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    u32::from_str_radix(&hex, 16)
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or_else(|| format!("bad \\u{hex}"))?
                }
                c => c,
            }),
            c => s.push(c),
        }
    }
}

/// Renders records as one aligned table.
pub fn render(records: &[Record]) -> String {
    let num = |v: f64| {
        if v.abs() >= 1000.0 {
            format!("{v:.0}")
        } else {
            format!("{v:.3}")
        }
    };
    let header: Vec<String> = [
        "name", "layer", "unit", "value", "n", "baseline", "ratio", "gate",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.layer.clone(),
                r.unit.clone(),
                num(r.value),
                r.n.to_string(),
                r.baseline.map(num).unwrap_or_default(),
                r.ratio.map(|x| format!("x{x:.3}")).unwrap_or_default(),
                r.gate.map(|g| g.to_string()).unwrap_or_default(),
            ]
        })
        .collect();
    render_table(&header, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, value: f64, gate: Option<Gate>) -> Record {
        Record::new("t", name, "e2e", "events/s", value, 5).gated(gate)
    }

    /// Runs `check` on one record against a baseline value of 100.
    fn verdict(value: f64, gate: Gate, speed_norm: f64) -> Vec<String> {
        let mut records = [rec("x", value, Some(gate))];
        check(&mut records, &[rec("x", 100.0, None)], speed_norm)
    }

    #[test]
    fn write_read_round_trips_every_field() {
        let mut full = Record::new(
            "perf",
            "chain \"2\"\t\\",
            "e2e",
            "events/s",
            1_127_586.377_291_168_6,
            5,
        );
        full.baseline = Some(1_555_241.021_229_891_8);
        full.ratio = Some(0.725_024_5);
        let records = vec![
            full,
            rec("a", 2.0, Some(Gate::Normalized { min: 0.95 })),
            rec("b", 1728.0, Some(Gate::AtMost { max: 1.05 })),
            rec("c", 46.9, Some(Gate::SameRun { min: 2.0 })),
            rec("d\u{1}", 0.0, None),
        ];
        assert_eq!(parse(&to_json(&records)).unwrap(), records);
        // A non-finite value is written as null and reads back as NaN.
        let back = parse(&to_json(&[rec("nan", f64::INFINITY, None)])).unwrap();
        assert!(back[0].value.is_nan());
    }

    #[test]
    fn parse_rejects_incomplete_records() {
        assert!(parse("[\n{\"bench\": \"perf\"}\n]").is_err());
        assert!(parse("[\nnot a record\n]").is_err());
        let line = to_json(&[rec("x", 1.0, Some(Gate::SameRun { min: 2.0 }))]);
        assert!(parse(&line.replace("same-run", "sometimes")).is_err());
        assert!(parse(&line.replace("\"n\": 5", "\"n\": 1.5")).is_err());
        assert_eq!(parse("[\n]\n").unwrap(), Vec::new());
    }

    #[test]
    fn normalized_gate_passes_at_its_bound_and_divides_by_host_speed() {
        let gate = Gate::Normalized { min: 0.95 };
        assert!(verdict(95.0, gate, 1.0).is_empty());
        assert_eq!(verdict(94.9, gate, 1.0).len(), 1);
        // A host running at half the baseline's speed halves the bar.
        assert!(verdict(47.5, gate, 0.5).is_empty());
        assert_eq!(verdict(47.4, gate, 0.5).len(), 1);
    }

    #[test]
    fn at_most_gate_passes_at_its_bound_and_ignores_host_speed() {
        let gate = Gate::AtMost { max: 1.05 };
        assert!(verdict(105.0, gate, 1.0).is_empty());
        assert_eq!(verdict(105.1, gate, 1.0).len(), 1);
        assert_eq!(verdict(105.1, gate, 2.0).len(), 1);
        assert!(verdict(105.0, gate, 0.5).is_empty());
    }

    #[test]
    fn same_run_gate_needs_no_baseline_and_ignores_host_speed() {
        let gate = Some(Gate::SameRun { min: 2.0 });
        assert!(check(&mut [rec("r", 2.0, gate)], &[], 1.0).is_empty());
        assert_eq!(check(&mut [rec("r", 1.99, gate)], &[], 1.0).len(), 1);
        assert_eq!(check(&mut [rec("r", 1.99, gate)], &[], 0.1).len(), 1);
        assert_eq!(check(&mut [rec("r", f64::NAN, gate)], &[], 1.0).len(), 1);
    }

    #[test]
    fn missing_baseline_value_fails_a_baseline_gate() {
        for gate in [Gate::Normalized { min: 0.5 }, Gate::AtMost { max: 2.0 }] {
            let mut records = [rec("x", 100.0, Some(gate))];
            let failures = check(&mut records, &[rec("other", 100.0, None)], 1.0);
            assert_eq!(failures.len(), 1, "{gate}");
            assert!(failures[0].contains("no baseline"), "{}", failures[0]);
        }
        // Ungated records pair when they can and never fail.
        let mut records = [rec("x", 50.0, None), rec("y", 1.0, None)];
        assert!(check(&mut records, &[rec("x", 100.0, None)], 1.0).is_empty());
        assert_eq!(records[0].ratio, Some(0.5));
        assert_eq!(records[1].baseline, None);
    }

    #[test]
    fn speed_norm_reads_the_host_speed_record() {
        let base = [Record::new("t", HOST_SPEED, "host", "B/s", 800.0, 3)];
        assert_eq!(speed_norm(400.0, &base), 0.5);
        assert_eq!(speed_norm(400.0, &[]), 1.0);
    }

    /// Every committed baseline parses and holds a value for every record
    /// name its bench gates against a baseline in that mode.
    #[test]
    fn committed_baselines_cover_every_gated_record() {
        let perf: Vec<String> = (1..=4)
            .flat_map(|c| [format!("chain {c}"), format!("rd_chain {c}")])
            .chain(["fig4_e2e", "fig4_e2e_wheel", "fig4_small16"].map(String::from))
            .collect();
        let scale: Vec<String> = ["threads=1", "bytes_per_flow"].map(String::from).to_vec();
        for (bench, smoke, gated) in [
            ("perf", false, &perf),
            ("perf", true, &perf),
            ("scale", true, &scale),
        ] {
            let path = baseline_path(bench, smoke);
            let records = read_baseline(bench, smoke).unwrap();
            assert!(!records.is_empty(), "{} missing", path.display());
            let value = |name: &str| {
                records
                    .iter()
                    .find(|r| r.name == name && r.bench == bench)
                    .map(|r| r.value)
                    .filter(|v| v.is_finite() && *v > 0.0)
            };
            for name in gated.iter().map(String::as_str).chain([HOST_SPEED]) {
                assert!(
                    value(name).is_some(),
                    "{}: no value for {name:?}",
                    path.display()
                );
            }
        }
    }
}
