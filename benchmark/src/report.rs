//! What a run leaves behind: the line the driver reads, the ledger file a
//! later run is diffed against, and the diff itself.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde_json::Value;

use crate::run::Outcome;
use crate::spec::{MetricSpec, Spec, END_TO_END, PER_LAYER};
use crate::stats::Summary;

/// One metric of one workload in a ledger file.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// The number the metric is judged by: see [`headline`].
    pub value: f64,
    pub summary: Summary,
    pub unit: String,
}

/// The end-to-end metrics that have one sample per segment.
const PER_SEGMENT: [&str; 4] = [
    "latency_p50_us",
    "latency_tail_us",
    "throughput_ops",
    "heavy_op_ms",
];

/// The number a metric is reported and judged by. For a per-segment
/// end-to-end metric it is the median of the better half of the segments,
/// that is the better quartile: in a shared sandbox interference only ever
/// slows a segment, and it comes in phases that last seconds, so a phase
/// can take more than half of one run and none of the next. Over ten runs in
/// such a phase the plain median of `fleet_mix`'s round trip moved 38 % and
/// its better quartile 7 %. Everything else (set-ups, counts, single
/// readings, per-layer rows) is its median.
pub fn headline(name: &str, summary: &Summary, spec: &Spec) -> f64 {
    if !PER_SEGMENT.contains(&name) {
        return summary.median;
    }
    match spec.metric(name) {
        Some(m) if m.higher_is_better => summary.q3,
        _ => summary.q1,
    }
}

/// One workload's results: either section may be absent from a file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Results {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub segments: u64,
    pub end_to_end: BTreeMap<String, Row>,
    pub per_layer: BTreeMap<String, Row>,
}

/// A ledger file: the machine, the settings, and each workload's results.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    pub machine: Vec<(String, Value)>,
    pub seed: u64,
    pub seconds: f64,
    pub workloads: BTreeMap<String, Results>,
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `nproc`, CPU model and kernel of the machine the numbers come from.
pub fn machine(nproc: usize) -> Vec<(String, Value)> {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
    vec![
        ("nproc".to_string(), Value::U64(nproc as u64)),
        ("cpu".to_string(), Value::Str(cpu)),
        (
            "kernel".to_string(),
            Value::Str(read("/proc/sys/kernel/osrelease").trim().to_string()),
        ),
    ]
}

/// The metrics a run in this mode owes, in `BENCHMARK.json` order: every
/// end-to-end metric untraced, every per-layer metric traced. A per-layer
/// metric the workload did not produce is a layer it left idle, and reads 0;
/// a missing end-to-end metric is a harness bug.
pub fn owed(outcome: &Outcome, traced: bool) -> Vec<(&'static str, Summary)> {
    let idle = Summary {
        median: 0.0,
        q1: 0.0,
        q3: 0.0,
        n: 0,
    };
    if traced {
        PER_LAYER
            .iter()
            .map(|name| (*name, outcome.metrics.get(name).copied().unwrap_or(idle)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|name| {
                let summary = outcome
                    .metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{} did not measure {name}", outcome.workload));
                (*name, *summary)
            })
            .collect()
    }
}

/// The last line of a run's standard output.
pub fn contract_line(outcome: &Outcome, traced: bool, spec: &Spec) -> String {
    let metrics = owed(outcome, traced)
        .into_iter()
        .map(|(name, summary)| {
            let unit = &spec.metric(name).expect("declared metric").unit;
            (
                name.to_string(),
                obj(vec![
                    ("value", Value::F64(headline(name, &summary, spec))),
                    ("unit", Value::Str(unit.clone())),
                ]),
            )
        })
        .collect();
    let line = obj(vec![
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::U64(outcome.checker.attempted.max(1))),
        ("failed", Value::U64(outcome.checker.failed)),
        ("metrics", Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("result serializes")
}

/// A human-readable table of the run, every metric by name with its unit.
pub fn table(outcome: &Outcome, traced: bool, spec: &Spec) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} ({}): {} segments, {} operations, {} failed, outputs {}",
        outcome.workload,
        if traced { "traced" } else { "untraced" },
        outcome.segments,
        outcome.checker.attempted,
        outcome.checker.failed,
        if outcome.correct() {
            "correct"
        } else {
            "WRONG"
        },
    );
    for reason in &outcome.checker.reasons {
        let _ = writeln!(out, "  ! {reason}");
    }
    let mut rows = owed(outcome, traced);
    // Extras a workload measured beyond what the mode owes (the untraced
    // p99, the issue's own names for its end-to-end numbers).
    for (name, summary) in &outcome.metrics {
        if !rows.iter().any(|(n, _)| n == name) {
            rows.push((name, *summary));
        }
    }
    for (name, s) in rows {
        let unit = spec.metric(name).map_or("", |m| m.unit.as_str());
        let _ = writeln!(
            out,
            "  {name:<34} {:>16} {unit:<6} median {:<14} q1 {:<14} q3 {:<14} n {}",
            number(headline(name, &s, spec)),
            number(s.median),
            number(s.q1),
            number(s.q3),
            s.n
        );
    }
    out
}

/// Four decimals, or scientific notation for what they would round away.
fn number(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

fn section_to_value(section: &BTreeMap<String, Row>) -> Value {
    Value::Map(
        section
            .iter()
            .map(|(name, row)| {
                (
                    name.clone(),
                    obj(vec![
                        ("value", Value::F64(row.value)),
                        ("median", Value::F64(row.summary.median)),
                        ("q1", Value::F64(row.summary.q1)),
                        ("q3", Value::F64(row.summary.q3)),
                        ("n", Value::U64(row.summary.n as u64)),
                        ("unit", Value::Str(row.unit.clone())),
                    ]),
                )
            })
            .collect(),
    )
}

fn section_from_value(v: Option<&Value>) -> BTreeMap<String, Row> {
    let Some(Value::Map(entries)) = v else {
        return BTreeMap::new();
    };
    let num = |row: &Value, k: &str| row.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    entries
        .iter()
        .map(|(name, row)| {
            (
                name.clone(),
                Row {
                    value: num(row, "value"),
                    summary: Summary {
                        median: num(row, "median"),
                        q1: num(row, "q1"),
                        q3: num(row, "q3"),
                        n: num(row, "n") as usize,
                    },
                    unit: row
                        .get("unit")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string(),
                },
            )
        })
        .collect()
}

impl Ledger {
    /// Adds one run's outcome, filling the section its mode measured.
    pub fn record(&mut self, outcome: &Outcome, traced: bool, spec: &Spec) {
        let results = self
            .workloads
            .entry(outcome.workload.to_string())
            .or_insert_with(|| Results {
                correct: true,
                ..Results::default()
            });
        results.correct &= outcome.correct();
        results.attempted += outcome.checker.attempted;
        results.failed += outcome.checker.failed;
        let section = if traced {
            &mut results.per_layer
        } else {
            results.segments = outcome.segments as u64;
            &mut results.end_to_end
        };
        for (name, summary) in owed(outcome, traced) {
            let row = Row {
                value: headline(name, &summary, spec),
                summary,
                unit: spec.metric(name).expect("declared metric").unit.clone(),
            };
            section.insert(name.to_string(), row);
        }
    }

    /// Folds another file's workloads and sections into this one.
    pub fn merge(&mut self, other: Ledger) {
        for (name, theirs) in other.workloads {
            match self.workloads.get_mut(&name) {
                None => {
                    self.workloads.insert(name, theirs);
                }
                Some(ours) => {
                    ours.correct &= theirs.correct;
                    ours.attempted += theirs.attempted;
                    ours.failed += theirs.failed;
                    ours.segments = ours.segments.max(theirs.segments);
                    ours.end_to_end.extend(theirs.end_to_end);
                    ours.per_layer.extend(theirs.per_layer);
                }
            }
        }
    }

    pub fn to_json(&self) -> String {
        let workloads = self
            .workloads
            .iter()
            .map(|(name, r)| {
                (
                    name.clone(),
                    obj(vec![
                        ("correct", Value::Bool(r.correct)),
                        ("attempted", Value::U64(r.attempted)),
                        ("failed", Value::U64(r.failed)),
                        ("segments", Value::U64(r.segments)),
                        ("end_to_end", section_to_value(&r.end_to_end)),
                        ("per_layer", section_to_value(&r.per_layer)),
                    ]),
                )
            })
            .collect();
        let doc = obj(vec![
            ("ledger", Value::Str("cpm-ledger/1".to_string())),
            ("machine", Value::Map(self.machine.clone())),
            ("seed", Value::U64(self.seed)),
            ("seconds", Value::F64(self.seconds)),
            ("workloads", Value::Map(workloads)),
        ]);
        serde_json::to_string_pretty(&doc).expect("ledger serializes") + "\n"
    }

    pub fn from_json(text: &str) -> Result<Ledger, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if doc.get("ledger").and_then(Value::as_str) != Some("cpm-ledger/1") {
            return Err("not a cpm-ledger/1 file".to_string());
        }
        let Some(Value::Map(workloads)) = doc.get("workloads") else {
            return Err("ledger file lacks \"workloads\"".to_string());
        };
        let count = |r: &Value, k: &str| r.get(k).and_then(Value::as_u64).unwrap_or(0);
        Ok(Ledger {
            machine: match doc.get("machine") {
                Some(Value::Map(m)) => m.clone(),
                _ => Vec::new(),
            },
            seed: count(&doc, "seed"),
            seconds: doc.get("seconds").and_then(Value::as_f64).unwrap_or(0.0),
            workloads: workloads
                .iter()
                .map(|(name, r)| {
                    (
                        name.clone(),
                        Results {
                            correct: r.get("correct") == Some(&Value::Bool(true)),
                            attempted: count(r, "attempted"),
                            failed: count(r, "failed"),
                            segments: count(r, "segments"),
                            end_to_end: section_from_value(r.get("end_to_end")),
                            per_layer: section_from_value(r.get("per_layer")),
                        },
                    )
                })
                .collect(),
        })
    }
}

/// How a metric moved between two ledgers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The spread of either side is wider than the bound, and the two
    /// sides' quartiles overlap: the runs cannot tell.
    Unresolved,
}

/// Judges `b` against `a`. `worsening` is the change of the value as a
/// share of `a`'s, positive when worse. The quartiles over each side's own
/// segments stand in for the spread between runs.
pub fn judge(spec: &MetricSpec, a: &Row, b: &Row) -> (f64, Verdict) {
    let bound = spec.bound.unwrap_or(0.0);
    let sign = if spec.higher_is_better { -1.0 } else { 1.0 };
    let worsening = if a.value == 0.0 {
        0.0
    } else {
        sign * (b.value - a.value) / a.value.abs()
    };
    let (a, b) = (&a.summary, &b.summary);
    // Every quartile of one side on the good side of every quartile of the other.
    let (b_all_better, b_all_worse) = if spec.higher_is_better {
        (b.q1 > a.q3, b.q3 < a.q1)
    } else {
        (b.q3 < a.q1, b.q1 > a.q3)
    };
    let noisy = a.spread().max(b.spread()) > bound;
    let verdict = if noisy && !b_all_better && !b_all_worse {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < 0.0 && (b_all_better || -worsening > a.spread()) {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worsening, verdict)
}

/// The diff of two ledgers: one row per workload and metric both hold.
/// Returns the table and whether any end-to-end metric got worse.
pub fn diff(a: &Ledger, b: &Ledger, spec: &Spec) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<14} {:<34} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let change = |x: &Row, y: &Row| (y.value - x.value) / x.value.abs().max(f64::MIN_POSITIVE);
    for (workload, ra) in &a.workloads {
        let Some(rb) = b.workloads.get(workload) else {
            continue;
        };
        if rb.failed > ra.failed || (ra.correct && !rb.correct) {
            any_worse = true;
            let _ = writeln!(
                out,
                "{workload:<14} outputs: {} failed of {} (A: {} of {}) -> worse",
                rb.failed, rb.attempted, ra.failed, ra.attempted
            );
        }
        for m in &spec.end_to_end {
            let (Some(x), Some(y)) = (ra.end_to_end.get(&m.name), rb.end_to_end.get(&m.name))
            else {
                continue;
            };
            let verdict = judge(m, x, y).1;
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{workload:<14} {:<34} {:>14} {:>14} {:>+8.1}% {:>5.0}%  {:<10} \
                 A q1..q3 {:.4}..{:.4}, B {:.4}..{:.4} {}",
                m.name,
                number(x.value),
                number(y.value),
                change(x, y) * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Better => "better",
                    Verdict::Same => "same",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
                x.summary.q1,
                x.summary.q3,
                y.summary.q1,
                y.summary.q3,
                m.unit,
            );
        }
        // Layers carry no bound and so no verdict; idle ones are left out.
        for m in &spec.per_layer {
            let (Some(x), Some(y)) = (ra.per_layer.get(&m.name), rb.per_layer.get(&m.name)) else {
                continue;
            };
            if x.value != 0.0 || y.value != 0.0 {
                let _ = writeln!(
                    out,
                    "{workload:<14} {:<34} {:>14} {:>14} {:>+8.1}% {:>6}  layer      {}",
                    m.name,
                    number(x.value),
                    number(y.value),
                    change(x, y) * 100.0,
                    "-",
                    m.unit,
                );
            }
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".to_string(),
            unit: "us".to_string(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    fn row(median: f64, q1: f64, q3: f64) -> Row {
        Row {
            value: median,
            summary: Summary {
                median,
                q1,
                q3,
                n: 9,
            },
            unit: "us".to_string(),
        }
    }

    fn tight(median: f64) -> Row {
        row(median, median * 0.99, median * 1.01)
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = spec(false, 0.10);
        assert_eq!(judge(&lower, &tight(100.0), &tight(100.5)).1, Verdict::Same);
        assert_eq!(judge(&lower, &tight(100.0), &tight(109.0)).1, Verdict::Same);
        assert_eq!(
            judge(&lower, &tight(100.0), &tight(112.0)).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&lower, &tight(100.0), &tight(90.0)).1,
            Verdict::Better
        );
        let higher = spec(true, 0.10);
        assert_eq!(
            judge(&higher, &tight(100.0), &tight(85.0)).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&higher, &tight(100.0), &tight(120.0)).1,
            Verdict::Better
        );
        // A spread wider than the bound with overlapping quartiles cannot tell.
        let noisy = row(100.0, 85.0, 115.0);
        assert_eq!(judge(&lower, &noisy, &tight(112.0)).1, Verdict::Unresolved);
        // ... unless every quartile of one side clears the other.
        assert_eq!(judge(&lower, &noisy, &tight(140.0)).1, Verdict::Worse);
        assert_eq!(judge(&lower, &noisy, &tight(60.0)).1, Verdict::Better);
    }

    #[test]
    fn headline_is_the_better_quartile_of_per_segment_metrics_only() {
        let spec = Spec::load();
        let s = Summary {
            median: 10.0,
            q1: 8.0,
            q3: 12.0,
            n: 9,
        };
        assert_eq!(headline("latency_p50_us", &s, &spec), 8.0);
        assert_eq!(headline("throughput_ops", &s, &spec), 12.0);
        assert_eq!(headline("setup_s", &s, &spec), 10.0);
        assert_eq!(headline("serve.parse_ns", &s, &spec), 10.0);
    }

    #[test]
    fn ledger_files_round_trip_and_merge() {
        let row = tight;
        let mut a = Ledger {
            machine: machine(2),
            seed: 2009,
            seconds: 20.0,
            ..Ledger::default()
        };
        a.workloads.insert(
            "serve_hot".to_string(),
            Results {
                correct: true,
                attempted: 10,
                segments: 9,
                end_to_end: BTreeMap::from([("latency_p50_us".to_string(), row(24.0))]),
                ..Results::default()
            },
        );
        let back = Ledger::from_json(&a.to_json()).unwrap();
        assert_eq!(back, a);
        let mut traced = Ledger::default();
        traced.workloads.insert(
            "serve_hot".to_string(),
            Results {
                correct: true,
                attempted: 5,
                per_layer: BTreeMap::from([("serve.parse_ns".to_string(), row(1500.0))]),
                ..Results::default()
            },
        );
        a.merge(traced);
        let merged = &a.workloads["serve_hot"];
        assert_eq!((merged.attempted, merged.segments), (15, 9));
        assert!(merged.end_to_end.contains_key("latency_p50_us"));
        assert!(merged.per_layer.contains_key("serve.parse_ns"));
        assert!(Ledger::from_json("{}").is_err());
    }
}
