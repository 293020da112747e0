//! `ledger`: the perf ledger's harness. See `benchmark/README.md`.
//!
//! ```text
//! ledger run --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! ledger run --all [--seed N] [--seconds S] [--smoke] [--out FILE]
//! ledger diff A.json B.json
//! ledger selftest [--seed N] [--seconds S]
//! ```

mod estimate_cold;
mod fleet_mix;
mod gen;
mod micro;
mod pin;
mod replay_scale;
mod report;
mod run;
mod serve_hot;
mod serving;
mod span;
mod spec;
mod stats;
mod wire;

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use report::Ledger;
use run::{Ctx, Outcome};
use span::Tracer;
use spec::{Spec, WORKLOADS};
use stats::Summary;

/// Where a traced run leaves its spans, relative to the repository root.
const TRACE_DIR: &str = "benchmark/results/latest";

const USAGE: &str = "usage: ledger run (--workload W | --all) [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--out FILE]\n       \
                     ledger diff A.json B.json\n       \
                     ledger selftest [--seed N] [--seconds S]";

struct RunArgs {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("ledger: {problem}\n{USAGE}");
    ExitCode::from(2)
}

fn parse_run_args(args: &[String], spec: &Spec) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        all: false,
        seed: 2009,
        seconds: spec.run_seconds as f64,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--all" => parsed.all = true,
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => parsed.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--traced" => parsed.traced = true,
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(value()?.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if parsed.all == parsed.workload.is_some() {
        return Err("give exactly one of --workload and --all".to_string());
    }
    if let Some(w) = &parsed.workload {
        if !spec.workloads.contains(w) {
            return Err(format!(
                "unknown workload {w} (expected one of {WORKLOADS:?})"
            ));
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(parsed)
}

/// The directory this process writes registries and the like into: next to
/// the binary, so inside the (ignored) build directory of the checkout.
fn scratch_dir() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join("ledger-scratch")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Runs one workload in this process.
fn run_one(workload: &str, args: &RunArgs) -> io::Result<Outcome> {
    let cpus = pin::Cpus::detect();
    cpus.pin_all();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        scratch: scratch_dir()?,
        cpus,
    };
    type Run = fn(&Ctx) -> io::Result<Outcome>;
    type Trace = fn(&Ctx, &mut Tracer) -> io::Result<Outcome>;
    let (run, trace): (Run, Trace) = match workload {
        "serve_hot" => (serve_hot::run, serve_hot::trace),
        "fleet_mix" => (fleet_mix::run, fleet_mix::trace),
        "estimate_cold" => (estimate_cold::run, estimate_cold::trace),
        _ => (replay_scale::run, replay_scale::trace),
    };
    let outcome = if args.traced {
        let mut tracer = Tracer::new(true);
        let mut outcome = trace(&ctx, &mut tracer)?;
        let one = |v: f64| Summary::of(&[v]);
        // Which layers the traced run called into at all: a workload
        // isolates its layers when the others count no span.
        for (name, prefixes) in [
            ("spans.reactor", &["reactor."][..]),
            ("spans.serve", &["serve.", "models."]),
            ("spans.fleet", &["fleet."]),
            ("spans.estimate", &["estimate."]),
            ("spans.workload", &["workload."]),
        ] {
            let count: usize = prefixes.iter().map(|p| tracer.count(p)).sum();
            outcome.metrics.insert(name, one(count as f64));
        }
        let c = &outcome.checker;
        outcome.metrics.insert(
            "harness.error_rate",
            one(c.failed as f64 / c.attempted.max(1) as f64),
        );
        std::fs::create_dir_all(TRACE_DIR)?;
        std::fs::write(
            Path::new(TRACE_DIR).join(format!("{workload}.trace.json")),
            tracer.chrome_trace(),
        )?;
        outcome
    } else {
        run(&ctx)?
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    Ok(outcome)
}

fn new_ledger(args: &RunArgs) -> Ledger {
    Ledger {
        machine: report::machine(pin::Cpus::detect().count()),
        seed: args.seed,
        seconds: args.seconds,
        ..Ledger::default()
    }
}

fn run_single(workload: &str, args: &RunArgs, spec: &Spec) -> io::Result<ExitCode> {
    let outcome = run_one(workload, args)?;
    print!("{}", report::table(&outcome, args.traced, spec));
    if let Some(out) = &args.out {
        let mut ledger = new_ledger(args);
        ledger.record(&outcome, args.traced, spec);
        std::fs::write(out, ledger.to_json())?;
    }
    println!("{}", report::contract_line(&outcome, args.traced, spec));
    Ok(ExitCode::SUCCESS)
}

/// Runs `workload` in a process of its own and reads back what it measured.
fn run_child(workload: &str, traced: bool, args: &RunArgs, scratch: &Path) -> io::Result<Ledger> {
    let out = scratch.join(format!("{workload}.{}.json", u8::from(traced)));
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&out);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "{workload} run ended with {status}"
        )));
    }
    Ledger::from_json(&std::fs::read_to_string(&out)?).map_err(io::Error::other)
}

/// One full set: every workload, untraced (and traced when `layers`).
fn run_set(args: &RunArgs, layers: bool) -> io::Result<Ledger> {
    let scratch = scratch_dir()?;
    let mut ledger = new_ledger(args);
    for workload in WORKLOADS {
        ledger.merge(run_child(workload, false, args, &scratch)?);
        if layers {
            ledger.merge(run_child(workload, true, args, &scratch)?);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(ledger)
}

/// Every named metric present and finite, every output check passed.
fn complete(ledger: &Ledger, spec: &Spec, layers: bool) -> Result<(), String> {
    for workload in WORKLOADS {
        let r = ledger
            .workloads
            .get(workload)
            .ok_or(format!("{workload} is missing"))?;
        if !r.correct || r.failed > 0 {
            return Err(format!(
                "{workload}: {} of {} operations failed",
                r.failed, r.attempted
            ));
        }
        let mut owed = vec![(&spec.end_to_end, &r.end_to_end)];
        if layers {
            owed.push((&spec.per_layer, &r.per_layer));
        }
        for (metrics, section) in owed {
            for m in metrics {
                match section.get(&m.name) {
                    Some(row) if row.value.is_finite() => {}
                    _ => return Err(format!("{workload}: {} is missing or not finite", m.name)),
                }
            }
        }
    }
    Ok(())
}

fn run_all(args: &RunArgs, spec: &Spec) -> io::Result<ExitCode> {
    let ledger = run_set(args, true)?;
    if let Some(out) = &args.out {
        std::fs::write(out, ledger.to_json())?;
    }
    Ok(match complete(&ledger, spec, true) {
        Ok(()) => {
            println!("ledger: all workloads ran, every metric present, outputs correct");
            ExitCode::SUCCESS
        }
        Err(problem) => {
            eprintln!("ledger: FAIL: {problem}");
            ExitCode::FAILURE
        }
    })
}

fn diff(paths: &[String], spec: &Spec) -> io::Result<ExitCode> {
    let [a, b] = paths else {
        return Ok(usage("diff takes two ledger files"));
    };
    let load = |p: &String| {
        Ledger::from_json(&std::fs::read_to_string(p)?)
            .map_err(|e| io::Error::other(format!("{p}: {e}")))
    };
    let (table, any_worse) = report::diff(&load(a)?, &load(b)?, spec);
    print!("{table}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Two untraced sets back to back must agree within each metric's own
/// bound; prints the spread seen beside the bound, which is the evidence
/// for tightening a bound or demoting a metric.
fn selftest(args: &RunArgs, spec: &Spec) -> io::Result<ExitCode> {
    let (first, second) = (run_set(args, false)?, run_set(args, false)?);
    let mut failed = false;
    for set in [&first, &second] {
        if let Err(problem) = complete(set, spec, false) {
            eprintln!("selftest: FAIL: {problem}");
            failed = true;
        }
    }
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>8} {:>7}",
        "workload", "metric", "set 1", "set 2", "change", "spread", "bound"
    );
    for workload in WORKLOADS {
        for m in &spec.end_to_end {
            let row = |l: &Ledger| {
                l.workloads
                    .get(workload)
                    .and_then(|r| r.end_to_end.get(&m.name))
                    .cloned()
            };
            let (Some(a), Some(b)) = (row(&first), row(&second)) else {
                continue;
            };
            // Either order may be the worse one: judge both ways.
            let worst = report::judge(m, &a, &b).0.max(report::judge(m, &b, &a).0);
            let within = worst <= m.bound.unwrap_or(0.0);
            failed |= !within;
            println!(
                "{workload:<14} {:<16} {:>14.4} {:>14.4} {:>+8.1}% {:>7.1}% {:>6.0}%  {}",
                m.name,
                a.value,
                b.value,
                (b.value - a.value) / a.value * 100.0,
                a.summary.spread().max(b.summary.spread()) * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                if within { "ok" } else { "FAIL" },
            );
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let Some((command, rest)) = args.split_first() else {
        return usage("no command");
    };
    let result = match command.as_str() {
        "run" => match parse_run_args(rest, &spec) {
            Ok(parsed) => match &parsed.workload {
                Some(workload) => run_single(workload, &parsed, &spec),
                None => run_all(&parsed, &spec),
            },
            Err(problem) => return usage(&problem),
        },
        "selftest" => {
            // Always the full set; only --seed and --seconds make sense.
            let mut rest = rest.to_vec();
            rest.push("--all".to_string());
            match parse_run_args(&rest, &spec) {
                Ok(parsed) => selftest(&parsed, &spec),
                Err(problem) => return usage(&problem),
            }
        }
        "diff" => diff(rest, &spec),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => return usage(&format!("unknown command {other}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
