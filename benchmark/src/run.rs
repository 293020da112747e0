//! The shape every workload run shares: repeated set-up, a discarded
//! warm-up segment, fixed-work segments until the time is up, medians.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

use crate::pin::Cpus;
use crate::stats::Summary;
use crate::wire::Checker;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What one invocation was asked to do.
pub struct Ctx {
    pub seed: u64,
    /// How long the measured segments run, seconds.
    pub seconds: f64,
    /// One segment of about a tenth of the work: a check that every metric
    /// is produced, not a measurement.
    pub smoke: bool,
    /// Directory for registries and other files the program writes.
    pub scratch: PathBuf,
    pub cpus: Cpus,
}

/// Samples per metric name, one per segment (or per set-up).
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn extend(&mut self, name: &'static str, values: &[f64]) {
        self.0.entry(name).or_default().extend_from_slice(values);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn summaries(&self) -> BTreeMap<&'static str, Summary> {
        self.0.iter().map(|(k, v)| (*k, Summary::of(v))).collect()
    }
}

/// The result of one workload run.
pub struct Outcome {
    pub workload: &'static str,
    pub checker: Checker,
    /// `false` when an exactness check (not an operation) failed.
    pub exact: bool,
    pub segments: usize,
    pub metrics: BTreeMap<&'static str, Summary>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.exact && self.checker.failed == 0
    }
}

impl Ctx {
    /// Scales a per-segment amount of work down for `--smoke`.
    pub fn work(&self, full: usize) -> usize {
        if self.smoke {
            (full / 10).max(1)
        } else {
            full
        }
    }

    /// A fresh directory under the scratch area.
    pub fn dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }

    /// Sets the system up several times, keeping the last; every earlier
    /// one is dropped (torn down) before the next begins. Returns the kept
    /// state and each set-up's wall time in seconds.
    pub fn setups<S>(&self, mut setup: impl FnMut() -> io::Result<S>) -> io::Result<(S, Vec<f64>)> {
        let rounds = if self.smoke { 1 } else { SETUPS };
        let mut times = Vec::with_capacity(rounds);
        let mut state = None;
        for _ in 0..rounds {
            drop(state.take());
            let t0 = Instant::now();
            state = Some(setup()?);
            times.push(t0.elapsed().as_secs_f64());
        }
        Ok((state.expect("at least one set-up"), times))
    }

    /// Runs one discarded warm-up segment, then segments until
    /// [`Ctx::seconds`] have passed (exactly one under `--smoke`). A segment
    /// pushes one sample per metric it measures.
    pub fn segments(
        &self,
        mut segment: impl FnMut(&mut Samples) -> io::Result<()>,
    ) -> io::Result<(Samples, usize)> {
        if !self.smoke {
            segment(&mut Samples::default())?;
        }
        let mut samples = Samples::default();
        let mut done = 0;
        let t0 = Instant::now();
        loop {
            segment(&mut samples)?;
            done += 1;
            if self.smoke || t0.elapsed().as_secs_f64() >= self.seconds {
                return Ok((samples, done));
            }
        }
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
