//! `estimate_cold`: time to first prediction on clusters never seen before.
//! Estimation, the thread-backed ranks, the simulator and the statistics do
//! all the work; the serving path does none.

use std::io;
use std::path::PathBuf;
use std::time::Instant;

use cpm_cluster::{ClusterConfig, ClusterSpec};
use cpm_estimate::lmo::estimate_lmo_full;
use cpm_estimate::{estimate_hockney_het, estimate_loggp, estimate_plogp, EstimateConfig};
use cpm_netsim::SimCluster;
use cpm_serve::service::compute;
use cpm_serve::{
    Algorithm, ClusterRef, Collective, ModelKind, ParamSet, Query, Registry, Service, ServiceConfig,
};

use crate::run::{peak_rss_mb, Ctx, Outcome, Samples};
use crate::span::Tracer;
use crate::stats::median;
use crate::wire::Checker;

/// Recovered LMO parameters on a noise-free cluster are right to rounding;
/// a median relative error above this means the estimator changed.
const PARAM_REL_ERR_MAX: f64 = 1e-6;

const QUERY: Query = Query {
    model: ModelKind::Lmo,
    collective: Collective::Scatter,
    algorithm: Algorithm::Binomial,
    m: 64 * 1024,
    root: 0,
};

fn estimate_config(ctx: &Ctx) -> EstimateConfig {
    EstimateConfig {
        reps: 3,
        ..EstimateConfig::with_seed(ctx.seed)
    }
}

/// The three clusters of one segment: the paper's platform with its noise
/// and irregularities, the same 16 nodes idealised, and 8 identical nodes.
fn configs(s: u64) -> [ClusterConfig; 3] {
    [
        ClusterConfig::paper_lam(s),
        ClusterConfig::ideal(ClusterSpec::paper_cluster(), s),
        ClusterConfig::ideal(ClusterSpec::homogeneous(8), s),
    ]
}

struct System {
    service: Service,
    dir: PathBuf,
}

impl Drop for System {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Seeds for cluster ground truths; every config of a run gets its own, so
/// every predict is cold.
struct Seeds(u64);

impl Seeds {
    fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

/// One cold predict, checked against the oracle; returns its wall time in
/// seconds and the parameter set the service now holds.
fn cold_predict(
    service: &Service,
    config: &ClusterConfig,
    checker: &mut Checker,
) -> io::Result<(f64, std::sync::Arc<ParamSet>)> {
    let cluster = ClusterRef::Config(Box::new(config.clone()));
    let t0 = Instant::now();
    let served = service.predict(&cluster, &QUERY);
    let wall = t0.elapsed().as_secs_f64();
    let ps = service.param_set(&cluster).map_err(io::Error::other)?;
    checker.record(match (served, compute(&ps, &QUERY)) {
        (Ok(p), Ok(want)) if !p.cached && p.seconds.to_bits() == want.to_bits() => Ok(()),
        (served, _) => Err(format!(
            "cold predict: {served:?} is not the oracle's answer"
        )),
    });
    Ok((wall, ps))
}

fn setup(ctx: &Ctx, seeds: &mut Seeds, checker: &mut Checker) -> io::Result<System> {
    let dir = ctx.dir("estimate_cold");
    let cfg = ServiceConfig {
        est: estimate_config(ctx),
        ..ServiceConfig::default()
    };
    let service = Service::open(&dir, cfg).map_err(io::Error::other)?;
    // The first estimation of a process also pays for its first thread
    // spawns and allocator growth; that belongs to set-up.
    cold_predict(&service, &configs(seeds.next())[2], checker)?;
    Ok(System { service, dir })
}

/// Relative errors of the recovered LMO parameters against the ground truth.
fn param_rel_errs(ps: &ParamSet, config: &ClusterConfig, into: &mut Vec<f64>) {
    let truth = config.ground_truth();
    let rel = |got: f64, want: f64| ((got - want) / want).abs();
    into.extend(ps.lmo.c.iter().zip(&truth.c).map(|(g, w)| rel(*g, *w)));
    into.extend(ps.lmo.t.iter().zip(&truth.t).map(|(g, w)| rel(*g, *w)));
    into.extend(
        ps.lmo
            .l
            .iter()
            .zip(truth.l.iter())
            .map(|((_, g), (_, w))| rel(*g, *w)),
    );
    into.extend(
        ps.lmo
            .beta
            .iter()
            .zip(truth.beta.iter())
            .map(|((_, g), (_, w))| rel(*g, *w)),
    );
}

/// The three cold predicts of one segment. Returns each one's wall time in
/// seconds, the simulation runs they took, and the parameter errors on the
/// two ideal clusters.
fn segment(
    service: &Service,
    seeds: &mut Seeds,
    checker: &mut Checker,
) -> io::Result<([f64; 3], usize, Vec<f64>)> {
    let configs = configs(seeds.next());
    let (mut walls, mut runs, mut errs) = ([0.0; 3], 0, Vec::new());
    for (i, config) in configs.iter().enumerate() {
        let (wall, ps) = cold_predict(service, config, checker)?;
        walls[i] = wall;
        runs += ps.runs;
        if i > 0 {
            param_rel_errs(&ps, config, &mut errs);
        }
    }
    Ok((walls, runs, errs))
}

fn check_params(errs: &[f64], checker: &mut Checker) -> (f64, bool) {
    let err = median(errs);
    let exact = err <= PARAM_REL_ERR_MAX;
    if !exact {
        checker.reasons.push(format!(
            "median relative error of the recovered LMO parameters is {err:e}, \
             above {PARAM_REL_ERR_MAX:e}"
        ));
    }
    (err, exact)
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let mut checker = Checker::default();
    let mut seeds = Seeds(ctx.seed * 1000);
    let (sys, setup_times) = ctx.setups(|| setup(ctx, &mut seeds, &mut checker))?;
    let mut errs = Vec::new();
    let (mut samples, segments) = ctx.segments(|samples| {
        let (walls, runs, seg_errs) = segment(&sys.service, &mut seeds, &mut checker)?;
        let total: f64 = walls.iter().sum();
        // The small cluster's wait is mostly per-run overhead, the paper's
        // platform's mostly simulation; a change can move one and not the other.
        samples.push("latency_p50_us", walls[2] * 1e6);
        samples.push("heavy_op_ms", walls[0] * 1e3);
        samples.push(
            "latency_tail_us",
            walls.iter().fold(0.0, |a: f64, b| a.max(*b)) * 1e6,
        );
        samples.push("throughput_ops", runs as f64 / total);
        samples.push("harness.cold_predict_ms", total * 1e3);
        errs.extend(seg_errs);
        Ok(())
    })?;
    samples.extend("setup_s", &setup_times);
    samples.push("peak_rss_mb", peak_rss_mb());
    let (err, exact) = check_params(&errs, &mut checker);
    samples.push("harness.param_rel_err", err);
    Ok(Outcome {
        workload: "estimate_cold",
        checker,
        exact,
        segments,
        metrics: samples.summaries(),
    })
}

pub fn trace(ctx: &Ctx, tracer: &mut Tracer) -> io::Result<Outcome> {
    let mut checker = Checker::default();
    let mut seeds = Seeds(ctx.seed * 1000);
    let sys = setup(ctx, &mut seeds, &mut checker)?;
    let est = estimate_config(ctx);
    let mut s = Samples::default();

    // The segment's three cold predicts, then the four estimators each of
    // them ran, called directly on the same clusters.
    let configs = configs(seeds.next());
    let registry = Registry::open(ctx.dir("estimate_cold_registry")).map_err(io::Error::other)?;
    let (mut runs, mut virtual_s, mut errs) = (0, 0.0, Vec::new());
    let io_err = |e: cpm_core::error::CpmError| io::Error::other(e.to_string());
    for (i, config) in configs.iter().enumerate() {
        let id = i as u64;
        let span = tracer.enter("serve.predict_cold", id);
        let (_, ps) = cold_predict(&sys.service, config, &mut checker)?;
        tracer.exit(span);
        if i > 0 {
            param_rel_errs(&ps, config, &mut errs);
        }

        let span = tracer.enter("serve.fingerprint", id);
        let fp = cpm_serve::fingerprint(config);
        tracer.exit(span);
        let sim = SimCluster::from_config(config);
        let span = tracer.enter("estimate.lmo", id);
        let lmo = estimate_lmo_full(&sim, &est).map_err(io_err)?;
        tracer.exit(span);
        let span = tracer.enter("estimate.hockney", id);
        let hockney = estimate_hockney_het(&sim, &est).map_err(io_err)?;
        tracer.exit(span);
        let span = tracer.enter("estimate.loggp", id);
        let loggp = estimate_loggp(&sim, &est).map_err(io_err)?;
        tracer.exit(span);
        let span = tracer.enter("estimate.plogp", id);
        let plogp = estimate_plogp(&sim, &est).map_err(io_err)?;
        tracer.exit(span);
        let these = lmo.runs + hockney.runs + loggp.runs + plogp.runs;
        runs += these;
        virtual_s +=
            lmo.virtual_cost + hockney.virtual_cost + loggp.virtual_cost + plogp.virtual_cost;
        // Estimation is seeded: run again outside the service, it must take
        // exactly the runs the service's own estimation took.
        checker.record(if these == ps.runs {
            Ok(())
        } else {
            Err(format!(
                "cluster {i}: estimators ran a different number of experiments"
            ))
        });

        let span = tracer.enter("serve.registry_publish", id);
        registry.publish((*ps).clone()).map_err(io::Error::other)?;
        tracer.exit(span);
        // What a restarted service does on first sight of the fingerprint.
        let span = tracer.enter("serve.registry_load", id);
        let loaded = Registry::open(ctx.scratch.join("estimate_cold_registry"))
            .and_then(|reopened| reopened.load(&fp))
            .map_err(io::Error::other)?;
        tracer.exit(span);
        checker.record(match loaded {
            Some(l) if l.fingerprint == ps.fingerprint => Ok(()),
            _ => Err(format!("cluster {i}: the published set did not load back")),
        });
    }
    let sum_ms = |name: &str| tracer.durations(name).iter().sum::<f64>() / 1e6;
    let cold_ms = sum_ms("serve.predict_cold");
    let parts = [
        "estimate.lmo",
        "estimate.hockney",
        "estimate.loggp",
        "estimate.plogp",
    ];
    let parts_ms: f64 = parts.iter().map(|p| sum_ms(p)).sum();
    s.push("harness.cold_predict_ms", cold_ms);
    s.push(
        "harness.latency_p50_us",
        tracer.durations("serve.predict_cold")[2] / 1e3,
    );
    s.push("estimate.lmo_ms", sum_ms("estimate.lmo"));
    s.push("estimate.hockney_ms", sum_ms("estimate.hockney"));
    s.push("estimate.loggp_ms", sum_ms("estimate.loggp"));
    s.push("estimate.plogp_ms", sum_ms("estimate.plogp"));
    s.push("estimate.runs", runs as f64);
    s.push("estimate.virtual_s", virtual_s);
    s.push(
        "serve.fingerprint_us",
        tracer.median_ns("serve.fingerprint") / 1e3,
    );
    s.push(
        "serve.registry_publish_us",
        tracer.median_ns("serve.registry_publish") / 1e3,
    );
    s.push(
        "serve.registry_load_us",
        tracer.median_ns("serve.registry_load") / 1e3,
    );

    // The scheduler sensitivity that made pinning necessary: the 16-node
    // ideal estimation once more with its threads free to move.
    let pinned_ms: f64 = parts.iter().map(|p| tracer.durations(p)[1] / 1e6).sum();
    ctx.cpus.unpin();
    let t0 = Instant::now();
    ParamSet::estimate(&configs[1], &est).map_err(io::Error::other)?;
    let unpinned_ms = t0.elapsed().as_secs_f64() * 1e3;
    ctx.cpus.pin_all();
    s.push("estimate.unpinned_over_pinned", unpinned_ms / pinned_ms);
    crate::micro::estimate_rows(ctx, &mut s);

    let (err, exact) = check_params(&errs, &mut checker);
    s.push("harness.param_rel_err", err);
    // The four estimators are what a cold predict is made of.
    if (parts_ms - cold_ms).abs() > 0.05 * cold_ms {
        eprintln!(
            "note: the four estimators took {parts_ms:.1} ms, not within 5% of the \
             {cold_ms:.1} ms of the cold predicts"
        );
    }
    let _ = std::fs::remove_dir_all(ctx.scratch.join("estimate_cold_registry"));
    Ok(Outcome {
        workload: "estimate_cold",
        checker,
        exact,
        segments: 1,
        metrics: s.summaries(),
    })
}
