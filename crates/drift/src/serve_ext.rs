//! Drift-aware extension of the serve protocol.
//!
//! [`DriftService`] wraps a [`Service`] behind the serve protocol's
//! [`LineHandler`] seam and adds two verbs:
//!
//! - `observe` — ingest one measured transfer time for a served
//!   fingerprint; responds with any drift events it raised and the current
//!   staleness score:
//!   `{"verb":"observe","fingerprint":F,"kind":"p2p","src":0,"dst":1,
//!     "m":32768,"seconds":1.2e-3}` (or `"kind":"gather"` with `"root"`);
//! - `drift-status` — the full staleness report for a fingerprint:
//!   `{"verb":"drift-status","fingerprint":F}`.
//!
//! It answers them through the serve protocol's envelope, from the fields
//! the envelope already scanned; every other verb goes on to the core
//! protocol, so a drift-enabled server is a strict superset of a plain one.

use std::collections::HashMap;
use std::sync::Arc;

use cpm_core::rank::Rank;
use cpm_obs::{Counter, Gauge};
use cpm_serve::protocol::{text, uint};
use cpm_serve::{
    obj, Answer, ClusterRef, Fields, LineHandler, Metrics, Response, Result, ServeError, Service,
    Verb,
};
use parking_lot::Mutex;
use serde_json::Value;

use crate::monitor::{DriftConfig, DriftMonitor, ScoreEntry};
use crate::observe::Observation;

/// A [`LineHandler`] adding drift verbs on top of the core protocol.
///
/// Its counters live in the wrapped service's unified
/// [`cpm_obs::MetricsRegistry`], so one `stats format:text` exposition
/// covers serve and drift alike.
pub struct DriftService {
    service: Arc<Service>,
    cfg: DriftConfig,
    monitors: Mutex<HashMap<String, DriftMonitor>>,
    /// Observations ingested via the `observe` verb.
    observations: Counter,
    /// Drift events raised by those observations.
    events: Counter,
    /// Fingerprints with a live drift monitor.
    monitors_gauge: Gauge,
}

fn bad(msg: impl Into<String>) -> ServeError {
    ServeError::Protocol(msg.into())
}

fn rank_field(raw: Option<&str>, key: &str) -> Result<Rank> {
    u32::try_from(uint(raw, key)?)
        .map(Rank)
        .map_err(|_| bad(format!("field {key:?} is not a valid rank")))
}

fn f64_field(raw: Option<&str>, key: &str) -> Result<f64> {
    raw.and_then(serde_json::raw_number)
        .and_then(|x| x.as_f64().or_else(|| x.as_u64().map(|u| u as f64)))
        .ok_or_else(|| bad(format!("missing or non-numeric field {key:?}")))
}

fn score_json(e: &ScoreEntry) -> Value {
    obj(vec![
        ("score", Value::F64(e.score)),
        ("mean_residual", Value::F64(e.mean_residual)),
        ("samples", Value::U64(e.samples as u64)),
    ])
}

impl DriftService {
    pub fn new(service: Arc<Service>, cfg: DriftConfig) -> Arc<Self> {
        let registry = Arc::clone(service.metrics().registry());
        Arc::new(DriftService {
            service,
            cfg,
            monitors: Mutex::new(HashMap::new()),
            observations: registry.counter(
                "cpm_drift_observations",
                "Measured transfers ingested via the observe verb",
                &[],
            ),
            events: registry.counter(
                "cpm_drift_events",
                "Drift events raised by ingested observations",
                &[],
            ),
            monitors_gauge: registry.gauge(
                "cpm_drift_monitors",
                "Fingerprints with a live drift monitor",
                &[],
            ),
        })
    }

    /// The wrapped core service.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Runs `f` against the (lazily created) monitor for `fp`.
    fn with_monitor<T>(&self, fp: &str, f: impl FnOnce(&mut DriftMonitor) -> T) -> Result<T> {
        let mut monitors = self.monitors.lock();
        if !monitors.contains_key(fp) {
            let ps = self
                .service
                .param_set(&ClusterRef::Fingerprint(fp.to_string()))?;
            monitors.insert(fp.to_string(), DriftMonitor::new(&ps.lmo, self.cfg));
            self.monitors_gauge.set(monitors.len() as u64);
        }
        Ok(f(monitors.get_mut(fp).expect("just inserted")))
    }

    fn handle_observe(&self, f: &Fields, w: &mut Response) -> Result<()> {
        let fp = text(f.fingerprint, "fingerprint")?;
        let m = uint(f.m, "m")?;
        let seconds = f64_field(f.seconds, "seconds")?;
        let obs = match &*text(f.kind, "kind")? {
            "p2p" => Observation::p2p(
                rank_field(f.src, "src")?,
                rank_field(f.dst, "dst")?,
                m,
                seconds,
            ),
            "gather" => Observation::gather(rank_field(f.root, "root")?, m, seconds),
            other => return Err(bad(format!("unknown kind {other:?} (p2p|gather)"))),
        };
        let (event, staleness) =
            self.with_monitor(&fp, |mon| (mon.observe(&obs), mon.staleness().overall))?;
        // Counted after the fallible monitor lookup: a rejected
        // observation (unknown fingerprint, bad kind) is not an ingest.
        self.observations.inc();
        self.events.add(u64::from(event.is_some()));
        let events: Vec<Value> = event
            .iter()
            .map(|e| {
                obj(vec![
                    ("scope", Value::Str(e.describe())),
                    ("residual_mean", Value::F64(e.residual_mean)),
                    ("samples", Value::U64(e.samples as u64)),
                ])
            })
            .collect();
        w.str("fingerprint", &fp);
        w.value("events", &Value::Seq(events));
        w.f64("staleness", staleness);
        Ok(())
    }

    fn handle_status(&self, f: &Fields, w: &mut Response) -> Result<()> {
        let fp = text(f.fingerprint, "fingerprint")?;
        let report = self.with_monitor(&fp, |mon| mon.staleness())?;
        let links: Vec<Value> = report
            .links
            .iter()
            .map(|(pair, e)| {
                obj(vec![
                    ("i", Value::U64(pair.a.idx() as u64)),
                    ("j", Value::U64(pair.b.idx() as u64)),
                    ("score", Value::F64(e.score)),
                    ("mean_residual", Value::F64(e.mean_residual)),
                    ("samples", Value::U64(e.samples as u64)),
                ])
            })
            .collect();
        w.str("fingerprint", &fp);
        w.u64("observations", report.observations);
        w.f64("staleness", report.overall);
        w.value("links", &Value::Seq(links));
        w.value("threshold", &score_json(&report.threshold));
        Ok(())
    }
}

impl LineHandler for DriftService {
    fn answer(&self, verb: Verb, fields: &Fields, w: &mut Response) -> Answer {
        match verb {
            Verb::Observe => self.handle_observe(fields, w).into(),
            Verb::DriftStatus => self.handle_status(fields, w).into(),
            _ => self.service.answer(verb, fields, w),
        }
    }

    fn metrics(&self) -> &Metrics {
        self.service.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_cluster::{ClusterConfig, ClusterSpec};
    use cpm_estimate::EstimateConfig;
    use cpm_serve::service::ServiceConfig;

    fn drift_service(tag: &str) -> (std::path::PathBuf, Arc<DriftService>, String) {
        let dir = std::env::temp_dir().join(format!("cpm-dsvc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServiceConfig {
            est: EstimateConfig {
                reps: 1,
                ..EstimateConfig::with_seed(11)
            },
            ..ServiceConfig::default()
        };
        let service = Arc::new(Service::open(&dir, cfg).unwrap());
        let config = ClusterConfig::ideal(ClusterSpec::homogeneous(4), 11);
        let ps = service
            .param_set(&ClusterRef::Config(Box::new(config)))
            .unwrap();
        let fp = ps.fingerprint.clone();
        (dir, DriftService::new(service, DriftConfig::default()), fp)
    }

    fn ok_flag(v: &Value) -> Option<bool> {
        match v.get("ok") {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    fn parsed(ds: &DriftService, line: &str) -> Value {
        let (text, shutdown) = ds.handle_line(line);
        assert!(!shutdown);
        serde_json::from_str(&text).unwrap()
    }

    #[test]
    fn observe_and_status_round_trip() {
        let (dir, ds, fp) = drift_service("obs");
        let model = ds
            .service()
            .param_set(&ClusterRef::Fingerprint(fp.clone()))
            .unwrap()
            .lmo
            .clone();
        let on_model = model.time(Rank(0), Rank(1), 16384);

        let line = format!(
            "{{\"verb\":\"observe\",\"fingerprint\":\"{fp}\",\"kind\":\"p2p\",\
             \"src\":0,\"dst\":1,\"m\":16384,\"seconds\":{on_model}}}"
        );
        let v = parsed(&ds, &line);
        assert_eq!(ok_flag(&v), Some(true));
        assert!(matches!(v.get("events"), Some(Value::Seq(e)) if e.is_empty()));
        assert!(v.get("staleness").and_then(Value::as_f64).unwrap() < 1.0);

        let status = parsed(
            &ds,
            &format!("{{\"verb\":\"drift-status\",\"fingerprint\":\"{fp}\"}}"),
        );
        assert_eq!(ok_flag(&status), Some(true));
        assert_eq!(status.get("observations").and_then(Value::as_u64), Some(1));
        let Some(Value::Seq(links)) = status.get("links") else {
            panic!("links missing");
        };
        assert_eq!(links.len(), 6, "C(4,2) link tracks");

        // The drift counters land in the wrapped service's unified
        // registry: one text exposition covers serve and drift.
        let text = parsed(&ds, "{\"verb\":\"stats\",\"format\":\"text\"}");
        let text = text.get("text").and_then(Value::as_str).unwrap();
        cpm_obs::validate_exposition(text).expect("valid exposition");
        assert!(text.contains("cpm_drift_observations 1"), "{text}");
        assert!(text.contains("cpm_drift_events 0"), "{text}");
        assert!(text.contains("cpm_drift_monitors 1"), "{text}");
        assert!(text.contains("cpm_serve_estimations"), "{text}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn drift_verbs_echo_the_client_id() {
        let (dir, ds, fp) = drift_service("id");
        let v = parsed(
            &ds,
            &format!("{{\"verb\":\"drift-status\",\"id\":\"d-9\",\"fingerprint\":\"{fp}\"}}"),
        );
        assert_eq!(ok_flag(&v), Some(true));
        assert!(matches!(v.get("id"), Some(Value::Str(s)) if s == "d-9"));
        // Error path keeps the echo too.
        let v = parsed(
            &ds,
            "{\"verb\":\"drift-status\",\"id\":\"d-10\",\"fingerprint\":\"nope\"}",
        );
        assert_eq!(ok_flag(&v), Some(false));
        assert!(matches!(v.get("id"), Some(Value::Str(s)) if s == "d-10"));
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A drift verb carrying a wire trace context (a routed `observe`
    /// does) records its spans under that trace, parented on the sender's
    /// span, like every other verb.
    #[test]
    fn drift_verbs_join_the_wire_trace() {
        let (dir, ds, fp) = drift_service("ctx");
        let recorder = cpm_obs::Recorder::global();
        recorder.set_enabled(true);
        for (trace, verb, rest) in [
            (
                0x0d41_f700_0000_0001_u64,
                "observe",
                ",\"kind\":\"p2p\",\"src\":0,\"dst\":1,\"m\":1024,\"seconds\":1e-3",
            ),
            (0x0d41_f700_0000_0002_u64, "drift-status", ""),
        ] {
            let line = format!(
                "{{\"verb\":\"{verb}\",\"ctx\":{{\"trace\":\"{}\",\"parent\":\"00000000000000a7\"}},\
                 \"fingerprint\":\"{fp}\"{rest}}}",
                cpm_obs::wire::hex16(trace)
            );
            assert_eq!(ok_flag(&parsed(&ds, &line)), Some(true), "{line}");
            let joined = recorder
                .snapshot()
                .into_iter()
                .filter(|r| r.trace_id == trace && r.name == "serve.request")
                .any(|r| r.parent_span == 0xa7 && r.sval == verb);
            assert!(joined, "{verb}: no serve.request span in trace {trace:x}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// `1e999` parses as infinity. Such a measurement carries no
    /// residual: it is answered (it used to panic the worker inside the
    /// residual statistics) and raises nothing.
    #[test]
    fn non_finite_observations_are_answered_not_fatal() {
        let (dir, ds, fp) = drift_service("nonfinite");
        for (seconds, kind) in [
            ("1e999", "\"p2p\",\"src\":0,\"dst\":1"),
            ("1e308", "\"gather\",\"root\":0"),
        ] {
            let (text, _) = ds.handle_line(&format!(
                "{{\"verb\":\"observe\",\"id\":\"d-inf\",\"fingerprint\":\"{fp}\",\"kind\":{kind},\
                 \"m\":16384,\"seconds\":{seconds}}}"
            ));
            assert_eq!(
                text,
                format!(
                    "{{\"ok\":true,\"id\":\"d-inf\",\"fingerprint\":\"{fp}\",\"events\":[],\
                     \"staleness\":0.0}}"
                )
            );
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sustained_deviation_reports_an_event_over_the_wire() {
        let (dir, ds, fp) = drift_service("event");
        let model = ds
            .service()
            .param_set(&ClusterRef::Fingerprint(fp.clone()))
            .unwrap()
            .lmo
            .clone();
        let slow = model.time(Rank(0), Rank(2), 16384) * 1.25;
        let line = format!(
            "{{\"verb\":\"observe\",\"fingerprint\":\"{fp}\",\"kind\":\"p2p\",\
             \"src\":0,\"dst\":2,\"m\":16384,\"seconds\":{slow}}}"
        );
        let mut alarmed = false;
        for _ in 0..20 {
            let v = parsed(&ds, &line);
            if matches!(v.get("events"), Some(Value::Seq(e)) if !e.is_empty()) {
                let Some(Value::Seq(events)) = v.get("events") else {
                    unreachable!()
                };
                let scope = events[0].get("scope").and_then(Value::as_str).unwrap();
                assert_eq!(scope, "link(0,2) up");
                alarmed = true;
                break;
            }
        }
        assert!(alarmed, "25% sustained deviation must alarm within 20 obs");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn malformed_and_foreign_verbs_are_handled() {
        let (dir, ds, fp) = drift_service("err");
        // Unknown fingerprint.
        let v = parsed(&ds, "{\"verb\":\"drift-status\",\"fingerprint\":\"nope\"}");
        assert_eq!(ok_flag(&v), Some(false));
        // Bad kind.
        let v = parsed(
            &ds,
            &format!(
                "{{\"verb\":\"observe\",\"fingerprint\":\"{fp}\",\"kind\":\"x\",\
                 \"m\":1,\"seconds\":1.0}}"
            ),
        );
        assert_eq!(ok_flag(&v), Some(false));
        // Core verbs still work through the wrapper.
        let v = parsed(&ds, "{\"verb\":\"stats\"}");
        assert_eq!(ok_flag(&v), Some(true));
        assert!(v.get("republishes").and_then(Value::as_u64).is_some());
        let _ = std::fs::remove_dir_all(dir);
    }
}
