//! End-to-end observability tests: request ids flow from the wire into
//! responses and flight-recorder spans, the `trace` verb dumps valid
//! Chrome trace-event JSON attributable per client id, and the unified
//! `stats format:text` exposition parses as Prometheus text.
//!
//! These tests share the process-global flight recorder (the `trace`
//! verb snapshots it), so every assertion filters records by the unique
//! client ids the test itself sent.

use std::sync::Arc;

use cpm_cluster::{ClusterConfig, ClusterSpec};
use cpm_estimate::EstimateConfig;
use cpm_serve::{handle_line, Service, ServiceConfig};
use serde_json::Value;

fn open_service(tag: &str) -> (std::path::PathBuf, Arc<Service>) {
    let store = std::env::temp_dir().join(format!("cpm-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let cfg = ServiceConfig {
        est: EstimateConfig {
            reps: 1,
            ..EstimateConfig::with_seed(37)
        },
        ..ServiceConfig::default()
    };
    (store.clone(), Arc::new(Service::open(&store, cfg).unwrap()))
}

fn run(service: &Service, line: &str) -> Value {
    let (text, _) = handle_line(service, line);
    serde_json::from_str(&text).unwrap()
}

fn ok(v: &Value) -> bool {
    matches!(v.get("ok"), Some(Value::Bool(true)))
}

/// Estimates a small cluster and returns its fingerprint.
fn primed_fingerprint(service: &Service, seed: u64) -> String {
    let config = ClusterConfig::ideal(ClusterSpec::homogeneous(4), seed);
    let est = run(
        service,
        &format!(
            "{{\"verb\":\"estimate\",\"config\":{}}}",
            serde_json::to_string(&config).unwrap()
        ),
    );
    assert!(ok(&est), "{est:?}");
    est.get("fingerprint")
        .and_then(Value::as_str)
        .unwrap()
        .to_string()
}

/// All trace events carrying `args.id == id`.
fn events_for_id<'a>(trace: &'a Value, id: &str) -> Vec<&'a Value> {
    let Some(Value::Seq(events)) = trace.get("trace").and_then(|t| t.get("traceEvents")) else {
        panic!("no traceEvents in {trace:?}");
    };
    events
        .iter()
        .filter(|e| {
            e.get("args")
                .and_then(|a| a.get("id"))
                .and_then(Value::as_str)
                == Some(id)
        })
        .collect()
}

fn names(events: &[&Value]) -> Vec<String> {
    events
        .iter()
        .map(|e| e.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn batch_sub_request_ids_are_echoed_and_attributable_in_the_trace() {
    let (store, service) = open_service("batch");
    let fp = primed_fingerprint(&service, 41);
    let trace = cpm_workload::gen::canonical("train", 4, 8192, 1).unwrap();
    let trace_json = serde_json::to_string(&trace.to_value()).unwrap();

    let sub_predict = format!(
        "{{\"verb\":\"predict\",\"id\":\"sub-predict-41\",\"fingerprint\":\"{fp}\",\
         \"model\":\"lmo\",\"collective\":\"scatter\",\"algorithm\":\"binomial\",\"m\":4096}}"
    );
    let sub_plan = format!(
        "{{\"verb\":\"plan\",\"id\":\"sub-plan-41\",\"fingerprint\":\"{fp}\",\
         \"model\":\"lmo\",\"trace\":{trace_json}}}"
    );
    let batch = format!(
        "{{\"verb\":\"batch\",\"id\":\"outer-41\",\"requests\":[{sub_predict},{sub_plan}]}}"
    );
    let resp = run(&service, &batch);
    assert!(ok(&resp), "{resp:?}");
    assert_eq!(
        resp.get("id").and_then(Value::as_str),
        Some("outer-41"),
        "batch response must echo the outer id"
    );
    let Some(Value::Seq(responses)) = resp.get("responses") else {
        panic!("no responses in {resp:?}");
    };
    assert_eq!(
        responses[0].get("id").and_then(Value::as_str),
        Some("sub-predict-41")
    );
    assert_eq!(
        responses[1].get("id").and_then(Value::as_str),
        Some("sub-plan-41")
    );
    assert!(responses.iter().all(ok), "{responses:?}");

    let dump = run(&service, "{\"verb\":\"trace\"}");
    assert!(ok(&dump), "{dump:?}");
    assert!(dump.get("recorded").and_then(Value::as_u64).unwrap() > 0);

    // Every span produced while serving a sub-request carries that
    // sub-request's id, so the dump attributes service/cache/model and
    // planner time to individual batch elements.
    let predict_names = names(&events_for_id(&dump, "sub-predict-41"));
    assert!(
        predict_names.contains(&"serve.subrequest".to_string()),
        "{predict_names:?}"
    );
    assert!(
        predict_names.contains(&"service.predict".to_string()),
        "{predict_names:?}"
    );
    let plan_names = names(&events_for_id(&dump, "sub-plan-41"));
    assert!(
        plan_names.contains(&"service.plan".to_string()),
        "{plan_names:?}"
    );
    assert!(
        plan_names.contains(&"plan.lower".to_string()),
        "cold plan must profile its lowering phase: {plan_names:?}"
    );
    // The outer batch request keeps its own id.
    let outer_names = names(&events_for_id(&dump, "outer-41"));
    assert!(
        outer_names.contains(&"serve.request".to_string()),
        "{outer_names:?}"
    );
    let _ = std::fs::remove_dir_all(store);
}

#[test]
fn error_responses_echo_the_client_id() {
    let (store, service) = open_service("errid");
    // Unknown verb, integer id.
    let v = run(&service, "{\"verb\":\"dance\",\"id\":77}");
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(v.get("id").and_then(Value::as_u64), Some(77));
    // Invalid request shape, string id.
    let v = run(&service, "{\"verb\":\"predict\",\"id\":\"e-1\"}");
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(v.get("id").and_then(Value::as_str), Some("e-1"));
    // Unparseable line: no id is recoverable, but the error still comes.
    let v = run(&service, "not json at all");
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    assert!(v.get("id").is_none());
    let _ = std::fs::remove_dir_all(store);
}

#[test]
fn stats_text_is_a_valid_prometheus_exposition_covering_all_subsystems() {
    let (store, service) = open_service("expo");
    let fp = primed_fingerprint(&service, 43);
    let predict = format!(
        "{{\"verb\":\"predict\",\"fingerprint\":\"{fp}\",\"model\":\"lmo\",\
         \"collective\":\"scatter\",\"algorithm\":\"binomial\",\"m\":1024}}"
    );
    assert!(ok(&run(&service, &predict)));
    assert!(ok(&run(&service, &predict))); // second predict: a cache hit
    let trace = cpm_workload::gen::canonical("train", 4, 8192, 1).unwrap();
    let plan = format!(
        "{{\"verb\":\"plan\",\"fingerprint\":\"{fp}\",\"model\":\"lmo\",\"trace\":{}}}",
        serde_json::to_string(&trace.to_value()).unwrap()
    );
    assert!(ok(&run(&service, &plan)));

    let resp = run(&service, "{\"verb\":\"stats\",\"format\":\"text\"}");
    assert!(ok(&resp), "{resp:?}");
    let text = resp.get("text").and_then(Value::as_str).unwrap();
    let samples = cpm_obs::validate_exposition(text)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    assert!(samples > 0);
    // One document covers the serve counters, the per-verb latency
    // histograms and the workload planner's phase histograms.
    for needle in [
        "cpm_serve_cache_hits 1",
        "cpm_serve_cache_misses 1",
        "cpm_serve_estimations 1",
        "cpm_serve_plan_cache_misses 1",
        "cpm_serve_stored_param_sets 1",
        "cpm_serve_latency_ns_bucket{verb=\"predict\",le=\"",
        // Engine-level metrics are registered up front (zero until a
        // real server drives them; see tests/reactor.rs for non-zero).
        "cpm_serve_connections_active 0",
        "cpm_serve_frames_total{format=\"json\"} 0",
        "cpm_serve_frames_total{format=\"binary\"} 0",
        "cpm_plan_phase_ns_bucket{phase=\"lower\",le=\"",
        "cpm_plan_phase_ns_count{phase=\"analyze\"} 1",
        // The flight-recorder drop counter always renders (counters are
        // never skipped), and the plan above recorded its critical path.
        "cpm_obs_records_dropped_total",
        "cpm_plan_critical_ns_count 1",
        "cpm_plan_critical_ops_count 1",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    let _ = std::fs::remove_dir_all(store);
}

#[test]
fn request_spans_cover_most_of_the_recorded_verb_latency() {
    let (store, service) = open_service("cover");
    let fp = primed_fingerprint(&service, 47);
    let trace = cpm_workload::gen::canonical("train", 4, 8192, 2).unwrap();
    let plan = format!(
        "{{\"verb\":\"plan\",\"id\":\"cover-47\",\"fingerprint\":\"{fp}\",\
         \"model\":\"lmo\",\"trace\":{}}}",
        serde_json::to_string(&trace.to_value()).unwrap()
    );
    assert!(ok(&run(&service, &plan)));

    let stats = run(&service, "{\"verb\":\"stats\"}");
    let plan_latency = stats
        .get("latency")
        .and_then(|l| l.get("plan"))
        .expect("plan latency");
    assert_eq!(plan_latency.get("count").and_then(Value::as_u64), Some(1));
    let mean_ns = plan_latency.get("mean_ns").and_then(Value::as_f64).unwrap();

    let dump = run(&service, "{\"verb\":\"trace\"}");
    let events = events_for_id(&dump, "cover-47");
    let ts = |ph: &str| -> f64 {
        events
            .iter()
            .find(|e| {
                e.get("name").and_then(Value::as_str) == Some("serve.request")
                    && e.get("ph").and_then(Value::as_str) == Some(ph)
            })
            .unwrap_or_else(|| panic!("no serve.request {ph} event: {events:?}"))
            .get("ts")
            .and_then(Value::as_f64)
            .unwrap()
    };
    let span_ns = (ts("E") - ts("B")) * 1e3;
    // The serve.request span must account for nearly all of the latency
    // the histogram recorded for this (sole) plan request; only the raw
    // JSON decode of the line sits outside it.
    assert!(
        span_ns > 0.8 * mean_ns,
        "serve.request span {span_ns:.0}ns covers under 80% of the \
         recorded plan latency {mean_ns:.0}ns"
    );
    let _ = std::fs::remove_dir_all(store);
}

/// JSON cannot carry a non-finite number, so an answer holding one is
/// withdrawn for `"serialization failure"` — which used to forget the
/// client id, leaving a pipelining client unable to match the response.
#[test]
fn serialization_failure_fallback_echoes_the_client_id() {
    use cpm_serve::LineHandler;

    let (store, service) = open_service("nonfinite");
    let fp = primed_fingerprint(&service, 47);
    // Poison the stored set: the first Hockney `α` becomes 1e999, which the
    // parser reads as infinity. A fresh service over the same store loads
    // it, and every Hockney prediction from rank 0 through that node is
    // infinite. (LMO runs on its machine, which clamps, and stays finite.)
    let path = service.registry().path_for(&fp);
    let mut text = std::fs::read_to_string(&path).unwrap();
    let alpha = text.find("\"hockney\"").expect("hockney in the store");
    let start = alpha + text[alpha..].find("\"data\": [").unwrap() + "\"data\": [".len();
    let end = start + text[start..].find(',').unwrap();
    text.replace_range(start..end, "1e999");
    std::fs::write(&path, text).unwrap();
    drop(service);
    let cfg = ServiceConfig::default();
    let handler: Arc<dyn LineHandler> = Arc::new(Service::open(&store, cfg).unwrap());

    let predict = |id: &str| {
        format!(
            "{{\"verb\":\"predict\",\"id\":{id},\"fingerprint\":\"{fp}\",\"model\":\"hockney\",\
             \"collective\":\"scatter\",\"algorithm\":\"linear\",\"m\":1024}}"
        )
    };
    let (text, shutdown) = handler.handle_line(&predict("\"nf-1\""));
    assert!(!shutdown);
    assert_eq!(
        text,
        "{\"ok\":false,\"id\":\"nf-1\",\"error\":\"serialization failure\"}"
    );
    let (text, _) = handler.handle_line(&predict("-12"));
    assert_eq!(
        text,
        "{\"ok\":false,\"id\":-12,\"error\":\"serialization failure\"}"
    );
    // One poisoned element withdraws the whole batch line — with its id.
    let batch = format!(
        "{{\"verb\":\"batch\",\"id\":\"nf-b\",\"requests\":[{},{}]}}",
        predict("1").replace("\"hockney\"", "\"lmo\""),
        predict("2")
    );
    let (text, _) = handler.handle_line(&batch);
    assert_eq!(
        text,
        "{\"ok\":false,\"id\":\"nf-b\",\"error\":\"serialization failure\"}"
    );
    // The other model families never touch the poisoned parameter.
    let (text, _) = handler.handle_line(&predict("3").replace("\"hockney\"", "\"lmo\""));
    assert!(
        text.starts_with("{\"ok\":true,\"id\":3,\"seconds\":"),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(store);
}
