//! `BENCHMARK.json` as the binary sees it: the file is compiled in, so the
//! names, units, directions and bounds printed here cannot drift from it.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub const WORKLOADS: [&str; 4] = ["serve_hot", "fleet_mix", "estimate_cold", "replay_scale"];

/// End-to-end metrics, reported by every workload (`--trace 0`).
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "latency_p50_us",
    "latency_tail_us",
    "throughput_ops",
    "heavy_op_ms",
    "peak_rss_mb",
];

/// Per-layer metrics (`--trace 1`); a layer a workload leaves idle reads 0.
pub const PER_LAYER: [&str; 76] = [
    "harness.latency_p50_us",
    "harness.latency_p99_us",
    "harness.trace_overhead_pct",
    "harness.span_overhead_ns",
    "harness.error_rate",
    "harness.param_rel_err",
    "harness.plan_rel_err_max",
    "harness.plan_rel_err_hier",
    "harness.write_p50_ms",
    "harness.cold_predict_ms",
    "harness.plan_pass_ms",
    "harness.replay_pass_ms",
    "reactor.decode_ns.jsonl",
    "reactor.decode_ns.binary",
    "reactor.encode_ns",
    "reactor.frames",
    "reactor.transport_us",
    "serve.handle_line_ns.predict",
    "serve.handle_line_ns.select",
    "serve.handle_line_ns.plan",
    "serve.parse_ns",
    "serve.service_hit_ns",
    "serve.service_miss_ns",
    "serve.respond_self_ns",
    "serve.cache_hit_ratio",
    "serve.plan_hit_ratio",
    "serve.invalidate_dropped",
    "serve.registry_publish_us",
    "serve.registry_load_us",
    "serve.fingerprint_us",
    "models.compute_ns",
    "fleet.direct_p50_us",
    "fleet.relay_overhead_us",
    "fleet.forward_ns_p50",
    "fleet.push_us_p50",
    "fleet.batch_split_us",
    "fleet.ring_owners_ns",
    "fleet.retries",
    "fleet.failures",
    "fleet.stale_reads",
    "estimate.lmo_ms",
    "estimate.hockney_ms",
    "estimate.loggp_ms",
    "estimate.plogp_ms",
    "estimate.runs",
    "estimate.virtual_s",
    "estimate.unpinned_over_pinned",
    "vmpi.run_overhead_us",
    "vmpi.program_events_per_s",
    "netsim.events_per_s",
    "netsim.msgs",
    "des.schedule_pop_ns",
    "des.events",
    "des.pool_slots",
    "des.share_pct",
    "workload.gen_ms",
    "workload.choose_ms",
    "workload.lower_ms",
    "workload.plan_ms.train1000",
    "workload.plan_ms.halo1024",
    "workload.plan_ms.pipeline512",
    "workload.plan_ms.moe128",
    "workload.plan_ms.train_hier8x8",
    "workload.replay_ms.train1000",
    "workload.replay_ms.halo1024",
    "workload.replay_ms.pipeline512",
    "workload.replay_ms.moe128",
    "workload.replay_ms.train_hier8x8",
    "workload.plan_over_replay",
    "workload.hash_us",
    "obs.record_ns",
    "spans.reactor",
    "spans.serve",
    "spans.fleet",
    "spans.estimate",
    "spans.workload",
];

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by; end-to-end only.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Value, key: &str) -> Vec<MetricSpec> {
    let Some(Value::Seq(items)) = doc.get(key) else {
        panic!("BENCHMARK.json lacks {key:?}");
    };
    let text = |m: &Value, k: &str| {
        m.get(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: a {key} metric lacks {k:?}"))
            .to_string()
    };
    items
        .iter()
        .map(|m| MetricSpec {
            name: text(m, "name"),
            unit: text(m, "unit"),
            higher_is_better: text(m, "better") == "higher",
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

impl Spec {
    /// Parses the compiled-in `BENCHMARK.json`.
    pub fn load() -> Spec {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let Some(Value::Seq(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json lacks \"workloads\"");
        };
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_u64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: workloads
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Value::as_str)
                        .expect("BENCHMARK.json: workload name")
                        .to_string()
                })
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    }

    /// Looks a metric up in either list.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden: the names `BENCHMARK.json` promises are the names the binary
    /// prints, in the same order.
    #[test]
    fn benchmark_json_names_equal_the_printed_names() {
        let spec = Spec::load();
        let names = |ms: &[MetricSpec]| ms.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        assert_eq!(spec.workloads, WORKLOADS);
        assert_eq!(names(&spec.end_to_end), END_TO_END);
        assert_eq!(names(&spec.per_layer), PER_LAYER);
    }

    #[test]
    fn benchmark_json_keeps_the_contract() {
        let spec = Spec::load();
        assert!((1..=60).contains(&spec.run_seconds));
        let setup = spec.metric("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let largest = spec
            .end_to_end
            .iter()
            .map(|m| m.bound.expect("end-to-end metrics are bounded"))
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        assert!(largest <= 0.25);
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
