//! `serve_hot`: one reactor-engine server over loopback, a working set far
//! below the prediction cache, so the reactor, the serve protocol and the
//! cache lookup do all the work and estimation does none after set-up.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use cpm_estimate::EstimateConfig;
use cpm_reactor::{encode_request, encode_response, Decoder, Framing, Msg};
use cpm_serve::{
    handle_line, parse_request, ClusterRef, Engine, Request, Server, ServerHandle, Service,
    ServiceConfig,
};

use crate::gen::{self, Mix, Req, Stream};
use crate::run::{peak_rss_mb, Ctx, Outcome, Samples};
use crate::serving;
use crate::span::Tracer;
use crate::stats::median;
use crate::wire::{Checker, Client, Tenants};

const TENANTS: usize = 4;
/// Message sizes per tenant: 8 keys each, so 4 x 256 hot keys in all.
const SIZES: usize = 32;
/// Round trips per segment with one request in flight.
const DEPTH1_PER_SEGMENT: usize = 10_000;
/// Requests per segment pipelined [`serving::DEPTH`] deep.
const PIPELINED_PER_SEGMENT: usize = 50_000;
/// Requests replayed through the layers in the traced run.
const REPLAYED: usize = 4_000;

/// 75 % predict, 20 % select, 5 % plan; every one a cache hit once primed.
const MIX: Mix = Mix {
    select: 200,
    plan: 50,
    miss: 0,
    batch: 0,
};

/// The `plan` request's trace: a 12-layer training step on the tenants' 4
/// ranks, the largest request and response of the mix.
fn plan_trace() -> cpm_workload::Trace {
    cpm_workload::gen::training_step(4, 32 * 1024, 3, 4e-9, 1e-3)
}

struct System {
    client: Client,
    tenants: Tenants,
    service: Arc<Service>,
    _server: ServerHandle,
    dir: PathBuf,
}

impl Drop for System {
    fn drop(&mut self) {
        // The server handle shuts the reactor down when it drops, after this.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn setup(ctx: &Ctx, checker: &mut Checker) -> io::Result<System> {
    let dir = ctx.dir("serve_hot");
    let cfg = ServiceConfig {
        est: EstimateConfig {
            reps: 1,
            ..EstimateConfig::with_seed(ctx.seed)
        },
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::open(&dir, cfg).map_err(io::Error::other)?);
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .map_err(io::Error::other)?
        .engine(Engine::Reactor)
        .workers(1)
        .spawn();
    let fps = serving::estimate_over_wire(server.addr(), &serving::tenant_configs(TENANTS))?;
    let params = fps
        .iter()
        .map(|fp| service.param_set(&ClusterRef::Fingerprint(fp.clone())))
        .collect::<Result<Vec<_>, _>>()
        .map_err(io::Error::other)?;
    let tenants = serving::tenants(ctx.seed, fps, params, SIZES, &plan_trace());
    let mut client = Client::connect(server.addr())?;
    serving::prime(&mut client, &tenants, checker)?;
    Ok(System {
        client,
        tenants,
        service,
        _server: server,
        dir,
    })
}

fn stream(ctx: &Ctx, tenants: &Tenants) -> Stream {
    Stream::new(ctx.seed, tenants.keys.clone(), MIX, true)
}

/// Hit ratios of the prediction and plan caches since `before`.
fn hit_ratios(service: &Service, before: cpm_serve::MetricsSnapshot) -> (f64, f64) {
    let now = service.metrics().snapshot();
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    (
        ratio(now.hits - before.hits, now.misses - before.misses),
        ratio(
            now.plan_hits - before.plan_hits,
            now.plan_misses - before.plan_misses,
        ),
    )
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let mut checker = Checker::default();
    let (mut sys, setup_times) = ctx.setups(|| setup(ctx, &mut checker))?;
    let mut stream = stream(ctx, &sys.tenants);
    let before = sys.service.metrics().snapshot();
    let mut off = Tracer::new(false);
    let (mut samples, segments) = ctx.segments(|samples| {
        let reqs = stream.take(ctx.work(DEPTH1_PER_SEGMENT));
        let d1 = serving::depth1(&mut sys.client, &sys.tenants, &reqs, &mut checker, &mut off)?;
        let reqs = stream.take(ctx.work(PIPELINED_PER_SEGMENT));
        let wall = serving::pipelined(&mut sys.client, &sys.tenants, &reqs, &mut checker)?;
        samples.push("latency_p50_us", d1.p50_us());
        samples.push("latency_tail_us", d1.p99_us());
        samples.push("throughput_ops", reqs.len() as f64 / wall);
        samples.push("heavy_op_ms", d1.heavy_p50_ms());
        Ok(())
    })?;
    samples.extend("setup_s", &setup_times);
    samples.push("peak_rss_mb", peak_rss_mb());
    // The workload's premise: after set-up nothing is estimated and the
    // caches answer everything.
    let (cache, plans) = hit_ratios(&sys.service, before);
    let estimated = sys.service.metrics().snapshot().estimations - before.estimations;
    let exact = cache >= 0.99 && plans >= 0.99 && estimated == 0;
    if !exact {
        checker.reasons.push(format!(
            "serve_hot must stay hot: cache hit ratio {cache}, plan hit ratio {plans}, \
             {estimated} estimations after set-up"
        ));
    }
    Ok(Outcome {
        workload: "serve_hot",
        checker,
        exact,
        segments,
        metrics: samples.summaries(),
    })
}

/// One request of the layer replay, framed as it arrives on its connection.
struct Replayed {
    req: Req,
    framing: Framing,
    frame: Vec<u8>,
}

/// Replays generated requests straight through each layer's public entry
/// points on this thread, a span around every call.
fn replay_layers(
    sys: &System,
    stream: &mut Stream,
    n: usize,
    tracer: &mut Tracer,
    checker: &mut Checker,
) {
    let mut payload = String::new();
    let inputs: Vec<Replayed> = (0..n)
        .map(|i| {
            let req = stream.next_req();
            gen::render(
                &mut payload,
                &req,
                i as u64,
                &sys.tenants.fps,
                &sys.tenants.plan_tail,
            );
            let framing = [Framing::JsonLines, Framing::Binary][i % 2];
            let mut frame = Vec::new();
            encode_request(framing, &payload, &mut frame);
            Replayed {
                req,
                framing,
                frame,
            }
        })
        .collect();
    let mut decoders = [
        Decoder::with_framing(Framing::JsonLines, cpm_reactor::frame::MAX_PAYLOAD),
        Decoder::with_framing(Framing::Binary, cpm_reactor::frame::MAX_PAYLOAD),
    ];
    let mut out = Vec::with_capacity(64 * 1024);
    for (i, input) in inputs.iter().enumerate() {
        let id = i as u64;
        let request = tracer.enter("request", id);
        let decode = tracer.enter(
            match input.framing {
                Framing::JsonLines => "reactor.decode.jsonl",
                Framing::Binary => "reactor.decode.binary",
            },
            id,
        );
        let dec = &mut decoders[i % 2];
        dec.push(&input.frame);
        let msg = dec.next_msg();
        tracer.exit(decode);
        let Some(Msg::Payload(line)) = msg else {
            checker.record(Err(format!("frame {id} did not decode: {msg:?}")));
            tracer.exit(request);
            continue;
        };
        let handle = tracer.enter(
            match input.req {
                Req::Select { .. } => "serve.handle_line.select",
                Req::Plan { .. } => "serve.handle_line.plan",
                _ => "serve.handle_line.predict",
            },
            id,
        );
        let (resp, _) = handle_line(&sys.service, &line);
        tracer.exit(handle);
        let encode = tracer.enter("reactor.encode", id);
        out.clear();
        encode_response(input.framing, &resp, &mut out);
        tracer.exit(encode);
        tracer.exit(request);
        checker.record(if !crate::wire::is_ok_echo(&resp, id) {
            Err(format!("replayed request {id} answered with {resp}"))
        } else if id.is_multiple_of(100) {
            sys.tenants.verify(&input.req, &resp)
        } else {
            Ok(())
        });

        // The parts of handle_line that have entry points of their own,
        // called again beside it: parsing, and the service call.
        let parse = tracer.enter("serve.parse", id);
        let parsed = parse_request(&line);
        tracer.exit(parse);
        let service = tracer.enter("serve.service", id);
        let served = match &parsed {
            Ok(Request::Predict { cluster, query }) => {
                sys.service.predict(cluster, query).map(|_| ())
            }
            Ok(Request::Select {
                cluster,
                model,
                collective,
                m,
                root,
            }) => sys
                .service
                .select(cluster, *model, *collective, *m, *root)
                .map(|_| ()),
            Ok(Request::Plan {
                cluster,
                model,
                trace,
                ..
            }) => sys.service.plan(cluster, trace, *model).map(|_| ()),
            _ => Ok(()),
        };
        tracer.exit(service);
        checker.record(served.map_err(|e| format!("service call {id} failed: {e}")));
    }
}

/// The traced run: one untraced and one traced depth-1 phase over the
/// sockets, then the layer replay; per-layer metrics come from the spans.
pub fn trace(ctx: &Ctx, tracer: &mut Tracer) -> io::Result<Outcome> {
    let mut checker = Checker::default();
    let mut sys = setup(ctx, &mut checker)?;
    let mut stream = stream(ctx, &sys.tenants);
    let before = sys.service.metrics().snapshot();
    let frames =
        || sys.service.metrics().frames_json().get() + sys.service.metrics().frames_binary().get();
    let frames_before = frames();
    let n = ctx.work(DEPTH1_PER_SEGMENT);
    let mut off = Tracer::new(false);
    // Warm-up, then the same phase untraced and traced.
    let mut phase = |tracer: &mut Tracer| {
        let reqs = stream.take(n);
        serving::depth1(&mut sys.client, &sys.tenants, &reqs, &mut checker, tracer)
    };
    phase(&mut off)?;
    let plain = phase(&mut off)?;
    let traced = phase(tracer)?;
    let frames = frames() - frames_before;
    replay_layers(&sys, &mut stream, ctx.work(REPLAYED), tracer, &mut checker);

    let mut s = Samples::default();
    let p50 = plain.p50_us();
    s.push("harness.latency_p50_us", p50);
    s.push("harness.latency_p99_us", plain.p99_us());
    s.push(
        "harness.trace_overhead_pct",
        (traced.p50_us() - p50) / p50 * 100.0,
    );
    let (jsonl, binary) = (
        tracer.median_ns("reactor.decode.jsonl"),
        tracer.median_ns("reactor.decode.binary"),
    );
    let by_verb = [
        ("serve.handle_line_ns.predict", "serve.handle_line.predict"),
        ("serve.handle_line_ns.select", "serve.handle_line.select"),
        ("serve.handle_line_ns.plan", "serve.handle_line.plan"),
    ];
    let handle_all: Vec<f64> = by_verb
        .iter()
        .flat_map(|(_, span)| tracer.durations(span))
        .collect();
    let handle = median(&handle_all);
    let encode = tracer.median_ns("reactor.encode");
    let parse = tracer.median_ns("serve.parse");
    let service = tracer.median_ns("serve.service");
    s.push("reactor.decode_ns.jsonl", jsonl);
    s.push("reactor.decode_ns.binary", binary);
    s.push("reactor.encode_ns", encode);
    s.push("reactor.frames", frames as f64);
    // What the sockets, epoll and the wake-ups cost: the round trip less
    // the work the layers account for.
    let transport = p50 - ((jsonl + binary) / 2.0 + handle + encode) / 1e3;
    s.push("reactor.transport_us", transport);
    if transport < 0.0 {
        eprintln!("note: the layers account for more than the round trip ({transport} us left)");
    }
    for (metric, span) in by_verb {
        s.push(metric, tracer.median_ns(span));
    }
    s.push("serve.parse_ns", parse);
    s.push("serve.service_hit_ns", service);
    s.push("serve.respond_self_ns", handle - parse - service);
    let (cache, plans) = hit_ratios(&sys.service, before);
    s.push("serve.cache_hit_ratio", cache);
    s.push("serve.plan_hit_ratio", plans);
    crate::micro::serve_hot_rows(ctx, &plan_trace(), &mut s);
    let estimated = sys.service.metrics().snapshot().estimations - before.estimations;
    let exact = cache >= 0.99 && estimated == 0;
    if !exact {
        checker.reasons.push(format!(
            "serve_hot trace: cache hit ratio {cache}, {estimated} estimations after set-up"
        ));
    }
    Ok(Outcome {
        workload: "serve_hot",
        checker,
        exact,
        segments: 1,
        metrics: s.summaries(),
    })
}
