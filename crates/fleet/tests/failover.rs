//! Leader failover under load: kill a node mid-stream and prove the
//! fleet keeps answering.
//!
//! A 3-node fleet (replication 2) serves several tenants through the
//! router while client threads stream tagged predicts. Mid-load, the
//! node leading tenant 0 is shut down. The assertions:
//!
//! - zero lost or duplicated responses: every client receives exactly
//!   one in-order response per request, each echoing its unique id;
//! - zero client-visible errors: every response is `ok: true`;
//! - failover really happened: post-kill requests for tenants the dead
//!   node led are served by a surviving replica and flagged
//!   `"stale": true` with `"served_by"` naming it;
//! - failover stays interactive: the client-side p99 over both phases,
//!   reconnects included, is under 200 ms.

mod common;

use std::net::TcpListener;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use common::*;
use cpm_fleet::{serve_router, Router, RouterConfig};
use serde_json::Value;

const CLIENTS: usize = 4;
const PHASE_REQUESTS: usize = 25;
/// Client-side p99 bound across the kill.
const P99_MAX: Duration = Duration::from_millis(200);

fn predict_line(fp: &str, id: &str) -> String {
    format!(
        "{{\"verb\":\"predict\",\"id\":{id:?},\"fingerprint\":{fp:?},\
         \"model\":\"lmo\",\"collective\":\"scatter\",\"algorithm\":\"binomial\",\"m\":8192}}"
    )
}

#[test]
fn killing_a_leader_mid_load_loses_nothing() {
    let t0 = Instant::now();
    let tmp = temp_dir("failover");
    let mut fleet = start_fleet(&tmp, 3, 2);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let router = Router::new(fleet.map.clone(), RouterConfig::default()).unwrap();
    let mut handle = serve_router(listener, router, 2, None).unwrap();
    let router_addr = handle.addr();

    // One tenant led by each node, so the kill always hits a leader
    // some client traffic depends on.
    let tenants: Vec<(String, String)> = fleet
        .map
        .nodes
        .iter()
        .map(|n| {
            let (config, fp) = tenant_led_by(&fleet.map, &n.name);
            (config_json(&config), fp)
        })
        .collect();
    for (config_json, _) in &tenants {
        let resp = request(
            router_addr,
            &format!("{{\"verb\":\"estimate\",\"config\":{config_json}}}"),
        );
        assert!(is_ok(&resp), "estimate failed: {resp:?}");
    }
    eprintln!("estimates done at {:?}", t0.elapsed());
    let fps: Vec<String> = tenants.iter().map(|(_, fp)| fp.clone()).collect();

    // The victim: the node leading tenant 0.
    let ring = fleet.map.ring();
    let victim_name = ring.primary(&fps[0]).unwrap().to_string();
    let victim_idx = fleet.index_of(&victim_name);

    // Two barriers bracket the kill: clients drain phase one, the main
    // thread kills the victim while every connection is idle-but-open,
    // clients run phase two through the same connections. The router's
    // pooled upstream connections to the dead node are stale by then,
    // so phase two exercises reconnect + failover, not a clean slate.
    let before_kill = Arc::new(Barrier::new(CLIENTS + 1));
    let after_kill = Arc::new(Barrier::new(CLIENTS + 1));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let fps = fps.clone();
            let before_kill = Arc::clone(&before_kill);
            let after_kill = Arc::clone(&after_kill);
            std::thread::spawn(move || {
                let mut client = LineClient::connect(router_addr);
                let mut latencies = Vec::with_capacity(2 * PHASE_REQUESTS);
                let mut stale = 0usize;
                for phase in 0..2 {
                    if phase == 1 {
                        before_kill.wait();
                        after_kill.wait();
                    }
                    for r in 0..PHASE_REQUESTS {
                        let fp = &fps[(c + r) % fps.len()];
                        let id = format!("c{c}-p{phase}-{r}");
                        let sent = Instant::now();
                        let resp = client.call(&predict_line(fp, &id));
                        latencies.push(sent.elapsed());
                        assert!(is_ok(&resp), "client {c} got an error: {resp:?}");
                        // In-order exactly-once: the echoed id must be
                        // this request's, not a neighbour's.
                        assert_eq!(
                            resp.get("id"),
                            Some(&Value::Str(id.clone())),
                            "client {c} response out of order"
                        );
                        if resp.get("stale") == Some(&Value::Bool(true)) {
                            stale += 1;
                        }
                    }
                }
                (latencies, stale)
            })
        })
        .collect();

    before_kill.wait();
    eprintln!("phase1 done at {:?}", t0.elapsed());
    fleet.handles[victim_idx].shutdown();
    eprintln!("kill done at {:?}", t0.elapsed());
    after_kill.wait();

    let mut latencies = Vec::with_capacity(CLIENTS * 2 * PHASE_REQUESTS);
    let mut stale_total = 0;
    for w in workers {
        let (client_latencies, stale) = w.join().expect("client thread");
        assert_eq!(client_latencies.len(), 2 * PHASE_REQUESTS, "lost responses");
        latencies.extend(client_latencies);
        stale_total += stale;
    }
    assert!(
        stale_total > 0,
        "no stale-flagged responses — failover never engaged"
    );
    latencies.sort_unstable();
    let p99 = latencies[(latencies.len() * 99).div_ceil(100) - 1];
    eprintln!("client p99 across the kill: {p99:?}");
    assert!(
        p99 < P99_MAX,
        "client p99 {p99:?} across the kill, bound {P99_MAX:?}"
    );

    // Aimed check: the dead node's tenant is served by a survivor and
    // flagged stale.
    let resp = request(router_addr, &predict_line(&fps[victim_idx], "post-kill"));
    assert!(is_ok(&resp), "post-kill predict failed: {resp:?}");
    assert_eq!(resp.get("stale"), Some(&Value::Bool(true)));
    let served_by = resp.get("served_by").and_then(Value::as_str).unwrap_or("");
    assert_ne!(served_by, victim_name);
    assert!(!served_by.is_empty());

    eprintln!("phase2 done at {:?}", t0.elapsed());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&tmp);
}
