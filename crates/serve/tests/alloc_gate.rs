//! The allocation gate of the request path, in the spirit of the DES
//! pool gate: a warm `predict`, `select` or `plan` hit is pinned to the
//! handful of allocations the design accounts for, so a JSON tree creeping
//! back into the request path fails here — as a count that repeats
//! exactly — instead of as a slow drift in the ledger.
//!
//! What the path may allocate, per request:
//!
//! - the owned fingerprint of the typed `Request` (`ClusterRef`), and its
//!   copy that becomes the cache key and then the `Prediction`'s
//!   fingerprint (one per prediction; `select` makes two predictions);
//! - the response line itself.
//!
//! Nothing per field, nothing per scanned member, nothing for an integer
//! id. A `plan` hit additionally materialises the submitted trace (the
//! one sub-document `plan` consumes) and its hash, all of which scale
//! with the *request*; on the response side it may only grow the output
//! line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cpm_cluster::{ClusterConfig, ClusterSpec};
use cpm_estimate::EstimateConfig;
use cpm_serve::{handle_line, parse_request, Fields, Request, Service, ServiceConfig};

/// Counts this thread's allocations (fresh and regrown) and their bytes.
struct Counting;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain thread-local
// cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns `(allocations, bytes allocated, result)` for
/// this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (count, bytes) = (COUNT.get(), BYTES.get());
    let out = f();
    (COUNT.get() - count, BYTES.get() - bytes, out)
}

fn warm_service(tag: &str) -> (std::path::PathBuf, Arc<Service>, String) {
    let dir = std::env::temp_dir().join(format!("cpm-allocs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServiceConfig {
        est: EstimateConfig {
            reps: 1,
            ..EstimateConfig::with_seed(31)
        },
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::open(&dir, cfg).unwrap());
    let config = ClusterConfig::ideal(ClusterSpec::homogeneous(4), 19);
    let estimate = format!(
        "{{\"verb\":\"estimate\",\"config\":{}}}",
        serde_json::to_string(&config).unwrap()
    );
    assert!(handle_line(&service, &estimate)
        .0
        .starts_with("{\"ok\":true"));
    (dir, service, cpm_serve::fingerprint(&config))
}

/// The count of a warm `handle_line(line)`: the second of two calls, so
/// caches, thread-locals and lazily built state are all in place.
fn warm_count(service: &Service, line: &str) -> u64 {
    assert!(
        handle_line(service, line).0.starts_with("{\"ok\":true"),
        "{line}"
    );
    let (count, _, (response, _)) = counted(|| handle_line(service, line));
    assert!(response.contains("\"cached\":true") || line.contains("select"));
    count
}

#[test]
fn warm_predict_and_select_allocate_a_small_constant() {
    let (dir, service, fp) = warm_service("hot");
    let predict = |extra: &str| {
        format!(
            "{{\"verb\":\"predict\"{extra},\"fingerprint\":\"{fp}\",\"model\":\"lmo\",\
             \"collective\":\"scatter\",\"algorithm\":\"binomial\",\"m\":65536,\"root\":1}}"
        )
    };
    // The request's fingerprint, its copy in the cache key (handed on to
    // the prediction), the response line.
    assert_eq!(warm_count(&service, &predict("")), 3);
    // Neither an integer id, nor a trace context, nor fields the verb
    // ignores add any.
    let dressed = predict(
        ",\"id\":18446744073709551615,\"ctx\":{\"trace\":\"00000000000000ab\",\
         \"parent\":\"00000000000000cd\"},\"junk\":[[1,2,{\"deep\":[\"x\",null]}],\"y\"]",
    );
    assert_eq!(warm_count(&service, &dressed), 3);
    // A string id is owned while the request lives: one more.
    assert_eq!(warm_count(&service, &predict(",\"id\":\"client-7\"")), 4);

    // `select` predicts twice: one more key.
    let select = format!(
        "{{\"verb\":\"select\",\"id\":7,\"fingerprint\":\"{fp}\",\"model\":\"lmo\",\
         \"collective\":\"gather\",\"m\":32768}}"
    );
    assert_eq!(warm_count(&service, &select), 4);

    // The scan itself allocates nothing, whatever the line holds.
    let (count, _, fields) = counted(|| Fields::scan(&dressed).unwrap());
    assert_eq!(count, 0);
    assert!(fields.verb.is_some());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_plan_hit_adds_only_the_output_line_to_parse_and_lookup() {
    let (dir, service, fp) = warm_service("plan");
    // Two traces of very different size: 3 and 24 layers of the training
    // step, i.e. responses of a few KB and a few tens of KB.
    for layers in [3, 24] {
        let trace = cpm_workload::gen::canonical("train", 4, 8192, layers).unwrap();
        let line = format!(
            "{{\"verb\":\"plan\",\"id\":5,\"model\":\"lmo\",\"fingerprint\":\"{fp}\",\"trace\":{}}}",
            serde_json::to_string(&trace.to_value()).unwrap()
        );
        assert!(handle_line(&service, &line).0.contains("\"cached\":false"));
        let (whole, whole_bytes, (response, _)) = counted(|| handle_line(&service, &line));
        assert!(response.contains("\"cached\":true"), "{layers} layers");

        // The two stages with entry points of their own, measured alone.
        let (parse, parse_bytes, request) = counted(|| parse_request(&line).unwrap());
        let Request::Plan {
            cluster,
            model,
            trace,
            ..
        } = &request
        else {
            panic!("not a plan");
        };
        let (lookup, lookup_bytes, planned) =
            counted(|| service.plan(cluster, trace, *model).unwrap());
        assert!(planned.cached);

        // Beyond parsing the request and finding the plan, the response
        // costs the line buffer and at most one growth of it — the same
        // two allocations for the small plan and the large one — and no
        // bytes beyond that buffer's doubling.
        let extra = whole - parse - lookup;
        assert!(
            extra <= 2,
            "{layers} layers: {extra} allocations to respond"
        );
        let extra_bytes = whole_bytes - parse_bytes - lookup_bytes;
        assert!(
            extra_bytes <= 2 * response.len() as u64 + 256,
            "{layers} layers: {extra_bytes} B allocated to write {} B",
            response.len()
        );
        assert!(response.len() > 2000 * layers, "{}", response.len());
    }
    let _ = std::fs::remove_dir_all(dir);
}
