//! Integration tests for the compilation service: the daemon end to end over
//! real sockets, the content-addressed store's failure modes, request
//! coalescing, and chaos plans over the service fault points.
//!
//! Every test that starts a daemon installs a [`fault::FaultPlan`] — an empty
//! one when no fault is needed — because `fault::install` is
//! process-exclusive: holding the guard serializes these tests against each
//! other, so a test arming `store.read` can never inject faults into a
//! neighbouring test's daemon.

use service::json::Json;
use service::{client, content_key, start, ServerConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const SQRT_CANCEL: &str = "(FPCore (x) :pre (and (> x 1) (< x 1e14)) (- (sqrt (+ x 1)) (sqrt x)))";
const QUADRATIC: &str = "(FPCore (a b c) (/ (- (- b) (sqrt (- (* b b) (* 4 (* a c))))) (* 2 a)))";

/// A per-test scratch directory under the target dir (no external tempfile
/// crate; cleaned up on entry so reruns start fresh).
fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_server(disk: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        workers: 2,
        memory_capacity: 64,
        disk_dir: disk,
        ..ServerConfig::default()
    }
}

fn compile_request(fpcore: &str, target: &str, seed: u64) -> String {
    compile_request_full(fpcore, target, seed, None, None)
}

fn compile_request_full(
    fpcore: &str,
    target: &str,
    seed: u64,
    client: Option<&str>,
    deadline_ms: Option<u64>,
) -> String {
    let mut members = vec![
        ("fpcore".to_owned(), Json::Str(fpcore.to_owned())),
        ("target".to_owned(), Json::Str(target.to_owned())),
        ("seed".to_owned(), Json::from_u64(seed)),
        ("config".to_owned(), Json::Str("fast".to_owned())),
    ];
    if let Some(client) = client {
        members.push(("client".to_owned(), Json::Str(client.to_owned())));
    }
    if let Some(ms) = deadline_ms {
        members.push(("deadline_ms".to_owned(), Json::from_u64(ms)));
    }
    Json::Obj(members).to_string()
}

fn kind_of(doc: &Json) -> &str {
    doc.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("?")
}

fn post_compile(addr: SocketAddr, body: &str) -> (u16, Json) {
    let response = client::post_json(addr, "/compile", body).expect("request should succeed");
    let doc = Json::parse(&response.body)
        .unwrap_or_else(|e| panic!("non-json body {:?}: {e}", response.body));
    (response.status, doc)
}

fn cache_of(doc: &Json) -> &str {
    doc.get("cache").and_then(Json::as_str).unwrap_or("?")
}

fn stat(addr: SocketAddr, field: &str) -> u64 {
    let response = client::get(addr, "/stats").expect("stats should answer");
    let doc = Json::parse(&response.body).expect("stats is json");
    doc.get(field)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats missing {field}: {}", response.body))
}

#[test]
fn content_keys_are_stable_and_semantic() {
    // No daemon here, but the golden below is part of the on-disk store
    // format: if it changes, the key algorithm changed and the store
    // version must be bumped (see crates/service/src/store.rs).
    let core = fpcore::parse_fpcore(SQRT_CANCEL).unwrap();
    let reformatted = fpcore::parse_fpcore(&SQRT_CANCEL.replace(' ', "\n  ")).unwrap();
    let c99 = targets::builtin::by_name("c99").unwrap();
    let avx = targets::builtin::by_name("avx").unwrap();

    let key = content_key(&core, &c99, 42, "fast");
    assert_eq!(key.len(), 32);
    assert_eq!(key, content_key(&core, &c99, 42, "fast"), "deterministic");
    assert_eq!(
        key,
        content_key(&reformatted, &c99, 42, "fast"),
        "formatting is not content"
    );
    for different in [
        content_key(&core, &avx, 42, "fast"),
        content_key(&core, &c99, 43, "fast"),
        content_key(&core, &c99, 42, "default"),
        content_key(&fpcore::parse_fpcore(QUADRATIC).unwrap(), &c99, 42, "fast"),
    ] {
        assert_ne!(key, different);
    }
}

#[test]
fn daemon_serves_compile_cache_and_introspection_routes() {
    let _plan = fault::install(fault::FaultPlan::new());
    let handle = start(small_server(None)).unwrap();
    let addr = handle.addr();

    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(
        (health.status, health.body.as_str()),
        (200, "{\"status\":\"ok\"}")
    );

    // Cold: a miss that compiles; warm: a memory hit with an identical body.
    let request = compile_request(SQRT_CANCEL, "c99", 7);
    let (status, cold) = post_compile(addr, &request);
    assert_eq!(status, 200, "cold compile should succeed: {cold}");
    assert_eq!(cache_of(&cold), "miss");
    let (status, warm) = post_compile(addr, &request);
    assert_eq!(status, 200);
    assert_eq!(cache_of(&warm), "memory");

    // The bodies differ only in the cache tag; implementations are
    // bit-identical (the stored body is reused verbatim).
    let strip = |doc: &Json| {
        let Json::Obj(members) = doc else {
            panic!("not an object")
        };
        Json::Obj(
            members
                .iter()
                .filter(|(k, _)| k != "cache")
                .cloned()
                .collect(),
        )
        .to_string()
    };
    assert_eq!(strip(&cold), strip(&warm));

    // The response key works on GET /result/{key}.
    let key = cold.get("key").and_then(Json::as_str).unwrap().to_owned();
    let fetched = client::get(addr, &format!("/result/{key}")).unwrap();
    assert_eq!(fetched.status, 200);

    // The daemon result matches a direct in-process compilation bit for bit.
    let core = fpcore::parse_fpcore(SQRT_CANCEL).unwrap();
    let target = targets::builtin::by_name("c99").unwrap();
    let session = chassis::Session::new(chassis::Config::fast().with_seed(7));
    let direct = session.compile(&core, &target).unwrap();
    let served = cold.get("implementations").and_then(Json::as_arr).unwrap();
    assert_eq!(served.len(), direct.implementations.len());
    for (json, imp) in served.iter().zip(&direct.implementations) {
        assert_eq!(
            json.get("rendered").and_then(Json::as_str),
            Some(imp.rendered.as_str())
        );
        assert_eq!(
            json.get("cost_hex").and_then(Json::as_str),
            Some(service::json::hex_bits(imp.cost).as_str())
        );
        assert_eq!(
            json.get("error_bits_hex").and_then(Json::as_str),
            Some(service::json::hex_bits(imp.error_bits).as_str())
        );
    }

    // Stats reflect what happened.
    assert_eq!(stat(addr, "hits_memory"), 2, "warm POST + GET /result");
    assert_eq!(stat(addr, "compiles"), 1);
    assert_eq!(stat(addr, "jobs_failed"), 0);

    // Error paths: malformed JSON, bad FPCore, unknown target, bad key,
    // unknown route, unknown result.
    let cases = [
        ("{not json", 400),
        ("{\"fpcore\":\"(FPCore (x) x\",\"target\":\"c99\"}", 400),
        ("{\"fpcore\":\"(FPCore (x) x)\",\"target\":\"m68k\"}", 400),
        ("{\"target\":\"c99\"}", 400),
        (
            "{\"fpcore\":\"(FPCore (x) x)\",\"target\":\"c99\",\"seed\":-1}",
            400,
        ),
    ];
    for (body, expected) in cases {
        let response = client::post_json(addr, "/compile", body).unwrap();
        assert_eq!(response.status, expected, "for body {body:?}");
    }
    assert_eq!(client::get(addr, "/result/zz").unwrap().status, 400);
    assert_eq!(
        client::get(addr, &format!("/result/{}", "0".repeat(32)))
            .unwrap()
            .status,
        404
    );
    assert_eq!(client::get(addr, "/no-such-route").unwrap().status, 404);
    assert_eq!(client::get(addr, "/compile").unwrap().status, 405);

    handle.stop();
}

#[test]
fn unsamplable_requests_get_typed_422_and_are_not_cached() {
    let _plan = fault::install(fault::FaultPlan::new());
    let handle = start(small_server(None)).unwrap();
    let addr = handle.addr();
    // An unsatisfiable precondition cannot be sampled: typed CompileError
    // mapped to 422, and retrying recompiles (errors are never stored).
    let body = compile_request("(FPCore (x) :pre (and (> x 1) (< x 0)) (sqrt x))", "c99", 1);
    let (status, doc) = post_compile(addr, &body);
    assert_eq!(status, 422, "sampling failure is a 422: {doc}");
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("sampling")
    );
    let (status, _) = post_compile(addr, &body);
    assert_eq!(status, 422);
    assert_eq!(
        stat(addr, "compiles"),
        2,
        "errors are recomputed, not cached"
    );
    assert_eq!(stat(addr, "jobs_failed"), 2);
    handle.stop();
}

#[test]
fn disk_store_survives_restart_corruption_and_truncation() {
    let _plan = fault::install(fault::FaultPlan::new());
    let dir = scratch_dir("service-disk");
    let request = compile_request(SQRT_CANCEL, "arith", 11);

    // First daemon: cold compile, persisted to disk.
    let first = start(small_server(Some(dir.clone()))).unwrap();
    let (status, cold) = post_compile(first.addr(), &request);
    assert_eq!(status, 200);
    let key = cold.get("key").and_then(Json::as_str).unwrap().to_owned();
    first.stop();

    // Second daemon on the same directory: warm from disk, no compile.
    let second = start(small_server(Some(dir.clone()))).unwrap();
    let (status, warm) = post_compile(second.addr(), &request);
    assert_eq!(status, 200);
    assert_eq!(cache_of(&warm), "disk");
    assert_eq!(stat(second.addr(), "compiles"), 0);
    second.stop();

    // Corrupt the entry; the next daemon must recover by recompiling.
    let entry = dir.join(&key[0..2]).join(&key);
    let mut bytes = std::fs::read(&entry).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&entry, &bytes).unwrap();
    let third = start(small_server(Some(dir.clone()))).unwrap();
    let (status, recovered) = post_compile(third.addr(), &request);
    assert_eq!(status, 200);
    assert_eq!(cache_of(&recovered), "miss", "corrupt entry must not serve");
    assert_eq!(stat(third.addr(), "corrupt_recovered"), 1);
    assert_eq!(stat(third.addr(), "compiles"), 1);
    third.stop();

    // Truncate mid-body (a crash mid-write that somehow hit the final
    // name, e.g. a torn rename on a crude filesystem): same recovery.
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();
    let fourth = start(small_server(Some(dir))).unwrap();
    let (status, recovered) = post_compile(fourth.addr(), &request);
    assert_eq!(status, 200);
    assert_eq!(cache_of(&recovered), "miss");
    assert_eq!(stat(fourth.addr(), "corrupt_recovered"), 1);
    fourth.stop();
}

#[test]
fn concurrent_identical_requests_coalesce_onto_one_search() {
    let _plan = fault::install(fault::FaultPlan::new());
    let handle = start(small_server(None)).unwrap();
    let addr = handle.addr();
    let request = Arc::new(compile_request(QUADRATIC, "arith-fma", 23));

    const CLIENTS: usize = 6;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let misses = Arc::new(AtomicUsize::new(0));
    let coalesced = Arc::new(AtomicUsize::new(0));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (request, barrier) = (Arc::clone(&request), Arc::clone(&barrier));
            let (misses, coalesced) = (Arc::clone(&misses), Arc::clone(&coalesced));
            std::thread::spawn(move || {
                barrier.wait();
                let (status, doc) = post_compile(addr, &request);
                assert_eq!(status, 200, "coalesced request failed: {doc}");
                match cache_of(&doc) {
                    "miss" => misses.fetch_add(1, Ordering::Relaxed),
                    "coalesced" => coalesced.fetch_add(1, Ordering::Relaxed),
                    // A straggler that arrived after the job stored is fine.
                    "memory" => 0,
                    other => panic!("unexpected cache tag {other}"),
                };
                doc.get("key").and_then(Json::as_str).unwrap().to_owned()
            })
        })
        .collect();
    let keys: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    assert!(
        keys.windows(2).all(|w| w[0] == w[1]),
        "all got the same key"
    );
    assert_eq!(misses.load(Ordering::Relaxed), 1, "exactly one search ran");
    assert!(coalesced.load(Ordering::Relaxed) >= 1, "others coalesced");
    assert_eq!(stat(addr, "compiles"), 1);
    assert_eq!(
        stat(addr, "coalesced") as usize,
        coalesced.load(Ordering::Relaxed)
    );
    handle.stop();
}

#[test]
fn memory_eviction_falls_back_to_disk_level() {
    let _plan = fault::install(fault::FaultPlan::new());
    let dir = scratch_dir("service-evict");
    let config = ServerConfig {
        workers: 2,
        memory_capacity: 1,
        disk_dir: Some(dir),
        ..ServerConfig::default()
    };
    let handle = start(config).unwrap();
    let addr = handle.addr();
    let first = compile_request(SQRT_CANCEL, "arith", 3);
    let second = compile_request(QUADRATIC, "arith", 3);
    assert_eq!(post_compile(addr, &first).0, 200);
    assert_eq!(post_compile(addr, &second).0, 200, "evicts the first entry");
    assert_eq!(stat(addr, "evictions"), 1);
    // The evicted entry is gone from memory but still on disk.
    let (status, doc) = post_compile(addr, &first);
    assert_eq!(status, 200);
    assert_eq!(cache_of(&doc), "disk");
    assert_eq!(stat(addr, "compiles"), 2, "no recompilation after eviction");
    handle.stop();
}

/// Chaos over the service sites: seeded plans arming `store.read`,
/// `store.write`, and `service.accept` (aborts and panics). The daemon must
/// answer every request correctly — a store fault may only cost cache hits,
/// an accept fault only a dropped (retried) connection.
#[test]
fn chaos_plans_over_service_sites_never_break_correctness() {
    let dir = scratch_dir("service-chaos");
    let request = compile_request(SQRT_CANCEL, "arith", 99);
    let core = fpcore::parse_fpcore(SQRT_CANCEL).unwrap();
    let target = targets::builtin::by_name("arith").unwrap();
    let expected_key = content_key(&core, &target, 99, "fast");

    let mut total_fires = 0u64;
    let mut plans_fully_served = 0u32;
    for plan_seed in 0..12u64 {
        let plan = fault::FaultPlan::seeded(plan_seed, fault::SERVICE_SITES);
        // An armed Abort keeps firing once triggered, so a plan that aborts
        // `service.accept` legitimately costs *availability* (every later
        // connection dropped). Every other fault — accept panics, store
        // aborts/panics — may only cost cache hits, never a request.
        let may_go_deaf = plan
            .arms()
            .iter()
            .any(|arm| arm.site == "service.accept" && arm.action == fault::FaultAction::Abort);
        let armed = fault::install(plan);
        let handle = start(small_server(Some(dir.clone()))).unwrap();
        let addr = handle.addr();
        let mut served = 0u32;
        for _attempt in 0..4 {
            // An accept panic drops exactly one connection; retry a few times.
            let response = (0..8).find_map(|_| client::post_json(addr, "/compile", &request).ok());
            let Some(response) = response else {
                assert!(
                    may_go_deaf,
                    "plan {plan_seed} stopped answering without an accept-abort arm"
                );
                continue;
            };
            assert_eq!(response.status, 200, "plan {plan_seed}: {}", response.body);
            let doc = Json::parse(&response.body).unwrap();
            assert_eq!(
                doc.get("key").and_then(Json::as_str),
                Some(expected_key.as_str()),
                "faults must never change results"
            );
            served += 1;
        }
        if !may_go_deaf {
            assert_eq!(served, 4, "plan {plan_seed} dropped requests");
        }
        if served == 4 {
            plans_fully_served += 1;
        }
        // The daemon still shuts down cleanly with faults armed.
        handle.stop();
        total_fires += armed.fires();
    }
    assert!(
        total_fires > 0,
        "the chaos run never fired a fault — plans or sites are miswired"
    );
    assert!(
        plans_fully_served >= 4,
        "almost every plan lost availability ({plans_fully_served}/12 served) — \
         accept-abort should not dominate the seeded mix this heavily"
    );
}

/// Latency chaos over the service sites: seeded plans mixing
/// [`fault::FaultAction::Delay`] into the abort/panic distribution. A delay
/// may only cost time, never a result — every answered request must carry
/// the same content key, and at least one delay must actually fire so the
/// coverage is not vacuous. Stalls are deliberately absent here: a stalled
/// *connection* thread has no watchdog (only pool workers do), so stall
/// coverage lives in the watchdog test below and in the `serve_soak` gate.
#[test]
fn latency_chaos_over_service_sites_only_costs_time() {
    let dir = scratch_dir("service-latency-chaos");
    let request = compile_request(SQRT_CANCEL, "arith", 41);
    let core = fpcore::parse_fpcore(SQRT_CANCEL).unwrap();
    let target = targets::builtin::by_name("arith").unwrap();
    let expected_key = content_key(&core, &target, 41, "fast");

    let mut total_fires = 0u64;
    let mut delay_plans = 0u32;
    for plan_seed in 0..10u64 {
        let plan = fault::FaultPlan::seeded_latency(plan_seed, fault::SERVICE_SITES, &[]);
        if plan
            .arms()
            .iter()
            .any(|arm| matches!(arm.action, fault::FaultAction::Delay(_)))
        {
            delay_plans += 1;
        }
        // As in the abort/panic chaos test above: an armed accept abort or
        // panic keeps firing once triggered and legitimately costs
        // availability; a delay, or any store fault, may not.
        let may_go_deaf = plan.arms().iter().any(|arm| {
            arm.site == "service.accept"
                && matches!(
                    arm.action,
                    fault::FaultAction::Abort | fault::FaultAction::Panic
                )
        });
        let armed = fault::install(plan);
        let handle = start(small_server(Some(dir.clone()))).unwrap();
        let addr = handle.addr();
        for _attempt in 0..3 {
            let response = (0..8).find_map(|_| client::post_json(addr, "/compile", &request).ok());
            let Some(response) = response else {
                assert!(
                    may_go_deaf,
                    "plan {plan_seed} stopped answering without an accept-abort arm"
                );
                continue;
            };
            assert_eq!(response.status, 200, "plan {plan_seed}: {}", response.body);
            let doc = Json::parse(&response.body).unwrap();
            assert_eq!(
                doc.get("key").and_then(Json::as_str),
                Some(expected_key.as_str()),
                "a latency fault must never change results"
            );
        }
        handle.stop();
        total_fires += armed.fires();
    }
    assert!(total_fires > 0, "the latency chaos run never fired a fault");
    assert!(
        delay_plans >= 3,
        "only {delay_plans}/10 plans armed a delay — seeded_latency's action mix drifted"
    );
}

#[test]
fn an_unmeetable_deadline_is_shed_with_a_typed_504_and_never_cached() {
    let _plan = fault::install(fault::FaultPlan::new());
    let handle = start(small_server(None)).unwrap();
    let addr = handle.addr();

    // deadline_ms = 0 expires before the job could even be queued: the
    // admission controller sheds it with a typed 504 + Retry-After.
    let hopeless = compile_request_full(SQRT_CANCEL, "c99", 77, None, Some(0));
    let response = client::post_json(addr, "/compile", &hopeless).unwrap();
    assert_eq!(response.status, 504, "{}", response.body);
    assert!(response.retry_after.is_some(), "504 carries Retry-After");
    let doc = Json::parse(&response.body).unwrap();
    assert_eq!(kind_of(&doc), "deadline");
    assert_eq!(stat(addr, "deadline_shed"), 1);
    assert_eq!(stat(addr, "compiles"), 0, "shed before any search");

    // A 504 is never cached: the same request without a deadline compiles
    // fresh...
    let relaxed = compile_request(SQRT_CANCEL, "c99", 77);
    let (status, doc) = post_compile(addr, &relaxed);
    assert_eq!(status, 200, "{doc}");
    assert_eq!(cache_of(&doc), "miss");

    // ...and once stored, even a hopeless deadline is served from cache
    // (hits are cheap; deadlines only gate searches).
    let (status, doc) = post_compile(addr, &hopeless);
    assert_eq!(status, 200);
    assert_eq!(cache_of(&doc), "memory");

    // The new gauges are present and sane once the daemon is idle.
    assert_eq!(stat(addr, "inflight"), 0);
    let _uptime = stat(addr, "uptime_ms");
    handle.stop();
}

#[test]
fn a_stalled_job_is_reclaimed_by_the_watchdog_while_others_complete() {
    // One worker, and a Stall armed on the first `session.compile` hit: job
    // A wedges its worker until the plan is dropped. Its deadline must still
    // be answered (504, by the request's own wait — the worker can't), the
    // watchdog must then write the worker off and replace it, and a concurrent
    // no-deadline request must complete on the replacement — bit-identical
    // to a direct in-process compile.
    let plan = fault::install(fault::FaultPlan::new().arm(
        "session.compile",
        fault::FaultAction::Stall,
        0,
    ));
    let config = ServerConfig {
        workers: 1,
        watchdog_interval: Duration::from_millis(25),
        ..small_server(None)
    };
    let handle = start(config).unwrap();
    let addr = handle.addr();

    let stuck = compile_request_full(SQRT_CANCEL, "c99", 5, Some("hurried"), Some(150));
    let started = std::time::Instant::now();
    let response = client::post_json(addr, "/compile", &stuck).unwrap();
    assert_eq!(response.status, 504, "{}", response.body);
    assert!(response.retry_after.is_some());
    assert_eq!(kind_of(&Json::parse(&response.body).unwrap()), "deadline");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the 504 must arrive at the deadline, not when the worker unwedges"
    );

    // The single worker is still stuck; the quiet request below can only
    // complete if the watchdog replaced it. (The Stall arm fires exactly
    // once, so the replacement passes the fault point untouched.)
    let quiet = compile_request(QUADRATIC, "c99", 5);
    let (status, doc) = post_compile(addr, &quiet);
    assert_eq!(status, 200, "capacity must recover: {doc}");

    let core = fpcore::parse_fpcore(QUADRATIC).unwrap();
    let target = targets::builtin::by_name("c99").unwrap();
    let session = chassis::Session::new(chassis::Config::fast().with_seed(5));
    let direct = session.compile(&core, &target).unwrap();
    let served = doc.get("implementations").and_then(Json::as_arr).unwrap();
    assert_eq!(served.len(), direct.implementations.len());
    for (json, imp) in served.iter().zip(&direct.implementations) {
        assert_eq!(
            json.get("rendered").and_then(Json::as_str),
            Some(imp.rendered.as_str())
        );
        assert_eq!(
            json.get("cost_hex").and_then(Json::as_str),
            Some(service::json::hex_bits(imp.cost).as_str())
        );
        assert_eq!(
            json.get("error_bits_hex").and_then(Json::as_str),
            Some(service::json::hex_bits(imp.error_bits).as_str())
        );
    }

    assert!(
        stat(addr, "watchdog_fired") >= 1,
        "the watchdog reclaimed A"
    );
    assert!(stat(addr, "workers_replaced") >= 1);
    // Release the stalled worker before shutdown: it wakes, notices its
    // cancelled token, degrades immediately, and retires as Abandoned.
    drop(plan);
    handle.stop();
}

#[test]
fn the_last_expired_waiter_cancels_the_job_and_removes_its_flight() {
    // Every search is held 1 s at its head, so a 150 ms deadline expires
    // while its job is still parked, and the waiting request answers its own
    // 504. The watchdog scans only every 500 ms, which allows a job at least
    // 2 s before it counts as stuck, so it never steps in.
    let _plan = fault::install(fault::FaultPlan::new().arm(
        "session.compile",
        fault::FaultAction::Delay(1000),
        0,
    ));
    let handle = start(ServerConfig {
        watchdog_interval: Duration::from_millis(500),
        ..small_server(None)
    })
    .unwrap();
    let addr = handle.addr();
    let expire = |seed: u64, who: &str| {
        let body = compile_request_full(SQRT_CANCEL, "c99", seed, Some(who), Some(150));
        let response = client::post_json(addr, "/compile", &body).unwrap();
        assert_eq!(response.status, 504, "{}", response.body);
        assert_eq!(kind_of(&Json::parse(&response.body).unwrap()), "deadline");
    };

    expire(9, "hurried");
    // Its only waiter left, so the job's search was cancelled: it wakes from
    // its delay, finds the token fired and counts it, storing nothing.
    let started = std::time::Instant::now();
    while stat(addr, "cancelled") == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "the cancelled job never ended"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let plain = compile_request_full(SQRT_CANCEL, "c99", 9, Some("hurried"), None);
    let (status, doc) = post_compile(addr, &plain);
    assert_eq!(status, 200, "{doc}");
    assert_eq!(cache_of(&doc), "miss", "a cancelled search is never stored");

    // The last waiter to leave also takes the flight out of the map: the
    // identical request, sent while the cancelled job still sleeps, starts
    // a fresh compile on the second worker instead of joining it.
    expire(10, "late");
    let patient = compile_request_full(SQRT_CANCEL, "c99", 10, Some("patient"), None);
    let (status, doc) = post_compile(addr, &patient);
    assert_eq!(status, 200, "{doc}");
    assert_eq!(cache_of(&doc), "miss");
    handle.stop();
}

#[test]
fn a_full_queue_answers_a_typed_503_and_caches_nothing() {
    // One worker and a queue of one. A's search stalls at its head and holds
    // the worker; B fills the queue; C, which finds it full, must be turned
    // away at once with a typed 503 instead of waiting behind B. Its deadline
    // is there so that a daemon that queued it anyway answers 504, not hangs.
    let plan = fault::install(fault::FaultPlan::new().arm(
        "session.compile",
        fault::FaultAction::Stall,
        0,
    ));
    let handle = start(ServerConfig {
        workers: 1,
        max_queued: 1,
        ..small_server(None)
    })
    .unwrap();
    let addr = handle.addr();
    let in_background = |seed: u64| {
        let body = compile_request(SQRT_CANCEL, "c99", seed);
        std::thread::spawn(move || post_compile(addr, &body))
    };
    let wait_for = |what: &str, done: &dyn Fn() -> bool| {
        let started = std::time::Instant::now();
        while !done() {
            assert!(started.elapsed() < Duration::from_secs(60), "{what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    };

    let a = in_background(61);
    wait_for("A never reached the compile head", &|| plan.fires() >= 1);
    let b = in_background(62);
    wait_for("B never queued", &|| stat(addr, "inflight") == 2);

    let c = compile_request_full(SQRT_CANCEL, "c99", 63, None, Some(2_000));
    let response = client::post_json(addr, "/compile", &c).unwrap();
    assert_eq!(response.status, 503, "{}", response.body);
    assert_eq!(response.retry_after, Some(1));
    assert_eq!(
        kind_of(&Json::parse(&response.body).unwrap()),
        "resource-exhausted"
    );
    assert_eq!(stat(addr, "queue_rejected"), 1);

    // Released, the worker finishes A and then B; C was never cached, so
    // sent again it compiles.
    drop(plan);
    for (name, request) in [("A", a), ("B", b)] {
        let (status, doc) = request.join().unwrap();
        assert_eq!(status, 200, "{name}: {doc}");
    }
    let (status, doc) = post_compile(addr, &c);
    assert_eq!(status, 200, "{doc}");
    assert_eq!(cache_of(&doc), "miss");
    handle.stop();
}

#[test]
fn a_dribbling_client_is_cut_off_by_the_header_deadline() {
    use std::io::{Read, Write};
    let _plan = fault::install(fault::FaultPlan::new());
    let config = ServerConfig {
        read_timeout: Duration::from_millis(200),
        header_timeout: Duration::from_millis(300),
        ..small_server(None)
    };
    let handle = start(config).unwrap();
    let addr = handle.addr();

    // Dribble bytes forever without finishing the request line: once the
    // first byte lands, the whole request must arrive within the header
    // budget, so the daemon answers 408 and closes instead of letting the
    // slowloris pin a connection thread.
    let mut slow = std::net::TcpStream::connect(addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_millis(30)))
        .unwrap();
    slow.write_all(b"GET /healthz HTT").unwrap();
    let started = std::time::Instant::now();
    let mut got = Vec::new();
    let mut buf = [0u8; 1024];
    while started.elapsed() < Duration::from_secs(5) {
        let _ = slow.write_all(b"P"); // keep dribbling (ignore post-close errors)
        match slow.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                got.extend_from_slice(&buf[..n]);
                if got.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => {}
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    let text = String::from_utf8_lossy(&got);
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "expected a 408 within the header budget, got {text:?}"
    );
    assert!(started.elapsed() < Duration::from_secs(5));

    // A prompt client is still served immediately.
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    handle.stop();
}

#[test]
fn a_flooding_client_that_disconnects_frees_the_daemon_for_others() {
    use std::io::Write;
    // Hold every search at its head for longer than the waiter's client-gone
    // probe cadence (100 ms): without the delay a release-mode search can
    // finish before the daemon ever notices the disconnect, and nothing
    // would be left to cancel.
    let _plan = fault::install(fault::FaultPlan::new().arm(
        "session.compile",
        fault::FaultAction::Delay(400),
        0,
    ));
    let handle = start(ServerConfig {
        workers: 1,
        ..small_server(None)
    })
    .unwrap();
    let addr = handle.addr();

    // Flood: fire distinct compile requests and hang up without reading the
    // answers. The waiter accounting notices each disconnect and cancels
    // the orphaned searches instead of grinding through them.
    for i in 0..4u64 {
        let body = compile_request(SQRT_CANCEL, "arith", 1000 + i);
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        write!(
            s,
            "POST /compile HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        s.flush().unwrap();
        drop(s);
    }

    // A live client still gets its (different) compile in bounded time.
    let started = std::time::Instant::now();
    let (status, doc) = post_compile(addr, &compile_request(QUADRATIC, "arith", 7));
    assert_eq!(status, 200, "{doc}");
    assert!(started.elapsed() < Duration::from_secs(60));
    assert!(
        stat(addr, "cancelled") >= 1,
        "at least the in-flight flooded search must have been cancelled"
    );
    handle.stop();
}

/// `(FPCore (x) (+ x (+ x ... x)))` with `lists` levels of list nesting.
fn nested_core(lists: usize) -> String {
    let adds = lists - 1;
    format!("(FPCore (x) {}x{})", "(+ x ".repeat(adds), ")".repeat(adds))
}

#[test]
fn a_deeply_nested_fpcore_gets_a_typed_400_and_the_daemon_survives() {
    let _plan = fault::install(fault::FaultPlan::new());
    let handle = start(small_server(None)).unwrap();
    let addr = handle.addr();

    // About 30 KB, far under the body cap, but nested 5000 deep: recursing
    // over it would overflow a connection thread's stack and abort the
    // process. The parser's depth cap turns it into a typed 400 instead.
    let deep = compile_request(&nested_core(5_000), "c99", 1);
    assert!(deep.len() > 30_000);
    // Flat variadic forms fold into trees as deep as they are long: a
    // 5000-argument sum, and a 5000-conjunct precondition.
    let flat_sum = format!("(FPCore (x) (+{}))", " x".repeat(5_000));
    let flat_pre = format!("(FPCore (x) :pre (and{}) x)", " (< x 1)".repeat(5_000));
    for body in [
        deep,
        compile_request(&flat_sum, "c99", 1),
        compile_request(&flat_pre, "c99", 1),
    ] {
        let (status, doc) = post_compile(addr, &body);
        assert_eq!(status, 400, "{doc}");
        assert_eq!(kind_of(&doc), "bad-request");
        assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    }

    // An expression exactly at the cap still compiles end to end.
    let at_cap = compile_request(&nested_core(fpcore::parser::MAX_DEPTH), "c99", 1);
    let (status, doc) = post_compile(addr, &at_cap);
    assert_eq!(status, 200, "{doc}");
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    handle.stop();
}

#[test]
fn a_doubling_let_chain_gets_a_typed_400_and_the_daemon_survives() {
    let _plan = fault::install(fault::FaultPlan::new());
    let handle = start(small_server(None)).unwrap();
    let addr = handle.addr();

    // Each binding names the previous one twice, so substitution would double
    // the tree 30 times: about 2^31 nodes from a 500-byte FPCore, built on
    // the connection thread before any deadline applies. The parser's node cap
    // turns it into a typed 400 instead.
    let bindings: String = (1..=30)
        .map(|i| format!("(a{i} (+ a{0} a{0}))", i - 1))
        .collect();
    let chain = format!("(FPCore (a0) (let* ({bindings}) a30))");
    let (status, doc) = post_compile(addr, &compile_request(&chain, "c99", 1));
    assert_eq!(status, 400, "{doc}");
    assert_eq!(kind_of(&doc), "bad-request");
    assert!(doc.to_string().contains("larger than"), "{doc}");
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    handle.stop();
}
