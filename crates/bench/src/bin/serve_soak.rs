//! Overload soak: more clients than workers hammer the daemon with fresh
//! compiles under mixed deadlines while seeded latency faults (delays and
//! one-shot stalls) run in the pipeline — the CI gate for the daemon's
//! resilience (deadlines, cooperative cancellation, watchdog reclamation;
//! see `docs/RESILIENCE.md`).
//!
//! Phases, all against one daemon on one store:
//!
//! 1. `calibration` — the corpus request set compiled serially with no
//!    deadlines and no faults. Every response must be 200; the measured
//!    compile p50 sizes the deadlines and time bounds below, so every gate
//!    is machine-relative.
//! 2. `overload` rounds — `--clients` threads (more than `--workers`), each
//!    replaying `--per-client` *fresh* compile requests (unique seeds, so
//!    nothing is cache-served) through the retrying client, under a
//!    [`fault::FaultPlan::seeded_latency`] plan arming `store.read`,
//!    `store.write`, and `session.compile` (stalls only on the latter, where
//!    the watchdog can reclaim the worker) plus a delay on `service.accept`.
//!    Ahead of the seeded arms, every round stalls its first
//!    `session.compile`, so every round has a worker for the watchdog to
//!    reclaim. Deadlines rotate per request: tight (sheds or expires),
//!    generous (survives the queue), and none (must never be starved).
//! 3. `recovery` after each round — the plan is dropped, the calibration set
//!    is replayed, and in-flight must drain to zero: every answer a memory
//!    hit, every answer 200.
//! 4. `fast path` — a final warm sweep; its p99 is the overload-survivor
//!    latency floor.
//!
//! Hard gates (exit 1):
//!
//! * every overload request resolves within a bound derived from the
//!   calibration wall-clock — a wedge (worker leak, lost wakeup, stuck
//!   flight) fails the round;
//! * every resolution is a 200 result or a *typed* JSON error
//!   (`error.kind`); an untyped body or a transport failure after retries
//!   fails;
//! * every round's stalled worker is reclaimed: `workers_replaced` rises
//!   within 4 × the generous deadline + 10 s of the round resolving;
//! * every recovery sweep is all-200 with in-flight drained to 0 — stalled
//!   workers must have been reclaimed, deadline-free traffic never starved;
//! * with `--max-fast-p99-frac F`: final warm p99 ≤ F × calibration p50;
//! * at least one fault actually fired across the soak (else the plans are
//!   miswired and the gate is vacuous).
//!
//! Results are archived in `BENCH_soak.json` (schema 1) with a `history`
//! array carrying prior runs forward.
//!
//! ```text
//! cargo run --release -p chassis-bench --bin serve_soak -- \
//!     --limit 2 --rounds 2 --max-fast-p99-frac 0.5 --out BENCH_soak.json
//! ```

use chassis_bench::{
    corpus_cores, flag_value, ms, percentile, prior_history, resolve_targets, stat, HarnessOptions,
};
use fault::{FaultAction, FaultPlan};
use fpcore::hash::canonical_text;
use fpcore::FPCore;
use service::{client, Json, RetryPolicy, ServerConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use targets::Target;

/// Same pair as `serve_throughput`: one all-emulated, one partly native.
const TARGETS: &[&str] = &["c99", "arith-fma"];

struct Options {
    harness: HarnessOptions,
    workers: usize,
    clients: usize,
    per_client: usize,
    rounds: usize,
    max_fast_p99_frac: f64,
    out: String,
}

impl Options {
    /// The shared strict harness parser with this binary's own flags: an
    /// unknown flag or an unparsable value exits with status 2 instead of
    /// falling back to a default that could leave the gate disabled.
    fn from_args() -> Options {
        let (harness, extra) = HarnessOptions::from_args_with(
            2,
            &[
                "--workers",
                "--clients",
                "--per-client",
                "--rounds",
                "--max-fast-p99-frac",
                "--out",
            ],
        );
        let options = Options {
            harness,
            workers: flag_value("--workers", extra[0].as_deref()).unwrap_or(2),
            clients: flag_value("--clients", extra[1].as_deref()).unwrap_or(4),
            per_client: flag_value("--per-client", extra[2].as_deref()).unwrap_or(3),
            rounds: flag_value("--rounds", extra[3].as_deref()).unwrap_or(3),
            max_fast_p99_frac: flag_value("--max-fast-p99-frac", extra[4].as_deref())
                .unwrap_or(0.0),
            out: extra[5]
                .clone()
                .unwrap_or_else(|| "BENCH_soak.json".to_owned()),
        };
        if options.clients <= options.workers {
            eprintln!(
                "warning: {} clients do not overload {} workers; the soak is weaker",
                options.clients, options.workers
            );
        }
        options
    }

    fn config_name(&self) -> &'static str {
        if self.harness.fast {
            "fast"
        } else {
            "default"
        }
    }
}

/// SplitMix64 step, the workspace's standard seed expander.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deadline class a soak request carries, rotated per request so every
/// round mixes shed-prone, queue-surviving, and unbounded traffic.
#[derive(Clone, Copy, PartialEq)]
enum DeadlineKind {
    Tight,
    Generous,
    None,
}

/// One resolved overload request, classified for the typed-resolution gate.
struct Outcome {
    deadline: DeadlineKind,
    status: u16,
    /// `"ok"`, the typed `error.kind`, or `"untyped:..."` (a gate failure).
    kind: String,
}

/// Serializes one compile request body the way the wire protocol spells it.
fn request_body(
    core_text: &str,
    target: &str,
    seed: u64,
    config: &str,
    client: &str,
    deadline_ms: Option<u64>,
) -> String {
    let mut members = vec![
        ("fpcore".to_owned(), Json::Str(core_text.to_owned())),
        ("target".to_owned(), Json::Str(target.to_owned())),
        ("seed".to_owned(), Json::from_u64(seed)),
        ("config".to_owned(), Json::Str(config.to_owned())),
        ("client".to_owned(), Json::Str(client.to_owned())),
    ];
    if let Some(deadline) = deadline_ms {
        members.push(("deadline_ms".to_owned(), Json::from_u64(deadline)));
    }
    Json::Obj(members).to_string()
}

/// Classifies a response: a 200 with a parseable body is `ok`; any error
/// status with a JSON `error.kind` is that kind; everything else is
/// `untyped` and fails the gate.
fn classify(status: u16, body: &str) -> String {
    let Ok(doc) = Json::parse(body) else {
        return format!("untyped: non-JSON body at status {status}");
    };
    if status == 200 {
        return "ok".to_owned();
    }
    match doc
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
    {
        Some(kind) => kind.to_owned(),
        None => format!("untyped: status {status} without error.kind"),
    }
}

/// Replays `bodies` serially, requiring a 200 for each; returns latencies.
/// `label` names the sweep in the failure message.
fn all_200_sweep(label: &str, addr: SocketAddr, bodies: &[String]) -> Vec<Duration> {
    let mut latencies = Vec::with_capacity(bodies.len());
    for (i, body) in bodies.iter().enumerate() {
        let sent = Instant::now();
        let response = client::post_json(addr, "/compile", body).unwrap_or_else(|e| {
            eprintln!("error: {label}: request {i} failed: {e}");
            std::process::exit(1);
        });
        latencies.push(sent.elapsed());
        if response.status != 200 {
            eprintln!(
                "error: {label}: request {i}: status {} ({})",
                response.status, response.body
            );
            std::process::exit(1);
        }
    }
    latencies.sort();
    latencies
}

/// Polls `/stats` until `inflight` reads 0, failing after `bound`.
fn drain_inflight(addr: SocketAddr, bound: Duration) {
    let started = Instant::now();
    loop {
        let inflight = stat(addr, "inflight");
        if inflight == 0 {
            return;
        }
        if started.elapsed() > bound {
            eprintln!("error: {inflight} job(s) still in flight {bound:?} after the round — leak");
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Aggregated outcome of one overload round.
struct Round {
    seed: u64,
    elapsed: Duration,
    fires: u64,
    /// `kind` → count over the round's resolutions.
    tally: Vec<(String, usize)>,
}

fn tally_json(tally: &[(String, usize)]) -> String {
    let members: Vec<String> = tally
        .iter()
        .map(|(kind, n)| format!("\"{kind}\": {n}"))
        .collect();
    format!("{{{}}}", members.join(", "))
}

fn main() {
    let options = Options::from_args();
    let harness = &options.harness;
    let benchmarks = harness.benchmarks();
    let cores: Vec<FPCore> = corpus_cores(&benchmarks);
    let target_list: Vec<Target> = resolve_targets(TARGETS);
    let config = harness.config();
    let seed = config.seed;
    let config_name = options.config_name();
    println!(
        "{} benchmarks x {} targets, seed {seed}, {} workers, {} clients x {} requests, \
         {} rounds\n",
        cores.len(),
        target_list.len(),
        options.workers,
        options.clients,
        options.per_client,
        options.rounds,
    );

    let core_texts: Vec<String> = cores.iter().map(canonical_text).collect();
    let calibration_bodies: Vec<String> = core_texts
        .iter()
        .flat_map(|text| {
            target_list.iter().map(move |target| {
                request_body(text, &target.name, seed, config_name, "calibrate", None)
            })
        })
        .collect();

    let disk = std::env::temp_dir().join(format!("chassis-serve-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&disk);
    // Aggressive watchdog settings: the soak wants reclamation to happen
    // *within* the run, not on production timescales.
    let daemon = service::start(ServerConfig {
        workers: options.workers,
        disk_dir: Some(disk.clone()),
        watchdog_interval: Duration::from_millis(25),
        stuck_multiple: 2,
        stuck_after: Duration::from_secs(3),
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("error: cannot start the daemon: {e}");
        std::process::exit(1);
    });
    let addr = daemon.addr();

    // Phase 1: calibration. Serial, fault-free, deadline-free; the measured
    // compile cost makes every later bound machine-relative.
    let calibration_started = Instant::now();
    let calibration = all_200_sweep("calibration", addr, &calibration_bodies);
    let calibration_total = calibration_started.elapsed();
    let compile_p50 = percentile(&calibration, 0.50);
    let tight_ms = (ms(compile_p50) / 20.0).clamp(5.0, 100.0) as u64;
    let generous_ms = (ms(compile_p50) * 20.0).clamp(2_000.0, 10_000.0) as u64;
    println!(
        "calibration: {} requests in {:.1} ms (p50 {:.1} ms) — tight deadline {tight_ms} ms, \
         generous {generous_ms} ms",
        calibration_bodies.len(),
        ms(calibration_total),
        ms(compile_p50),
    );

    // Phase 2: overload rounds. Every request is a fresh compile (unique
    // seed) so the queue actually fills; resolution is bounded by the
    // calibration-derived wall clock plus watchdog slack.
    let n_round = options.clients * options.per_client;
    let round_bound = calibration_total
        .mul_f64(4.0 * (n_round as f64 / calibration_bodies.len().max(1) as f64).max(1.0))
        + Duration::from_millis(4 * generous_ms)
        + Duration::from_secs(30);
    // A stalled job is written off within 2 × its deadline budget, or 3 s
    // without one: well inside this bound.
    let reclaim_bound = Duration::from_millis(4 * generous_ms) + Duration::from_secs(10);
    let mut rounds: Vec<Round> = Vec::new();
    let mut untyped: Vec<String> = Vec::new();
    let mut starved: usize = 0;
    let mut total_fires = 0u64;
    for round in 0..options.rounds {
        let round_seed = seed ^ (0xB0B5_0000 + round as u64);
        let seeded = FaultPlan::seeded_latency(
            round_seed,
            // Stalls only where the watchdog owns the thread: a stalled
            // connection thread has no reclaimer, a stalled worker does.
            &["store.read", "store.write", "session.compile"],
            &["session.compile"],
        );
        // The round's first compile stalls, so every round has a worker to
        // reclaim. Arms are checked in order and the first that fires wins,
        // so the stall goes ahead of any seeded arm on the same site.
        let plan = seeded
            .arms()
            .iter()
            .fold(
                FaultPlan::new().arm("session.compile", FaultAction::Stall, 0),
                |plan, arm| plan.arm(&arm.site, arm.action, arm.after),
            )
            .arm(
                "service.accept",
                FaultAction::Delay(10 + round_seed % 40),
                round as u64 % 3,
            );
        let replaced_before = stat(addr, "workers_replaced");
        let armed = fault::install(plan);
        let completed = Arc::new(AtomicUsize::new(0));
        let outcomes: Arc<Mutex<Vec<Outcome>>> = Arc::new(Mutex::new(Vec::with_capacity(n_round)));
        let round_started = Instant::now();
        let handles: Vec<_> = (0..options.clients)
            .map(|client_idx| {
                let completed = Arc::clone(&completed);
                let outcomes = Arc::clone(&outcomes);
                let core_texts = core_texts.clone();
                let target_names: Vec<String> =
                    target_list.iter().map(|t| t.name.clone()).collect();
                let per_client = options.per_client;
                std::thread::spawn(move || {
                    let mut jitter_seed = round_seed ^ (client_idx as u64).wrapping_mul(0x9E37);
                    let policy = RetryPolicy {
                        attempts: 3,
                        base: Duration::from_millis(50),
                        cap: Duration::from_millis(500),
                        seed: splitmix64(&mut jitter_seed),
                    };
                    let client_name = format!("soak-c{client_idx}");
                    for iter in 0..per_client {
                        let deadline = match (client_idx + iter) % 3 {
                            0 => DeadlineKind::Tight,
                            1 => DeadlineKind::Generous,
                            _ => DeadlineKind::None,
                        };
                        let deadline_ms = match deadline {
                            DeadlineKind::Tight => Some(tight_ms),
                            DeadlineKind::Generous => Some(generous_ms),
                            DeadlineKind::None => None,
                        };
                        let slot = client_idx * per_client + iter;
                        let body = request_body(
                            &core_texts[slot % core_texts.len()],
                            &target_names[slot % target_names.len()],
                            // A seed no other phase uses: every round request
                            // is a genuinely fresh compile.
                            0x50AC_0000 + round_seed.wrapping_mul(1000) + slot as u64,
                            "fast",
                            &client_name,
                            deadline_ms,
                        );
                        let outcome = match client::request_with_retry(
                            addr,
                            "POST",
                            "/compile",
                            Some(&body),
                            &policy,
                        ) {
                            Ok(response) => Outcome {
                                deadline,
                                status: response.status,
                                kind: classify(response.status, &response.body),
                            },
                            Err(e) => Outcome {
                                deadline,
                                status: 0,
                                kind: format!("untyped: transport failure ({e})"),
                            },
                        };
                        outcomes.lock().unwrap().push(outcome);
                        completed.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();

        // The wedge monitor: the round must fully resolve within the
        // machine-relative bound, or the daemon has leaked a worker, lost a
        // wakeup, or stuck a flight.
        while completed.load(Ordering::SeqCst) < n_round {
            if round_started.elapsed() > round_bound {
                eprintln!(
                    "error: round {round}: {}/{} requests resolved after {:.1} s — the daemon \
                     wedged (inflight {}, watchdog_fired {}, workers_replaced {})",
                    completed.load(Ordering::SeqCst),
                    n_round,
                    round_bound.as_secs_f64(),
                    stat(addr, "inflight"),
                    stat(addr, "watchdog_fired"),
                    stat(addr, "workers_replaced"),
                );
                std::process::exit(1);
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        for handle in handles {
            let _ = handle.join();
        }
        let elapsed = round_started.elapsed();
        // The stall holds its worker until the plan drops, so the watchdog
        // must have reclaimed it first: otherwise nothing in the round showed
        // that stuck-worker reclaim works.
        let reclaim_started = Instant::now();
        while stat(addr, "workers_replaced") <= replaced_before {
            if reclaim_started.elapsed() > reclaim_bound {
                eprintln!(
                    "error: round {round}: no stalled worker was reclaimed {:.1} s after the \
                     round resolved (watchdog_fired {})",
                    reclaim_bound.as_secs_f64(),
                    stat(addr, "watchdog_fired"),
                );
                std::process::exit(1);
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        let fires = armed.fires();
        drop(armed);
        total_fires += fires;

        let mut tally: Vec<(String, usize)> = Vec::new();
        {
            let outcomes = outcomes.lock().unwrap();
            for outcome in outcomes.iter() {
                if outcome.kind.starts_with("untyped") {
                    untyped.push(format!(
                        "round {round}: status {}: {}",
                        outcome.status, outcome.kind
                    ));
                }
                // A deadline-free request may still lose its worker to a
                // one-shot stall (the watchdog's typed 5xx is the contract),
                // but a shed or expiry on it means deadline plumbing leaked
                // into traffic that never asked for a deadline.
                if outcome.deadline == DeadlineKind::None
                    && outcome.status != 200
                    && outcome.kind == "deadline"
                {
                    starved += 1;
                    untyped.push(format!(
                        "round {round}: a deadline-free request resolved as \"deadline\""
                    ));
                }
                match tally.iter_mut().find(|(kind, _)| *kind == outcome.kind) {
                    Some((_, n)) => *n += 1,
                    None => tally.push((outcome.kind.clone(), 1)),
                }
            }
        }
        tally.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let shown: Vec<String> = tally.iter().map(|(k, n)| format!("{k}:{n}")).collect();
        println!(
            "round {round}: {n_round} requests in {:>7.1} ms, {fires} fault(s) fired   {}",
            ms(elapsed),
            shown.join(" ")
        );

        // Phase 3: recovery. No faults armed, no deadlines: the calibration
        // set must come straight from cache, and in-flight must drain —
        // stalled workers were reclaimed, nothing wedged, nobody starved.
        drain_inflight(addr, Duration::from_secs(10));
        let label = format!("recovery after round {round}");
        all_200_sweep(&label, addr, &calibration_bodies);
        rounds.push(Round {
            seed: round_seed,
            elapsed,
            fires,
            tally,
        });
    }

    // Phase 4: the fast path after the storm. Warm hits must still be warm.
    let fast = all_200_sweep("fast path", addr, &calibration_bodies);
    let fast_p99 = percentile(&fast, 0.99);
    let snapshot: Vec<(&str, u64)> = [
        "compiles",
        "cancelled",
        "deadline_shed",
        "watchdog_fired",
        "workers_replaced",
        "queue_rejected",
        "uptime_ms",
    ]
    .iter()
    .map(|field| (*field, stat(addr, field)))
    .collect();
    daemon.stop();
    let _ = std::fs::remove_dir_all(&disk);

    println!(
        "\nfast path p99 {:.2} ms (calibration p50 {:.1} ms)   daemon: {}",
        ms(fast_p99),
        ms(compile_p50),
        snapshot
            .iter()
            .map(|(field, n)| format!("{field}:{n}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let mut history = prior_history(&options.out);
    let round_ms_mean = if rounds.is_empty() {
        0.0
    } else {
        rounds.iter().map(|r| ms(r.elapsed)).sum::<f64>() / rounds.len() as f64
    };
    let lookup = |field: &str| {
        snapshot
            .iter()
            .find(|(f, _)| *f == field)
            .map_or(0, |(_, n)| *n)
    };
    history.push(format!(
        "{{\"schema_version\": 1, \"seed\": {seed}, \"requests\": {}, \
         \"round_ms_mean\": {round_ms_mean:.1}, \"fast_p99_ms\": {:.2}, \
         \"watchdog_fired\": {}, \"untyped\": {}}}",
        options.rounds * n_round,
        ms(fast_p99),
        lookup("watchdog_fired"),
        untyped.len(),
    ));

    let mut out = String::new();
    out.push_str("{\n  \"schema_version\": 1,\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"benchmarks\": {},\n", cores.len()));
    let names: Vec<String> = TARGETS.iter().map(|t| format!("\"{t}\"")).collect();
    out.push_str(&format!("  \"targets\": [{}],\n", names.join(", ")));
    out.push_str(&format!(
        "  \"workers\": {}, \"clients\": {}, \"per_client\": {},\n",
        options.workers, options.clients, options.per_client
    ));
    out.push_str(&format!(
        "  \"calibration\": {{\"requests\": {}, \"total_ms\": {:.1}, \"p50_ms\": {:.2}}},\n",
        calibration_bodies.len(),
        ms(calibration_total),
        ms(compile_p50)
    ));
    out.push_str(&format!(
        "  \"deadlines_ms\": {{\"tight\": {tight_ms}, \"generous\": {generous_ms}}},\n"
    ));
    out.push_str("  \"rounds\": [\n");
    for (i, round) in rounds.iter().enumerate() {
        let comma = if i + 1 < rounds.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"seed\": {}, \"requests\": {n_round}, \"round_ms\": {:.1}, \
             \"fires\": {}, \"outcomes\": {}}}{comma}\n",
            round.seed,
            ms(round.elapsed),
            round.fires,
            tally_json(&round.tally)
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"fast_path\": {{\"p99_ms\": {:.2}, \"max_frac_of_compile_p50\": {}}},\n",
        ms(fast_p99),
        options.max_fast_p99_frac
    ));
    out.push_str("  \"daemon\": {");
    out.push_str(
        &snapshot
            .iter()
            .map(|(field, n)| format!("\"{field}\": {n}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    out.push_str("},\n");
    out.push_str("  \"history\": [\n");
    for (i, entry) in history.iter().enumerate() {
        let comma = if i + 1 < history.len() { "," } else { "" };
        out.push_str(&format!("    {entry}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&options.out, &out) {
        eprintln!("error: cannot write {}: {e}", options.out);
        std::process::exit(1);
    }
    println!("wrote {}", options.out);

    // Gates, correctness first.
    let mut ok = true;
    if !untyped.is_empty() {
        for line in &untyped {
            eprintln!("error: {line}");
        }
        eprintln!(
            "error: {} request(s) resolved without a typed answer ({starved} starvation)",
            untyped.len()
        );
        ok = false;
    }
    if total_fires == 0 {
        eprintln!("error: the soak never fired a fault — plans or sites are miswired");
        ok = false;
    }
    if options.max_fast_p99_frac > 0.0 {
        let floor = options.max_fast_p99_frac * compile_p50.as_secs_f64();
        if fast_p99.as_secs_f64() > floor {
            eprintln!(
                "error: post-soak warm p99 {:.2} ms exceeds {:.2} x calibration p50 ({:.2} ms)",
                ms(fast_p99),
                options.max_fast_p99_frac,
                floor * 1e3
            );
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    println!("soak clean: every request resolved typed, the daemon recovered every round");
}
