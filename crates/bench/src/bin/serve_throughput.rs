//! Daemon traffic replay: corpus compile requests against an in-process
//! `service` daemon, cold vs. warm vs. restarted-on-the-same-store — with a
//! response bit-identity check against direct [`chassis::Session::compile_many`].
//! This is the CI perf gate for the serving path (HTTP parsing, content
//! keying, the two-level result store, the worker pool), complementing
//! `search_throughput` (the search loop itself).
//!
//! Three kinds of sweep replay the identical request set through one store:
//!
//! 1. `cold` — a fresh daemon on an empty store: every request pays a full
//!    compile (plus, per benchmark, one sampling + ground-truth pass shared
//!    across targets through the daemon's session cache);
//! 2. `warm` — the same daemon again, [`WARM_SWEEPS`] times back to back:
//!    every request of every one must be a memory hit, and the gates read
//!    the median sweep, so one sweep slowed by the machine cannot decide
//!    them;
//! 3. `disk` — the daemon restarted on the same store directory with an
//!    empty memory level: every request must be served from disk.
//!
//! Every response body (cold, every warm sweep, disk) must be byte-identical
//! modulo the `cache` tag, and the cold frontier must match a direct
//! in-process `compile_many` at the same seed bit for bit (`rendered` strings
//! and the `*_hex` bit patterns) — exit 1 otherwise.
//!
//! Latency percentiles (p50/p99), requests/sec, and the daemon's own cache
//! counters are archived in `BENCH_serve.json` (schema 1) with a `history`
//! array carrying prior runs forward.
//!
//! Gates (machine-relative by construction — both sides of each ratio are
//! measured in the same run on the same machine):
//!
//! * `--min-warm-speedup X` requires cold sweep wall-clock ≥ X × the median
//!   warm sweep's (the content-addressed cache must actually pay for itself);
//! * `--max-warm-p99-frac F` requires the median warm sweep's p99 ≤ F × cold
//!   p50 (no warm request may cost a meaningful fraction of a compile).
//!
//! ```text
//! cargo run --release -p chassis-bench --bin serve_throughput -- \
//!     --limit 6 --min-warm-speedup 10 --max-warm-p99-frac 0.5 --out BENCH_serve.json
//! ```

use chassis_bench::{
    corpus_cores, flag_value, ms, percentile, prior_history, resolve_targets, stat, HarnessOptions,
    ResultGrid,
};
use fpcore::hash::canonical_text;
use fpcore::FPCore;
use service::{client, Json, ServerConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use targets::Target;

/// Same pair as `search_throughput`: one all-emulated, one partly native.
const TARGETS: &[&str] = &["c99", "arith-fma"];

/// Warm sweeps per run. A warm sweep of a few memory hits takes a few
/// milliseconds, so a single one swings with the machine's load: one took
/// twice as long as the disk sweep after it on a 2-core VM.
const WARM_SWEEPS: usize = 5;

struct Options {
    harness: HarnessOptions,
    workers: usize,
    min_warm_speedup: f64,
    max_warm_p99_frac: f64,
    out: String,
}

impl Options {
    /// The shared strict harness parser with this binary's own flags: an
    /// unknown flag or an unparsable value exits with status 2 instead of
    /// falling back to a default that could leave the gate disabled.
    fn from_args() -> Options {
        let (harness, extra) = HarnessOptions::from_args_with(
            6,
            &[
                "--workers",
                "--min-warm-speedup",
                "--max-warm-p99-frac",
                "--out",
            ],
        );
        Options {
            harness,
            workers: flag_value("--workers", extra[0].as_deref()).unwrap_or(2),
            min_warm_speedup: flag_value("--min-warm-speedup", extra[1].as_deref()).unwrap_or(0.0),
            max_warm_p99_frac: flag_value("--max-warm-p99-frac", extra[2].as_deref())
                .unwrap_or(0.0),
            out: extra[3]
                .clone()
                .unwrap_or_else(|| "BENCH_serve.json".to_owned()),
        }
    }

    /// The wire-protocol config name matching the harness configuration.
    fn config_name(&self) -> &'static str {
        if self.harness.fast {
            "fast"
        } else {
            "default"
        }
    }
}

/// One replayed request: the serialized body and, for reporting, its cell.
struct Replay {
    body: String,
    benchmark: usize,
    target: usize,
}

/// Aggregated outcome of one sweep over the request set.
struct Sweep {
    label: &'static str,
    total: Duration,
    latencies: Vec<Duration>,
    /// Response documents in request order.
    responses: Vec<Json>,
    /// The `cache` tag distribution, e.g. `miss` → 12.
    tags: Vec<(String, usize)>,
}

impl Sweep {
    fn p50(&self) -> Duration {
        percentile(&self.latencies, 0.50)
    }

    fn p99(&self) -> Duration {
        percentile(&self.latencies, 0.99)
    }

    fn rps(&self) -> f64 {
        self.responses.len() as f64 / self.total.as_secs_f64().max(1e-9)
    }
}

/// Replays every request serially against the daemon, collecting per-request
/// latency and the parsed response. A non-200 response is fatal: the corpus
/// request set is known-compilable, so any failure is a serving bug.
fn run_sweep(label: &'static str, addr: SocketAddr, requests: &[Replay]) -> Sweep {
    let mut latencies = Vec::with_capacity(requests.len());
    let mut responses = Vec::with_capacity(requests.len());
    let mut tags: Vec<(String, usize)> = Vec::new();
    let started = Instant::now();
    for request in requests {
        let sent = Instant::now();
        let response = client::post_json(addr, "/compile", &request.body).unwrap_or_else(|e| {
            eprintln!("error: {label}: request failed: {e}");
            std::process::exit(1);
        });
        latencies.push(sent.elapsed());
        if response.status != 200 {
            eprintln!(
                "error: {label}: benchmark {}, target {}: status {} ({})",
                request.benchmark, request.target, response.status, response.body
            );
            std::process::exit(1);
        }
        let doc = Json::parse(&response.body).unwrap_or_else(|e| {
            eprintln!("error: {label}: non-JSON response body: {e}");
            std::process::exit(1);
        });
        let tag = doc
            .get("cache")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned();
        match tags.iter_mut().find(|(t, _)| *t == tag) {
            Some((_, n)) => *n += 1,
            None => tags.push((tag, 1)),
        }
        responses.push(doc);
    }
    let total = started.elapsed();
    let mut sorted = latencies.clone();
    sorted.sort();
    Sweep {
        label,
        total,
        latencies: sorted,
        responses,
        tags,
    }
}

/// Every response in `sweep` must equal its counterpart in `reference`
/// field-for-field except the `cache` tag (the stored body is tag-free, so
/// however a result is served its bytes must agree).
fn responses_identical(reference: &Sweep, sweep: &Sweep) -> bool {
    let strip = |doc: &Json| -> Vec<(String, String)> {
        let Json::Obj(members) = doc else {
            return Vec::new();
        };
        members
            .iter()
            .filter(|(k, _)| k != "cache")
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect()
    };
    let mut ok = true;
    for (i, (a, b)) in reference.responses.iter().zip(&sweep.responses).enumerate() {
        if strip(a) != strip(b) {
            eprintln!(
                "error: request {i}: {} and {} responses differ beyond the cache tag",
                reference.label, sweep.label
            );
            ok = false;
        }
    }
    ok
}

/// The daemon's cold responses must carry the exact frontier a direct
/// in-process corpus compile produces at the same seed: same rendered
/// programs, same cost/error/accuracy bits (compared through the `*_hex`
/// fields — the decimal JSON numbers are lossy by design).
fn daemon_matches_direct(requests: &[Replay], cold: &Sweep, grid: &ResultGrid) -> bool {
    let hex = |doc: &Json, field: &str| -> String {
        doc.get(field)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned()
    };
    let mut ok = true;
    for (request, doc) in requests.iter().zip(&cold.responses) {
        let cell = format!("benchmark {}, target {}", request.benchmark, request.target);
        let Ok(direct) = &grid[request.benchmark][request.target] else {
            eprintln!("error: {cell}: direct compile failed where the daemon succeeded");
            ok = false;
            continue;
        };
        let served = doc
            .get("implementations")
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        if served.len() != direct.implementations.len() {
            eprintln!(
                "error: {cell}: daemon frontier has {} points, direct has {}",
                served.len(),
                direct.implementations.len()
            );
            ok = false;
            continue;
        }
        for (i, (s, d)) in served.iter().zip(&direct.implementations).enumerate() {
            let rendered = s.get("rendered").and_then(Json::as_str).unwrap_or_default();
            if rendered != d.rendered
                || hex(s, "cost_hex") != service::json::hex_bits(d.cost)
                || hex(s, "error_bits_hex") != service::json::hex_bits(d.error_bits)
                || hex(s, "accuracy_bits_hex") != service::json::hex_bits(d.accuracy_bits)
            {
                eprintln!("error: {cell}: frontier point {i} differs from the direct compile");
                ok = false;
            }
        }
        if let Some(initial) = doc.get("initial") {
            if initial
                .get("rendered")
                .and_then(Json::as_str)
                .unwrap_or_default()
                != direct.initial.rendered
            {
                eprintln!("error: {cell}: initial program differs from the direct compile");
                ok = false;
            }
        }
    }
    ok
}

fn sweep_json(s: &Sweep) -> String {
    format!(
        "{{\"total_ms\": {:.1}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}, \"rps\": {:.1}}}",
        ms(s.total),
        ms(s.p50()),
        ms(s.p99()),
        s.rps()
    )
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    seed: u64,
    n_benchmarks: usize,
    n_requests: usize,
    workers: usize,
    sweeps: &[&Sweep],
    warm_speedup: f64,
    disk_speedup: f64,
    history: &[String],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"benchmarks\": {n_benchmarks},\n"));
    let names: Vec<String> = TARGETS.iter().map(|t| format!("\"{t}\"")).collect();
    out.push_str(&format!("  \"targets\": [{}],\n", names.join(", ")));
    out.push_str(&format!("  \"requests\": {n_requests},\n"));
    out.push_str(&format!("  \"workers\": {workers},\n"));
    out.push_str("  \"sweeps\": {\n");
    for (i, sweep) in sweeps.iter().enumerate() {
        let comma = if i + 1 < sweeps.len() { "," } else { "" };
        out.push_str(&format!(
            "    \"{}\": {}{comma}\n",
            sweep.label,
            sweep_json(sweep)
        ));
    }
    out.push_str("  },\n");
    out.push_str(&format!(
        "  \"warm_speedup\": {warm_speedup:.2},\n  \"disk_speedup\": {disk_speedup:.2},\n"
    ));
    out.push_str("  \"history\": [\n");
    for (i, entry) in history.iter().enumerate() {
        let comma = if i + 1 < history.len() { "," } else { "" };
        out.push_str(&format!("    {entry}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

/// A scratch store directory under the system temp dir, fresh per run.
fn scratch_store() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chassis-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_daemon(options: &Options, disk: &Path) -> service::Handle {
    service::start(ServerConfig {
        workers: options.workers,
        disk_dir: Some(disk.to_path_buf()),
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("error: cannot start the daemon: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let options = Options::from_args();
    let harness = &options.harness;
    let benchmarks = harness.benchmarks();
    let cores: Vec<FPCore> = corpus_cores(&benchmarks);
    let target_list: Vec<Target> = resolve_targets(TARGETS);
    let config = harness.config();
    let seed = config.seed;
    println!(
        "{} benchmarks x {} targets, seed {seed}, {} workers, config {:?}\n",
        cores.len(),
        target_list.len(),
        options.workers,
        options.config_name()
    );

    // The reference: the same grid compiled directly, no daemon involved.
    let direct_started = Instant::now();
    let grid = chassis::Session::new(config).compile_many(&cores, &target_list);
    let direct = direct_started.elapsed();

    // The request set: every (benchmark, target) cell the corpus can
    // actually implement, in corpus order, as the daemon's wire protocol
    // spells it. Cells the direct compile rejects (e.g. an operator the
    // target lacks) are excluded from the replay — the daemon's typed-error
    // answers for those are covered by `tests/service.rs` — and counted
    // below so the narrowing is visible.
    let mut skipped = 0usize;
    let requests: Vec<Replay> = cores
        .iter()
        .enumerate()
        .flat_map(|(b, core)| {
            let text = canonical_text(core);
            let config_name = options.config_name();
            target_list
                .iter()
                .enumerate()
                .map(move |(t, target)| Replay {
                    body: Json::Obj(vec![
                        ("fpcore".to_owned(), Json::Str(text.clone())),
                        ("target".to_owned(), Json::Str(target.name.clone())),
                        ("seed".to_owned(), Json::from_u64(seed)),
                        ("config".to_owned(), Json::Str(config_name.to_owned())),
                    ])
                    .to_string(),
                    benchmark: b,
                    target: t,
                })
        })
        .filter(|r| {
            let ok = grid[r.benchmark][r.target].is_ok();
            if !ok {
                skipped += 1;
            }
            ok
        })
        .collect();
    if requests.is_empty() {
        eprintln!("error: no corpus cell compiles on any target");
        std::process::exit(1);
    }
    if skipped > 0 {
        println!("({skipped} uncompilable cell(s) excluded from the replay)");
    }

    let disk = scratch_store();
    let daemon = start_daemon(&options, &disk);
    let addr = daemon.addr();
    let cold = run_sweep("cold", addr, &requests);
    let mut warm_sweeps: Vec<Sweep> = (0..WARM_SWEEPS)
        .map(|_| run_sweep("warm", addr, &requests))
        .collect();
    let hits_memory = stat(addr, "hits_memory");
    let compiles = stat(addr, "compiles");
    daemon.stop();

    // Restart on the same store: the memory level is empty, the disk level
    // must answer everything.
    let daemon = start_daemon(&options, &disk);
    let addr = daemon.addr();
    let disk_sweep = run_sweep("disk", addr, &requests);
    let hits_disk = stat(addr, "hits_disk");
    daemon.stop();
    let _ = std::fs::remove_dir_all(&disk);

    // Correctness before performance: byte-identical bodies across sweeps,
    // bit-identical frontiers against the direct compile, and the cache
    // levels behaving as designed.
    let mut ok = true;
    for warm in &warm_sweeps {
        ok &= responses_identical(&cold, warm);
    }
    ok &= responses_identical(&cold, &disk_sweep);
    ok &= daemon_matches_direct(&requests, &cold, &grid);
    let n = requests.len() as u64;
    if compiles != n {
        eprintln!("error: cold sweep compiled {compiles} jobs, expected {n}");
        ok = false;
    }
    let warm_requests = WARM_SWEEPS as u64 * n;
    if hits_memory < warm_requests {
        eprintln!("error: warm sweeps took {hits_memory} memory hits, expected {warm_requests}");
        ok = false;
    }
    if hits_disk < n {
        eprintln!("error: restarted sweep took {hits_disk} disk hits, expected {n}");
        ok = false;
    }

    warm_sweeps.sort_by_key(|s| s.total);
    let warm_range = (warm_sweeps[0].total, warm_sweeps[WARM_SWEEPS - 1].total);
    let warm = warm_sweeps.swap_remove(WARM_SWEEPS / 2);
    let sweeps = [&cold, &warm, &disk_sweep];
    println!(
        "{:<6} {:>10} {:>10} {:>10} {:>10}   cache tags",
        "sweep", "total ms", "p50 ms", "p99 ms", "req/s"
    );
    for s in sweeps {
        let tags: Vec<String> = s.tags.iter().map(|(t, n)| format!("{t}:{n}")).collect();
        println!(
            "{:<6} {:>10.1} {:>10.2} {:>10.2} {:>10.1}   {}",
            s.label,
            ms(s.total),
            ms(s.p50()),
            ms(s.p99()),
            s.rps(),
            tags.join(" ")
        );
    }
    println!(
        "warm is the median of {WARM_SWEEPS} sweeps ({:.1} to {:.1} ms)",
        ms(warm_range.0),
        ms(warm_range.1)
    );
    println!(
        "direct compile_many: {:.1} ms (daemon cold overhead {:.2}x)",
        ms(direct),
        cold.total.as_secs_f64() / direct.as_secs_f64().max(1e-9)
    );

    let warm_speedup = cold.total.as_secs_f64() / warm.total.as_secs_f64().max(1e-9);
    let disk_speedup = cold.total.as_secs_f64() / disk_sweep.total.as_secs_f64().max(1e-9);
    println!(
        "\nwarm speedup: {warm_speedup:.1}x   disk speedup: {disk_speedup:.1}x   \
         responses bit-identical: {}",
        if ok { "yes" } else { "NO" }
    );

    let mut history = prior_history(&options.out);
    history.push(format!(
        "{{\"schema_version\": 1, \"seed\": {seed}, \"requests\": {}, \
         \"cold_ms\": {:.1}, \"warm_ms\": {:.1}, \"disk_ms\": {:.1}, \
         \"warm_p99_ms\": {:.2}, \"warm_speedup\": {warm_speedup:.2}, \
         \"disk_speedup\": {disk_speedup:.2}}}",
        requests.len(),
        ms(cold.total),
        ms(warm.total),
        ms(disk_sweep.total),
        ms(warm.p99()),
    ));
    let json = to_json(
        seed,
        cores.len(),
        requests.len(),
        options.workers,
        &sweeps,
        warm_speedup,
        disk_speedup,
        &history,
    );
    if let Err(e) = std::fs::write(&options.out, &json) {
        eprintln!("error: cannot write {}: {e}", options.out);
        std::process::exit(1);
    }
    println!("wrote {}", options.out);

    if !ok {
        eprintln!("error: the daemon served wrong or inconsistent results");
        std::process::exit(1);
    }
    if options.min_warm_speedup > 0.0 && warm_speedup < options.min_warm_speedup {
        eprintln!(
            "error: warm speedup {warm_speedup:.2}x below the floor {:.2}x",
            options.min_warm_speedup
        );
        std::process::exit(1);
    }
    if options.max_warm_p99_frac > 0.0 {
        let floor = options.max_warm_p99_frac * cold.p50().as_secs_f64();
        if warm.p99().as_secs_f64() > floor {
            eprintln!(
                "error: warm p99 {:.2} ms exceeds {:.2} x cold p50 ({:.2} ms)",
                ms(warm.p99()),
                options.max_warm_p99_frac,
                floor * 1e3
            );
            std::process::exit(1);
        }
    }
}
