//! `serve`: the compilation daemon CLI.
//!
//! ```text
//! serve [--addr HOST:PORT] [--workers N] [--capacity N] [--disk DIR]
//!       [--max-queued N] [--sessions N] [--stuck-after SECS]
//! ```
//!
//! Binds, prints the listening address (port 0 resolves to a free port), and
//! runs until `POST /shutdown` or the process is killed. See
//! `docs/SERVICE.md` for the wire protocol and a quick-start, and
//! `docs/RESILIENCE.md` for deadlines and the stuck-worker watchdog.

use service::{start, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--workers N] [--capacity N] \
         [--disk DIR] [--max-queued N] [--sessions N] [--stuck-after SECS]"
    );
    std::process::exit(2)
}

fn parsed<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(raw) = value else {
        eprintln!("serve: {flag} needs a value");
        usage()
    };
    match raw.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("serve: invalid value {raw:?} for {flag}");
            usage()
        }
    }
}

fn main() -> ExitCode {
    let mut config = ServerConfig {
        addr: "127.0.0.1:8091".to_owned(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = parsed::<String>("--addr", args.next()),
            "--workers" => config.workers = parsed("--workers", args.next()),
            "--capacity" => config.memory_capacity = parsed("--capacity", args.next()),
            "--disk" => config.disk_dir = Some(parsed::<PathBuf>("--disk", args.next())),
            "--max-queued" => config.max_queued = parsed("--max-queued", args.next()),
            "--sessions" => config.max_sessions = parsed("--sessions", args.next()),
            "--stuck-after" => {
                config.stuck_after = Duration::from_secs(parsed("--stuck-after", args.next()));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("serve: unknown flag {other:?}");
                usage()
            }
        }
    }

    match start(config) {
        Ok(handle) => {
            println!("chassis service listening on http://{}", handle.addr());
            handle.wait();
            println!("chassis service stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve: failed to start: {e}");
            ExitCode::FAILURE
        }
    }
}
