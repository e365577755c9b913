//! `mlcd-serve` — run the deployment-planning service.
//!
//! ```text
//! mlcd-serve --listen 127.0.0.1:7070 --journal-dir /var/lib/mlcd \
//!            [--workers N] [--queue-cap N] [--no-probe-cache] \
//!            [--no-grid-cache] [--shards N] [--retain-cap N] \
//!            [--no-group-commit]
//! mlcd-serve --fleet fairshare [--fleet-seed N] [--fleet-cpu-cap N] \
//!            [--fleet-gpu-cap N] ...
//! ```
//!
//! `--fleet <policy>` runs every session as a tenant of `mlcd-fleet`'s
//! strict-handoff driver: one shared finite-capacity pool (caps from
//! `--fleet-cpu-cap`/`--fleet-gpu-cap`, provider and spot market seeded
//! from `--fleet-seed`) arbitrated by the named scheduler (`fifo`,
//! `deadline` or `fairshare`). Each session arrives at the pool's clock
//! when a worker picks it up. It is incompatible with `--journal-dir`:
//! arrival instants are not journaled, so a restart could not replay
//! the pool.
//!
//! On start the journal directory is scanned: finished sessions are
//! restored (their results stay queryable), in-flight ones are resumed by
//! deterministic replay. The first stdout line is always
//! `listening on <addr>` so scripts can bind port 0 and read the
//! ephemeral port back.

use mlcd_service::{Server, ServiceConfig, SessionManager};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: mlcd-serve [--listen ADDR] [--journal-dir DIR] \
                     [--workers N] [--queue-cap N] [--no-probe-cache] \
                     [--no-grid-cache] [--shards N] [--retain-cap N] \
                     [--no-group-commit] [--fleet POLICY] [--fleet-seed N] \
                     [--fleet-cpu-cap N] [--fleet-gpu-cap N]";

fn main() -> ExitCode {
    let mut listen = "127.0.0.1:7070".to_string();
    let mut cfg = ServiceConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        let parsed: Result<(), String> = match arg.as_str() {
            "--listen" => value("--listen").map(|v| listen = v),
            "--journal-dir" => {
                value("--journal-dir").map(|v| cfg.journal_dir = Some(PathBuf::from(v)))
            }
            "--workers" => value("--workers").and_then(|v| {
                v.parse().map(|n| cfg.workers = n).map_err(|e| format!("--workers: {e}"))
            }),
            "--queue-cap" => value("--queue-cap").and_then(|v| {
                v.parse().map(|n| cfg.queue_cap = n).map_err(|e| format!("--queue-cap: {e}"))
            }),
            "--no-probe-cache" => {
                cfg.probe_cache = false;
                Ok(())
            }
            "--no-grid-cache" => {
                cfg.grid_cache = false;
                Ok(())
            }
            "--shards" => value("--shards").and_then(|v| {
                v.parse().map(|n| cfg.shards = n).map_err(|e| format!("--shards: {e}"))
            }),
            "--retain-cap" => value("--retain-cap").and_then(|v| {
                v.parse().map(|n| cfg.retain_terminal = n).map_err(|e| format!("--retain-cap: {e}"))
            }),
            "--no-group-commit" => {
                cfg.group_commit = false;
                Ok(())
            }
            "--fleet" => value("--fleet").map(|v| {
                cfg.fleet.get_or_insert_with(Default::default).policy = v;
            }),
            "--fleet-seed" => value("--fleet-seed").and_then(|v| {
                v.parse()
                    .map(|n| cfg.fleet.get_or_insert_with(Default::default).seed = n)
                    .map_err(|e| format!("--fleet-seed: {e}"))
            }),
            "--fleet-cpu-cap" => value("--fleet-cpu-cap").and_then(|v| {
                v.parse()
                    .map(|n| cfg.fleet.get_or_insert_with(Default::default).cpu_cap = n)
                    .map_err(|e| format!("--fleet-cpu-cap: {e}"))
            }),
            "--fleet-gpu-cap" => value("--fleet-gpu-cap").and_then(|v| {
                v.parse()
                    .map(|n| cfg.fleet.get_or_insert_with(Default::default).gpu_cap = n)
                    .map_err(|e| format!("--fleet-gpu-cap: {e}"))
            }),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag `{other}`\n{USAGE}")),
        };
        if let Err(msg) = parsed {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    if cfg.workers == 0 {
        eprintln!("--workers must be at least 1");
        return ExitCode::FAILURE;
    }

    let manager = match SessionManager::new(cfg) {
        Ok(m) => Arc::new(m),
        Err(e) => {
            eprintln!("failed to start session manager: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(&listen, manager) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            // Scripts parse this line to discover an ephemeral port.
            println!("listening on {addr}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("failed to read bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("server error: {e}");
            ExitCode::FAILURE
        }
    }
}
