//! `mlcd` — command-line front end for the MLCD deployment system.
//!
//! Local commands:
//!
//! ```text
//! mlcd catalog                                   # the instance catalog
//! mlcd jobs                                      # preset training jobs
//! mlcd curves --job char-rnn --type c5.4xlarge   # ground-truth speed curve
//! mlcd optimum --job resnet-cifar10 --budget 100 # the oracle's answer
//! mlcd search --job resnet-cifar10 --budget 100 \
//!      --searcher heterbo --seed 7 [--types c5.xlarge,c5.4xlarge] [--json] \
//!      [--trace trace.jsonl]
//! ```
//!
//! Client commands against a running `mlcd-serve` (newline-delimited JSON
//! over TCP; `--addr` defaults to `127.0.0.1:7070`):
//!
//! ```text
//! mlcd submit --job resnet-cifar10 --budget 150 [--priority 3]
//! mlcd status [--id 1]
//! mlcd result --id 1 [--wait] [--json]
//! mlcd watch  --id 1
//! mlcd cancel --id 1
//! mlcd stats
//! mlcd shutdown
//! ```

use mlcd::prelude::*;
use mlcd::search::{searcher_by_name, SEARCHER_NAMES};
use serde_json::{json, Value};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else { usage("missing command") };
    let opts = match Opts::parse(rest) {
        Ok(o) => o,
        Err(e) => usage(&e),
    };
    match cmd.as_str() {
        "catalog" => catalog(),
        "jobs" => jobs(),
        "curves" => curves(&opts),
        "optimum" => optimum(&opts),
        "search" => search(&opts),
        "submit" => submit(&opts),
        "status" => status(&opts),
        "result" => result(&opts),
        "watch" => watch(&opts),
        "cancel" => cancel(&opts),
        "stats" => stats(&opts),
        "shutdown" => shutdown(&opts),
        "help" | "--help" | "-h" => usage(""),
        other => usage(&format!("unknown command `{other}`")),
    }
}

/// Parsed command-line options.
#[derive(Default)]
struct Opts {
    job: Option<String>,
    itype: Option<String>,
    types: Option<Vec<String>>,
    budget: Option<f64>,
    deadline: Option<f64>,
    searcher: Option<String>,
    seed: u64,
    max_nodes: u32,
    json: bool,
    trace: Option<String>,
    addr: String,
    id: Option<u64>,
    wait: bool,
    priority: u8,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            seed: 2020,
            max_nodes: 50,
            addr: "127.0.0.1:7070".to_string(),
            ..Default::default()
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut take = || -> Result<&String, String> {
                it.next().ok_or_else(|| format!("missing value after {a}"))
            };
            match a.as_str() {
                "--job" => o.job = Some(take()?.clone()),
                "--type" => o.itype = Some(take()?.clone()),
                "--types" => {
                    o.types = Some(take()?.split(',').map(|s| s.trim().to_string()).collect())
                }
                "--budget" => {
                    o.budget = Some(take()?.parse().map_err(|_| "--budget takes dollars")?)
                }
                "--deadline" => {
                    o.deadline = Some(take()?.parse().map_err(|_| "--deadline takes hours")?)
                }
                "--searcher" => o.searcher = Some(take()?.to_lowercase()),
                "--seed" => o.seed = take()?.parse().map_err(|_| "--seed takes an integer")?,
                "--max-nodes" => {
                    o.max_nodes = take()?.parse().map_err(|_| "--max-nodes takes an integer")?
                }
                "--json" => o.json = true,
                "--trace" => o.trace = Some(take()?.clone()),
                "--addr" => o.addr = take()?.clone(),
                "--id" => o.id = Some(take()?.parse().map_err(|_| "--id takes a session id")?),
                "--wait" => o.wait = true,
                "--priority" => {
                    o.priority = take()?.parse().map_err(|_| "--priority takes 0–255")?
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(o)
    }

    fn scenario(&self) -> Result<Scenario, String> {
        match (self.deadline, self.budget) {
            (Some(_), Some(_)) => Err("give --deadline or --budget, not both".into()),
            (Some(h), None) => Ok(Scenario::CheapestWithDeadline(SimDuration::from_hours(h))),
            (None, Some(d)) => Ok(Scenario::FastestWithBudget(Money::from_dollars(d))),
            (None, None) => Ok(Scenario::FastestUnlimited),
        }
    }

    fn training_job(&self) -> Result<TrainingJob, String> {
        let name = self.job.as_deref().ok_or("--job is required")?;
        job_by_name(name)
            .ok_or_else(|| format!("unknown job `{name}`; run `mlcd jobs` for the presets"))
    }

    fn runner(&self) -> Result<ExperimentRunner, String> {
        let mut r = ExperimentRunner::new(self.seed).with_max_nodes(self.max_nodes);
        if let Some(ts) = &self.types {
            let mut parsed = Vec::new();
            for t in ts {
                parsed
                    .push(InstanceType::from_name(t).ok_or_else(|| format!("unknown type `{t}`"))?);
            }
            r = r.with_types(parsed);
        }
        Ok(r)
    }
}

/// Preset jobs by CLI name (the canonical mapping lives with the models).
fn job_by_name(name: &str) -> Option<TrainingJob> {
    TrainingJob::by_name(name)
}

fn catalog() {
    println!(
        "{:<14} {:>6} {:>8} {:>6} {:>9} {:>9} {:>8}",
        "type", "vcpus", "mem GiB", "gpus", "net Gbps", "$/hour", "vs c5.xl"
    );
    for t in InstanceType::all() {
        let s = t.spec();
        println!(
            "{:<14} {:>6} {:>8.1} {:>6} {:>9.2} {:>9.3} {:>7.2}×",
            s.name,
            s.vcpus,
            s.memory_gib,
            s.accelerators.map_or(0, |(_, c)| c),
            s.network_gbps,
            s.hourly_usd,
            t.normalized_cost()
        );
    }
}

fn jobs() {
    println!("{:<20} {:>12} {:>14} {:>10} platform/topology", "name", "params", "samples", "batch");
    for name in TrainingJob::preset_names() {
        let j = job_by_name(name).expect("preset exists");
        println!(
            "{:<20} {:>12} {:>14} {:>10} {} / {}",
            name,
            format_params(j.model.params),
            j.total_samples() as u64,
            j.global_batch,
            j.platform,
            j.topology
        );
    }
}

fn format_params(p: f64) -> String {
    if p >= 1e9 {
        format!("{:.1}B", p / 1e9)
    } else {
        format!("{:.1}M", p / 1e6)
    }
}

fn curves(opts: &Opts) {
    let job = opts.training_job().unwrap_or_else(|e| usage(&e));
    let tname = opts.itype.as_deref().unwrap_or_else(|| usage("--type is required for curves"));
    let itype =
        InstanceType::from_name(tname).unwrap_or_else(|| usage(&format!("unknown type `{tname}`")));
    let truth = ThroughputModel::default();
    println!("# {} on {} — true training speed", job.model.name, itype);
    println!("{:>5} {:>12} {:>12} {:>12}", "n", "samples/s", "train h", "train $");
    for n in 1..=opts.max_nodes {
        match truth.throughput(&job, itype, n) {
            Ok(s) => {
                let h = job.total_samples() / s / 3600.0;
                println!("{n:>5} {s:>12.1} {h:>12.2} {:>12.2}", h * itype.hourly_usd() * n as f64);
            }
            Err(e) => println!("{n:>5} {:>12}", format!("({e})")),
        }
    }
}

fn optimum(opts: &Opts) {
    let job = opts.training_job().unwrap_or_else(|e| usage(&e));
    let scenario = opts.scenario().unwrap_or_else(|e| usage(&e));
    let runner = opts.runner().unwrap_or_else(|e| usage(&e));
    match runner.optimum(&job, &scenario) {
        Some(opt) => {
            println!("scenario : {scenario}");
            println!("optimum  : {}", opt.deployment);
            println!("speed    : {:.1} samples/s", opt.speed);
            println!(
                "training : {:.2} h, ${:.2}",
                opt.train_time.as_hours(),
                opt.train_cost.dollars()
            );
        }
        None => {
            eprintln!("no deployment can satisfy {scenario}");
            std::process::exit(1);
        }
    }
}

fn search(opts: &Opts) {
    let job = opts.training_job().unwrap_or_else(|e| usage(&e));
    let scenario = opts.scenario().unwrap_or_else(|e| usage(&e));
    let runner = opts.runner().unwrap_or_else(|e| usage(&e));
    let seed = opts.seed;
    let name = opts.searcher.as_deref().unwrap_or("heterbo");
    let searcher = match name {
        "paleo" => None,
        other => match searcher_by_name(other, seed) {
            Some(s) => Some(s),
            None => {
                usage(&format!("unknown searcher `{other}` ({}, paleo)", SEARCHER_NAMES.join(", ")))
            }
        },
    };
    let outcome = match searcher {
        Some(s) => match &opts.trace {
            Some(path) => {
                let (outcome, trace) = runner.run_traced(s.as_ref(), &job, &scenario);
                let jsonl = trace.to_jsonl().unwrap_or_else(|e| {
                    eprintln!("error: cannot serialise trace: {e}");
                    std::process::exit(2);
                });
                if let Err(e) = std::fs::write(path, jsonl) {
                    eprintln!("error: cannot write trace to `{path}`: {e}");
                    std::process::exit(2);
                }
                outcome
            }
            None => runner.run(s.as_ref(), &job, &scenario),
        },
        None => {
            if opts.trace.is_some() {
                usage("--trace is not supported with --searcher paleo (it runs no search loop)");
            }
            runner.run_paleo(&job, &scenario)
        }
    };

    if opts.json {
        println!("{}", serde_json::to_string_pretty(&outcome).expect("serialisable"));
        return;
    }
    println!("job      : {} on {}", job.model.name, job.dataset.name);
    println!("scenario : {scenario}");
    println!("searcher : {}", outcome.searcher);
    println!();
    for step in &outcome.search.steps {
        println!(
            "  probe {:>2}: {:>16} → {:>8.1} samples/s  ({:>7}, {:>5.1} min)",
            step.index,
            step.observation.deployment.to_string(),
            step.observation.speed,
            step.observation.profile_cost.to_string(),
            step.observation.profile_time.as_mins()
        );
    }
    println!();
    match outcome.plan {
        Some(p) => println!("deployment : {}", p.deployment),
        None => println!("deployment : none found"),
    }
    println!(
        "profiling  : {:>8.2} h  ${:>9.2}",
        outcome.search.profile_time.as_hours(),
        outcome.search.profile_cost.dollars()
    );
    println!(
        "training   : {:>8.2} h  ${:>9.2}",
        outcome.train_time.as_hours(),
        outcome.train_cost.dollars()
    );
    println!(
        "total      : {:>8.2} h  ${:>9.2}",
        outcome.total_hours(),
        outcome.total_cost.dollars()
    );
    println!("compliant  : {}", if outcome.satisfied { "yes" } else { "NO" });
    if !outcome.satisfied {
        std::process::exit(1);
    }
}

// ---- service client commands (NDJSON over TCP) ----------------------
//
// These speak the mlcd-service wire protocol by hand — requests are
// externally tagged JSON values, one per line — so the CLI stays free of
// a dependency on the service crate (which depends on this one).

/// One request out, one response line back.
fn roundtrip(addr: &str, request: &Value) -> Result<(BufReader<TcpStream>, Value), String> {
    let stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot reach mlcd-serve at {addr}: {e}"))?;
    // One write per frame with Nagle off, the rule the server follows.
    stream.set_nodelay(true).map_err(|e| format!("connection error: {e}"))?;
    let mut reader =
        BufReader::new(stream.try_clone().map_err(|e| format!("connection error: {e}"))?);
    let mut out = stream;
    let mut line = serde_json::to_string(request).map_err(|e| format!("bad request: {e}"))?;
    line.push('\n');
    out.write_all(line.as_bytes()).map_err(|e| format!("send failed: {e}"))?;
    let first = read_response(&mut reader)?;
    Ok((reader, first))
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Result<Value, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("server closed the connection".to_string()),
        Ok(_) => serde_json::from_str(line.trim()).map_err(|e| format!("bad response: {e}")),
        Err(e) => Err(format!("receive failed: {e}")),
    }
}

fn client_fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

/// Print the status rows of a `StatusReport` response.
fn print_status_rows(report: &Value) {
    let Some(rows) = report.get("sessions").and_then(Value::as_array) else {
        client_fail("malformed status report");
    };
    println!(
        "{:>4} {:<20} {:<10} {:>6} {:>4} {:<10}",
        "id", "job", "searcher", "seed", "pri", "state"
    );
    for row in rows {
        println!(
            "{:>4} {:<20} {:<10} {:>6} {:>4} {:<10}",
            row["id"].as_u64().unwrap_or(0),
            row["job"].as_str().unwrap_or("?"),
            row["searcher"].as_str().unwrap_or("?"),
            row["seed"].as_u64().unwrap_or(0),
            row["priority"].as_u64().unwrap_or(0),
            row["state"].as_str().unwrap_or("?"),
        );
    }
}

fn submit(opts: &Opts) {
    let job = opts.job.as_deref().unwrap_or_else(|| usage("--job is required for submit"));
    // Optional constraint fields ride as null — the server treats null
    // and absent identically and fills the defaults.
    let spec = json!({
        "job": job,
        "searcher": opts.searcher.as_deref().unwrap_or("heterbo"),
        "seed": opts.seed,
        "priority": opts.priority,
        "max_nodes": opts.max_nodes,
        "budget": opts.budget,
        "deadline_hours": opts.deadline,
        "types": opts.types.clone(),
    });
    let (_, resp) =
        roundtrip(&opts.addr, &json!({"Submit": spec})).unwrap_or_else(|e| client_fail(&e));
    if let Some(id) = resp.get("Submitted").and_then(|s| s["id"].as_u64()) {
        println!("submitted session {id}");
    } else if let Some(rej) = resp.get("Rejected") {
        let reason = rej["reason"].as_str().unwrap_or("rejected");
        if rej["queue_full"].as_bool().unwrap_or(false) {
            client_fail(&format!("{reason} — retry later"));
        }
        client_fail(reason);
    } else {
        client_fail(&format!("unexpected response: {resp:?}"));
    }
}

fn status(opts: &Opts) {
    let id = match opts.id {
        Some(id) => json!(id),
        None => Value::Null,
    };
    let (_, resp) =
        roundtrip(&opts.addr, &json!({"Status": {"id": id}})).unwrap_or_else(|e| client_fail(&e));
    match resp.get("StatusReport") {
        Some(report) => print_status_rows(report),
        None => client_fail(resp["Error"]["message"].as_str().unwrap_or("unexpected response")),
    }
}

fn result(opts: &Opts) {
    let id = opts.id.unwrap_or_else(|| usage("--id is required for result"));
    let (_, resp) = roundtrip(&opts.addr, &json!({"Result": {"id": id, "wait": opts.wait}}))
        .unwrap_or_else(|e| client_fail(&e));
    if let Some(ready) = resp.get("ResultReady") {
        let r = &ready["result"];
        if opts.json {
            println!("{}", serde_json::to_string_pretty(r).expect("re-render fetched JSON"));
            return;
        }
        println!("session    : {id}");
        println!("searcher   : {}", r["searcher"].as_str().unwrap_or("?"));
        if r["plan"].is_null() {
            println!("deployment : none found");
        } else {
            println!(
                "deployment : {}×{}",
                r["plan"]["deployment"]["n"].as_u64().unwrap_or(0),
                r["plan"]["deployment"]["itype"].as_str().unwrap_or("?")
            );
        }
        println!(
            "profiling  : {:>8.2} h  ${:>9.2}",
            r["search"]["profile_time"].as_f64().unwrap_or(0.0) / 3600.0,
            r["search"]["profile_cost"].as_f64().unwrap_or(0.0)
        );
        println!(
            "training   : {:>8.2} h  ${:>9.2}",
            r["train_time"].as_f64().unwrap_or(0.0) / 3600.0,
            r["train_cost"].as_f64().unwrap_or(0.0)
        );
        println!(
            "total      : {:>8.2} h  ${:>9.2}",
            r["total_time"].as_f64().unwrap_or(0.0) / 3600.0,
            r["total_cost"].as_f64().unwrap_or(0.0)
        );
        println!(
            "compliant  : {}",
            if r["satisfied"].as_bool().unwrap_or(false) { "yes" } else { "NO" }
        );
    } else if let Some(nr) = resp.get("NotReady") {
        println!("session {id} is {} (use --wait to block)", nr["state"].as_str().unwrap_or("?"));
    } else {
        client_fail(resp["Error"]["message"].as_str().unwrap_or("unexpected response"));
    }
}

fn watch(opts: &Opts) {
    let id = opts.id.unwrap_or_else(|| usage("--id is required for watch"));
    let (mut reader, resp) =
        roundtrip(&opts.addr, &json!({"Watch": {"id": id}})).unwrap_or_else(|e| client_fail(&e));
    if resp.get("Watching").is_none() {
        client_fail(resp["Error"]["message"].as_str().unwrap_or("unexpected response"));
    }
    // Write through an explicit handle: `watch | head` closes the pipe
    // mid-stream, and that must end the tail quietly, not panic.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    loop {
        let value = read_response(&mut reader).unwrap_or_else(|e| client_fail(&e));
        let done = value.get("WatchEnd").is_some();
        let line = if let Some(end) = value.get("WatchEnd") {
            format!("# session {id} ended: {}", end["state"].as_str().unwrap_or("?"))
        } else {
            // Everything between Watching and WatchEnd is a raw trace event.
            serde_json::to_string(&value).expect("re-render fetched JSON")
        };
        if writeln!(out, "{line}").is_err() || done {
            return;
        }
    }
}

fn cancel(opts: &Opts) {
    let id = opts.id.unwrap_or_else(|| usage("--id is required for cancel"));
    let (_, resp) =
        roundtrip(&opts.addr, &json!({"Cancel": {"id": id}})).unwrap_or_else(|e| client_fail(&e));
    if resp.get("Cancelling").is_some() {
        println!("cancellation requested for session {id}");
    } else {
        client_fail(resp["Error"]["message"].as_str().unwrap_or("unexpected response"));
    }
}

fn stats(opts: &Opts) {
    let (_, resp) = roundtrip(&opts.addr, &json!("Stats")).unwrap_or_else(|e| client_fail(&e));
    let Some(s) = resp.get("Stats").map(|v| &v["stats"]) else {
        client_fail(resp["Error"]["message"].as_str().unwrap_or("unexpected response"));
    };
    if opts.json {
        println!("{}", serde_json::to_string(s).expect("re-render fetched JSON"));
        return;
    }
    let n = |key: &str| s[key].as_u64().unwrap_or(0);
    println!("live sessions   {}", n("live_sessions"));
    println!("queued          {}", n("queued"));
    println!("evicted         {}", n("evicted"));
    println!("cache hits      {}", n("cache_hits"));
    println!("cache misses    {}", n("cache_misses"));
    println!("grid hits       {}", n("grid_hits"));
    println!("grid misses     {}", n("grid_misses"));
    let gc = s["group_commit"].as_bool().unwrap_or(false);
    println!("group commit    {}", if gc { "on" } else { "off" });
    if gc {
        println!("journal groups  {}", n("journal_groups"));
        println!("journal records {}", n("journal_records"));
        println!("checkpoints     {}", n("journal_checkpoints"));
    }
    if let Some(rows) = s["sim_events"].as_array() {
        println!("sim events      kind                 sched    disp  cancel");
        for row in rows {
            let c = |key: &str| row[key].as_u64().unwrap_or(0);
            println!(
                "                {:<18} {:>7} {:>7} {:>7}",
                row["kind"].as_str().unwrap_or("?"),
                c("scheduled"),
                c("dispatched"),
                c("cancelled")
            );
        }
    }
    let f = &s["fleet"];
    if !matches!(f, Value::Null) {
        let c = |key: &str| f[key].as_u64().unwrap_or(0);
        println!("fleet policy    {}", f["policy"].as_str().unwrap_or("?"));
        println!("  admitted      {}", c("admitted"));
        println!("  deferred      {}", c("deferred"));
        println!("  denied        {}", c("denied"));
        println!("  preempted     {}", c("preempted"));
        println!("  queue depth   {}", c("queue_depth"));
    }
}

fn shutdown(opts: &Opts) {
    let (_, resp) = roundtrip(&opts.addr, &json!("Shutdown")).unwrap_or_else(|e| client_fail(&e));
    if resp.get("ShuttingDown").is_some() || matches!(&resp, Value::Str(s) if s == "ShuttingDown") {
        println!("server at {} is shutting down", opts.addr);
    } else {
        client_fail(&format!("unexpected response: {resp:?}"));
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "mlcd — MLaaS training Cloud Deployment\n\
         \n\
         USAGE:\n\
         \u{20}  mlcd catalog\n\
         \u{20}  mlcd jobs\n\
         \u{20}  mlcd curves  --job <name> --type <instance> [--max-nodes N]\n\
         \u{20}  mlcd optimum --job <name> [--budget $ | --deadline h] [--types a,b] [--max-nodes N]\n\
         \u{20}  mlcd search  --job <name> [--budget $ | --deadline h] [--searcher S]\n\
         \u{20}               [--seed N] [--types a,b] [--max-nodes N] [--json]\n\
         \u{20}               [--trace FILE]   # structured search events as JSON Lines\n\
         \n\
         \u{20}  # against a running `mlcd-serve` (--addr HOST:PORT, default 127.0.0.1:7070):\n\
         \u{20}  mlcd submit  --job <name> [--budget $ | --deadline h] [--searcher S]\n\
         \u{20}               [--seed N] [--priority P] [--types a,b] [--max-nodes N]\n\
         \u{20}  mlcd status  [--id N]\n\
         \u{20}  mlcd result  --id N [--wait] [--json]\n\
         \u{20}  mlcd watch   --id N\n\
         \u{20}  mlcd cancel  --id N\n\
         \u{20}  mlcd stats   [--json]\n\
         \u{20}  mlcd shutdown\n\
         \n\
         jobs: {}\n\
         searchers: {} (default heterbo; `search` also accepts paleo)",
        TrainingJob::preset_names().join(", "),
        SEARCHER_NAMES.join(", ")
    );
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Opts::parse(&owned)
    }

    #[test]
    fn parses_full_flag_set() {
        let o = parse(&[
            "--job",
            "char-rnn",
            "--budget",
            "120",
            "--searcher",
            "HeterBO",
            "--seed",
            "7",
            "--types",
            "c5.xlarge, c5.4xlarge",
            "--max-nodes",
            "30",
            "--json",
            "--trace",
            "out.jsonl",
        ])
        .unwrap();
        assert_eq!(o.job.as_deref(), Some("char-rnn"));
        assert_eq!(o.budget, Some(120.0));
        assert_eq!(o.searcher.as_deref(), Some("heterbo"));
        assert_eq!(o.seed, 7);
        assert_eq!(o.max_nodes, 30);
        assert!(o.json);
        assert_eq!(o.trace.as_deref(), Some("out.jsonl"));
        assert_eq!(o.types, Some(vec!["c5.xlarge".to_string(), "c5.4xlarge".to_string()]));
    }

    #[test]
    fn rejects_bad_flags_and_values() {
        assert!(parse(&["--unknown"]).is_err());
        assert!(parse(&["--budget"]).is_err());
        assert!(parse(&["--budget", "lots"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
    }

    #[test]
    fn scenario_mapping() {
        let o = parse(&["--budget", "50"]).unwrap();
        assert!(matches!(o.scenario(), Ok(Scenario::FastestWithBudget(_))));
        let o = parse(&["--deadline", "6"]).unwrap();
        assert!(matches!(o.scenario(), Ok(Scenario::CheapestWithDeadline(_))));
        let o = parse(&[]).unwrap();
        assert!(matches!(o.scenario(), Ok(Scenario::FastestUnlimited)));
        let o = parse(&["--budget", "50", "--deadline", "6"]).unwrap();
        assert!(o.scenario().is_err());
    }

    #[test]
    fn every_preset_job_resolves() {
        for name in TrainingJob::preset_names() {
            assert!(job_by_name(name).is_some(), "{name}");
        }
        assert!(job_by_name("nope").is_none());
    }

    #[test]
    fn parses_client_flags() {
        let o =
            parse(&["--addr", "127.0.0.1:9999", "--id", "4", "--wait", "--priority", "7"]).unwrap();
        assert_eq!(o.addr, "127.0.0.1:9999");
        assert_eq!(o.id, Some(4));
        assert!(o.wait);
        assert_eq!(o.priority, 7);
        let o = parse(&[]).unwrap();
        assert_eq!(o.addr, "127.0.0.1:7070");
        assert_eq!(o.priority, 0);
        assert!(parse(&["--id", "x"]).is_err());
        assert!(parse(&["--priority", "300"]).is_err());
    }

    #[test]
    fn runner_rejects_unknown_type() {
        let o = parse(&["--types", "m5.humongous"]).unwrap();
        assert!(o.runner().is_err());
    }

    #[test]
    fn params_formatting() {
        assert_eq!(format_params(6.4e6), "6.4M");
        assert_eq!(format_params(20e9), "20.0B");
    }
}
