//! hierbus benchmark: end-to-end metrics through the public `Session`
//! and `Server` APIs, plus a separate traced run that splits the time
//! by layer.
//!
//! ```text
//! cargo run --release --manifest-path hbnbench/Cargo.toml -- \
//!     --workload zipf-exact --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Every workload runs in *rounds*: a fresh session (or server) is
//! built, serves one untimed warm-up epoch, then a fixed amount of
//! timed work. Rounds repeat until `--seconds` have passed. All rounds
//! of a run do the same simulated work, so the exact (simulated)
//! metrics must repeat bit for bit. Timings are robust statistics over
//! the rounds (see `README.md`). The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`;
//! the line before it carries the run's provenance. The process exits
//! with code 1 when any output check fails. See `README.md` for the
//! workloads, the metrics and which layer metric should move which
//! end-to-end metric.

mod replica;
mod scenario;
mod server;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 3] = ["zipf-exact", "churn-static-estimate", "server-closed"];

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 8] = [
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("makespan_slots", "slots"),
    ("online_congestion", "load"),
    ("competitive_ratio", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: [(&str, &str); 32] = [
    ("workload.stream_s", "s"),
    ("core.refit_s", "s"),
    ("dynamic.serve_s", "s"),
    ("load.snapshot_s", "s"),
    ("load.accounting_s", "s"),
    ("sim.price_s", "s"),
    ("scenario.epoch_s", "s"),
    ("scenario.epoch_p50_ms", "ms"),
    ("scenario.checkpoint_s", "s"),
    ("workload.stream_pct", "%"),
    ("core.refit_pct", "%"),
    ("dynamic.serve_pct", "%"),
    ("load.snapshot_pct", "%"),
    ("load.accounting_pct", "%"),
    ("sim.replay_pct", "%"),
    ("sim.estimate_pct", "%"),
    ("server.submit_pct", "%"),
    ("server.wait_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("core.refits", "count"),
    ("dynamic.replications", "count"),
    ("dynamic.collapses", "count"),
    ("sim.edge_crossings", "count"),
    ("sim.delivered_updates", "count"),
    ("scenario.checkpoint_bytes", "B"),
    ("server.queue_depth_p50", "count"),
    ("server.accepted", "count"),
    ("server.rejected_full", "count"),
    ("server.deadline_shed", "count"),
    ("server.degraded_epochs", "count"),
    ("server.restarts", "count"),
];

/// Back-to-back constructions timed for `setup_s` before every round.
/// All but the first of a burst reuse memory the allocator already
/// holds, so most samples do not hinge on what fresh page faults cost
/// on the host at that moment.
pub const SETUP_BURST: usize = 5;

/// Rounds every run makes even when `--seconds` has already passed.
pub const MIN_ROUNDS: usize = 3;

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Output checks that failed, one line each (empty = correct).
    pub problems: Vec<String>,
    /// Operations attempted: epochs on the scenario workloads, batches
    /// on `server-closed`.
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Rounds measured.
    pub rounds: usize,
    /// Timed batches measured (epochs or server batches, all rounds).
    pub samples: usize,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Run settings shared by every workload.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for checkpoint files, removed when the run ends.
    pub tmp_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Fold the per-round metrics into their medians over rounds, add the
/// run-level ones, and write the traced run's spans.
pub fn finish(
    out: &mut Outcome,
    rounds: &[BTreeMap<&'static str, f64>],
    setup_s: &[f64],
    cfg: &RunConfig,
    tracer: &trace::Tracer,
) {
    out.rounds = rounds.len();
    for key in rounds.first().map(|m| m.keys().copied().collect::<Vec<_>>()).unwrap_or_default() {
        out.set(key, stats::median(&rounds.iter().map(|m| m[key]).collect::<Vec<_>>()));
    }
    out.set("setup_s", stats::median(setup_s));
    out.set("peak_rss_mb", peak_rss_mb());
    out.check(out.attempted > 0, || "no operation was attempted".into());
    if cfg.trace {
        if let Err(e) = tracer.write_jsonl(&cfg.trace_out) {
            out.problems.push(format!("writing {}: {e}", cfg.trace_out.display()));
        }
    }
}

/// `git rev-parse HEAD` of the current directory's repository, or
/// `"unknown"` outside a git checkout.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hbnbench: {e}");
            eprintln!(
                "usage: hbnbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        tmp_dir: out_dir.join(format!("tmp-{}", std::process::id())),
        trace_out: out_dir.join(format!("trace-{}.jsonl", args.workload)),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.tmp_dir) {
        eprintln!("hbnbench: cannot create {}: {e}", cfg.tmp_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = match args.workload.as_str() {
        "zipf-exact" => scenario::run(scenario::Kind::ZipfExact, &cfg),
        "churn-static-estimate" => scenario::run(scenario::Kind::ChurnStaticEstimate, &cfg),
        _ => server::run(&cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.tmp_dir);
    let mut outcome = outcome;

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )),
            Some(v) => outcome.problems.push(format!("metric {name} is not finite ({v})")),
            None => outcome.problems.push(format!("metric {name} was not measured")),
        }
    }
    for p in &outcome.problems {
        eprintln!("hbnbench: CHECK FAILED: {p}");
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"provenance\": {{\"commit\": \"{}\", \"nproc\": {}, \"profile\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"rounds\": {}, \"timed_batches\": {}}}}}",
        commit(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.rounds,
        outcome.samples,
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A finite `f64` as a JSON number with every digit Rust prints.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}
