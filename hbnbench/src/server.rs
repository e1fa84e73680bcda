//! The `server-closed` workload: a closed-loop client against
//! `hbn_server::Server`.
//!
//! One generator thread (the main thread) keeps [`WINDOW`] batches
//! outstanding in all, submitting to the tenants in turn. It waits on
//! the oldest outstanding ticket, records its latency from the start of
//! `submit` to `Ticket::wait` returning, and submits the next tenant's
//! next batch. With one batch outstanding, at most one tenant worker
//! serves at a time, so the generator, that worker and the watchdog's
//! checkpoints fit a two-core host; a deeper window runs more threads
//! than cores and the tail latency then measures the scheduler. The
//! window stays below the default `high_water` of 8, so no epoch
//! degrades and the simulated work is the same in every round.

use crate::replica::{layer_metrics, replicate};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig, MIN_ROUNDS, SETUP_BURST};
use hbn_dynamic::OnlineRequest;
use hbn_scenario::{EpochSummary, ScenarioReport, ScenarioSpec, Session, TopologyFamily};
use hbn_server::{ServeMode, Server, ServerConfig, Ticket};
use hbn_workload::{ObjectId, PhaseSchedule};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// Live objects per tenant.
const OBJECTS: usize = 64;
/// Requests per batch; each batch is served as one epoch.
const BATCH: usize = 200;
const WRITE_FRACTION: f64 = 0.25;
/// Batches outstanding across all tenants.
const WINDOW: usize = 1;
/// Timed batches per tenant per round, after one warm-up batch: 2000
/// timed batches, so a round's p99 has 20 samples beyond it.
const ROUND_BATCHES: usize = 1000;
const DEADLINE: Duration = Duration::from_secs(2);
/// Epochs between the shadow session's checkpoints: about the served
/// epochs per tenant in one 20 ms watchdog period.
const CHECKPOINT_EVERY: usize = 25;

/// Per-layer metrics only the server workload measures; the scenario
/// workloads report them as zero.
pub const SERVER_LAYER_METRICS: [&str; 8] = [
    "server.submit_pct",
    "server.wait_pct",
    "server.queue_depth_p50",
    "server.accepted",
    "server.rejected_full",
    "server.deadline_shed",
    "server.degraded_epochs",
    "server.restarts",
];

fn tenant_spec(name: &str, seed: u64) -> ScenarioSpec {
    ScenarioSpec::builder(
        name,
        TopologyFamily::Balanced { branching: 4, height: 2 },
        PhaseSchedule::new(OBJECTS, vec![]),
    )
    .threshold(2)
    .seed(seed)
    .build()
}

/// SplitMix64: the client's own seeded generator. It lives here, not in
/// the vendored `rand`, so that a change to the code under test cannot
/// change the benchmark's inputs.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The batches of one tenant: uniform processors and objects, 25%
/// writes, deterministic in `seed`. Batch 0 is the warm-up.
fn tenant_batches(spec: &ScenarioSpec, tenant: usize, seed: u64) -> Vec<Vec<OnlineRequest>> {
    let procs = spec.build_network().processors().to_vec();
    let mut rng = SplitMix(seed ^ (tenant as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    (0..=ROUND_BATCHES)
        .map(|_| {
            (0..BATCH)
                .map(|_| OnlineRequest {
                    processor: procs[rng.below(procs.len())],
                    object: ObjectId(rng.below(OBJECTS) as u32),
                    is_write: rng.unit() < WRITE_FRACTION,
                })
                .collect()
        })
        .collect()
}

/// One latency sample of a timed batch.
struct Sample {
    /// Index of the batch among the round's timed batches, the same in
    /// every round.
    batch: usize,
    submit_s: f64,
    wait_s: f64,
    latency_s: f64,
    queue_depth: usize,
}

struct ServerRound {
    ok_requests: u64,
    samples: Vec<Sample>,
    reports: Vec<ScenarioReport>,
    counters: [u64; 5],
}

fn start_server(dir: &Path, specs: &[ScenarioSpec]) -> std::io::Result<Server> {
    let server = Server::new(ServerConfig::new(dir))?;
    for spec in specs {
        server.add_tenant(spec.clone());
    }
    Ok(server)
}

fn server_round(
    dir: &Path,
    specs: &[ScenarioSpec],
    batches: &[Vec<Vec<OnlineRequest>>],
    out: &mut Outcome,
) -> Option<ServerRound> {
    let server = match start_server(dir, specs) {
        Ok(s) => s,
        Err(e) => {
            out.problems.push(format!("Server::new failed: {e}"));
            return None;
        }
    };
    for (name, tenant_batches) in TENANTS.iter().zip(batches) {
        let warm = server.submit(name, tenant_batches[0].clone(), Some(DEADLINE));
        out.check(warm.is_ok_and(|t| t.wait().is_ok()), || format!("{name} warm-up failed"));
    }

    let mut round = ServerRound {
        ok_requests: 0,
        samples: Vec::with_capacity(TENANTS.len() * ROUND_BATCHES),
        reports: Vec::new(),
        counters: [0; 5],
    };
    let mut next = [1usize; TENANTS.len()];
    let mut pending: VecDeque<(usize, usize, Ticket, Instant, f64)> = VecDeque::new();
    let mut turn = 0;
    // Submit the next batch of the next tenant, in turn, that has one left.
    let mut submit = |pending: &mut VecDeque<_>, out: &mut Outcome| {
        let Some(tenant) = (0..TENANTS.len())
            .map(|k| (turn + k) % TENANTS.len())
            .find(|&t| next[t] <= ROUND_BATCHES)
        else {
            return;
        };
        turn = tenant + 1;
        let i = next[tenant];
        next[tenant] += 1;
        out.attempted += 1;
        let batch = batches[tenant][i].clone();
        let at = Instant::now();
        match server.submit(TENANTS[tenant], batch, Some(DEADLINE)) {
            Ok(ticket) => pending.push_back((tenant, i, ticket, at, at.elapsed().as_secs_f64())),
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("{} batch {i} rejected: {e}", TENANTS[tenant]));
            }
        }
    };

    for _ in 0..WINDOW {
        submit(&mut pending, out);
    }
    while let Some((tenant, i, ticket, at, submit_s)) = pending.pop_front() {
        let waiting = Instant::now();
        let resolved = ticket.wait();
        let done = Instant::now();
        match resolved {
            Ok(o) => {
                out.check(o.epoch == i && o.mode == ServeMode::Exact, || {
                    format!(
                        "{} batch {i} served as epoch {} in {:?}",
                        TENANTS[tenant], o.epoch, o.mode
                    )
                });
                out.check(o.summary.traffic.requests == batches[tenant][i].len() as u64, || {
                    format!(
                        "{} batch {i} served {} requests",
                        TENANTS[tenant], o.summary.traffic.requests
                    )
                });
                round.ok_requests += o.summary.traffic.requests;
                round.samples.push(Sample {
                    batch: tenant * ROUND_BATCHES + i - 1,
                    submit_s,
                    wait_s: (done - waiting).as_secs_f64(),
                    latency_s: (done - at).as_secs_f64(),
                    queue_depth: o.queue_depth,
                });
            }
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("{} batch {i} failed: {e}", TENANTS[tenant]));
            }
        }
        submit(&mut pending, out);
    }

    let submitted = ROUND_BATCHES as u64 + 1;
    for name in TENANTS {
        match (server.metrics(name), server.report(name)) {
            (Ok(m), Ok(report)) => {
                out.check(m.accepted == submitted && m.served == submitted, || {
                    format!(
                        "{name}: {submitted} submitted, {} accepted, {} served",
                        m.accepted, m.served
                    )
                });
                out.check(m.degraded_epochs == 0 && m.restarts == 0, || {
                    format!(
                        "{name}: {} degraded epochs, {} restarts",
                        m.degraded_epochs, m.restarts
                    )
                });
                let c =
                    [m.accepted, m.rejected_full, m.deadline_shed, m.degraded_epochs, m.restarts];
                for (sum, v) in round.counters.iter_mut().zip(c) {
                    *sum += v;
                }
                round.reports.push(report);
            }
            (m, r) => {
                out.problems.push(format!("{name}: metrics {:?}, report {:?}", m.err(), r.err()))
            }
        }
    }
    let expected: u64 = batches.iter().flat_map(|b| &b[1..]).map(|b| b.len() as u64).sum();
    out.check(round.ok_requests == expected, || {
        format!("served {} of {expected} submitted requests", round.ok_requests)
    });
    drop(server.shutdown());
    let _ = std::fs::remove_dir_all(dir);
    Some(round)
}

/// The shadow sessions of the traced run: each tenant's recorded
/// batches pushed through a fresh `Session`, checkpointed every
/// [`CHECKPOINT_EVERY`] epochs. Returns the summed `push_epoch` time.
fn shadow_round(
    specs: &[ScenarioSpec],
    batches: &[Vec<Vec<OnlineRequest>>],
    reports: &[ScenarioReport],
    tmp_dir: &Path,
    m: &mut BTreeMap<&'static str, f64>,
    out: &mut Outcome,
) -> f64 {
    let (mut push_s, mut checkpoint_s, mut last_bytes) = (Vec::new(), 0.0, 0u64);
    for ((spec, tenant_batches), report) in specs.iter().zip(batches).zip(reports) {
        let path = tmp_dir.join(format!("{}.hbnc", spec.name));
        let mut session = Session::new(spec);
        let mut bytes = 0;
        for (i, batch) in tenant_batches.iter().enumerate() {
            let t = Instant::now();
            let pushed = session.push_epoch(batch);
            if i > 0 {
                push_s.push(t.elapsed().as_secs_f64());
            }
            if let Err(e) = pushed {
                out.problems.push(format!("shadow {} epoch {i} failed: {e}", spec.name));
                return 0.0;
            }
            if (i + 1) % CHECKPOINT_EVERY == 0 {
                let t = Instant::now();
                let saved = session.checkpoint().save(&path);
                checkpoint_s += t.elapsed().as_secs_f64();
                match saved.and_then(|()| Ok(std::fs::metadata(&path)?.len())) {
                    Ok(b) => bytes = b,
                    Err(e) => out.problems.push(format!("shadow checkpoint failed: {e}")),
                }
            }
        }
        last_bytes += bytes;
        out.check(session.epochs() == report.epochs.as_slice(), || {
            format!("shadow session of {} differs from the server's report", spec.name)
        });
    }
    let busy: f64 = push_s.iter().sum();
    m.insert("scenario.epoch_s", busy);
    m.insert("scenario.epoch_p50_ms", median(&push_s) * 1e3);
    m.insert("scenario.checkpoint_s", checkpoint_s);
    m.insert("scenario.checkpoint_bytes", last_bytes as f64);
    busy
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let specs: Vec<ScenarioSpec> = TENANTS.iter().map(|n| tenant_spec(n, cfg.seed)).collect();
    let batches: Vec<_> =
        specs.iter().enumerate().map(|(t, s)| tenant_batches(s, t, cfg.seed)).collect();
    let mut setup_s = Vec::new();
    let mut tracer = Tracer::new();
    let mut reference: Option<Vec<Vec<EpochSummary>>> = None;
    let mut rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    // Each timed batch's latencies across the run's rounds: every round
    // submits the same batches in the same order.
    let mut batch_s = vec![Vec::new(); TENANTS.len() * ROUND_BATCHES];
    let start = Instant::now();
    while out.problems.is_empty()
        && (rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < cfg.seconds)
    {
        let dir = cfg.tmp_dir.join(format!("server-{}", rounds.len()));
        for _ in 0..SETUP_BURST {
            let t = Instant::now();
            let started = start_server(&dir, &specs);
            setup_s.push(t.elapsed().as_secs_f64());
            match started {
                Ok(server) => drop(server.shutdown()),
                Err(e) => out.problems.push(format!("Server::new failed: {e}")),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        let Some(round) = server_round(&dir, &specs, &batches, &mut out) else {
            break;
        };
        if round.reports.len() != TENANTS.len() {
            break;
        }
        let mut m = BTreeMap::new();
        for s in &round.samples {
            batch_s[s.batch].push(s.latency_s);
        }
        out.samples += round.samples.len();

        let epochs: Vec<Vec<EpochSummary>> =
            round.reports.iter().map(|r| r.epochs.clone()).collect();
        match &reference {
            None => {
                let n = round.reports.len() as f64;
                let slots: u64 =
                    round.reports.iter().flat_map(|r| &r.epochs[1..]).map(|e| e.makespan).sum();
                let congestion: f64 =
                    round.reports.iter().map(|r| r.online_congestion.as_f64()).sum();
                let ratio: f64 =
                    round.reports.iter().map(|r| r.competitive_ratio.unwrap_or(f64::NAN)).sum();
                out.set("makespan_slots", slots as f64);
                out.set("online_congestion", congestion / n);
                out.set("competitive_ratio", ratio / n);
                reference = Some(epochs);
            }
            Some(first) => out
                .check(*first == epochs, || format!("round {} differs from round 0", rounds.len())),
        }

        if cfg.trace {
            let total_latency: f64 = round.samples.iter().map(|s| s.latency_s).sum();
            let submit: f64 = round.samples.iter().map(|s| s.submit_s).sum();
            let wait: f64 = round.samples.iter().map(|s| s.wait_s).sum();
            let depths: Vec<f64> = round.samples.iter().map(|s| s.queue_depth as f64).collect();
            m.insert("server.submit_pct", 100.0 * submit / total_latency);
            m.insert("server.wait_pct", 100.0 * wait / total_latency);
            m.insert("server.queue_depth_p50", median(&depths));
            for (key, v) in SERVER_LAYER_METRICS[3..].iter().zip(round.counters) {
                m.insert(key, v as f64);
            }
            let untraced =
                shadow_round(&specs, &batches, &round.reports, &cfg.tmp_dir, &mut m, &mut out);
            tracer.set_round(rounds.len());
            // The traced replica of each tenant, fed the recorded batches.
            let mut results = Vec::new();
            for ((spec, tenant), report) in specs.iter().zip(&batches).zip(&round.reports) {
                let batch = |i: usize| Some(tenant[i].as_slice());
                match replicate(spec, &mut tracer, tenant.len(), batch, &report.epochs, &mut out) {
                    Some(r) => results.push(r),
                    None => break,
                }
            }
            if results.len() != specs.len() {
                break;
            }
            layer_metrics(&tracer, rounds.len(), &results, untraced, &mut m);
        }
        rounds.push(m);
    }
    let requests: usize = batches.iter().flat_map(|b| &b[1..]).map(Vec::len).sum();
    // A batch's latency is its lower-quartile repeat over the rounds.
    // Host stalls of a few ms land on a few percent of the sub-ms
    // batches, so the p99 of one round alone measures them rather than
    // the program, and while the host steals a fifth or more of the CPU
    // they land on a batch in many of its repeats. The lower quartile
    // drops them unless they hit a batch in three rounds of four, and
    // unlike the fastest repeat it does not hinge on one lucky round.
    // Watchdog checkpoints, which hold the session lock on different
    // batches in each round, drop out too: the traced run times them
    // as `scenario.checkpoint_s`.
    let batch_ms: Vec<f64> = batch_s.iter().map(|s| percentile(s, 25.0) * 1e3).collect();
    out.set("requests_per_s", requests as f64 * 1e3 / batch_ms.iter().sum::<f64>());
    out.set("latency_p50_ms", percentile(&batch_ms, 50.0));
    out.set("latency_p99_ms", percentile(&batch_ms, 99.0));
    crate::finish(&mut out, &rounds, &setup_s, cfg, &tracer);
    out
}
