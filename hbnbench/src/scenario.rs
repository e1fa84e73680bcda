//! The two schedule-driven workloads, run through `Session::step_epoch`.

use crate::replica::{layer_metrics, replicate};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig, MIN_ROUNDS, SETUP_BURST};
use hbn_scenario::{
    EpochSummary, ReplayKernel, ScenarioSpec, Session, StrategyKind, TopologyFamily,
};
use hbn_workload::{PhaseKind, PhaseSchedule, PhaseSpec};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Dynamic strategy, exact replay: the default `Session` path.
    ZipfExact,
    /// Periodic extended-nibble refits under object churn, priced by
    /// the congestion-bound estimator.
    ChurnStaticEstimate,
}

impl Kind {
    /// Timed epochs per round, after the warm-up epoch. The churn
    /// workload refits every 4 epochs, so its rounds hold whole cycles.
    fn timed_epochs(self) -> usize {
        match self {
            Kind::ZipfExact => 24,
            Kind::ChurnStaticEstimate => 40,
        }
    }

    /// The scenario of one round: a one-epoch warm-up phase, then the
    /// measured phase.
    pub fn spec(self, seed: u64) -> ScenarioSpec {
        let topology = TopologyFamily::Balanced { branching: 4, height: 3 };
        let timed = self.timed_epochs();
        match self {
            Kind::ZipfExact => {
                let epoch = 4000;
                let zipf = PhaseKind::StaticZipf { skew: 1.1, write_fraction: 0.1 };
                let schedule = PhaseSchedule::new(
                    512,
                    vec![
                        PhaseSpec::new("warm-up", zipf, epoch),
                        PhaseSpec::new("zipf", zipf, epoch * timed),
                    ],
                );
                ScenarioSpec::builder("zipf-exact", topology, schedule)
                    .strategy(StrategyKind::Dynamic)
                    .threshold(2)
                    .seed(seed)
                    .epoch_requests(epoch)
                    .build()
            }
            Kind::ChurnStaticEstimate => {
                let epoch = 2000;
                let warm = PhaseKind::StaticZipf { skew: 0.9, write_fraction: 0.25 };
                let churn =
                    PhaseKind::ObjectChurn { churn_every: 200, skew: 0.9, write_fraction: 0.25 };
                let schedule = PhaseSchedule::new(
                    4096,
                    vec![
                        PhaseSpec::new("warm-up", warm, epoch),
                        PhaseSpec::new("churn", churn, epoch * timed),
                    ],
                );
                ScenarioSpec::builder("churn-static-estimate", topology, schedule)
                    .strategy(StrategyKind::PeriodicStatic { replace_every_epochs: 4 })
                    .replay_kernel(ReplayKernel::Estimate { sample_every: 0 })
                    .threshold(2)
                    .seed(seed)
                    .epoch_requests(epoch)
                    .build()
            }
        }
    }
}

/// The simulated completion time of an epoch: the exact makespan, or
/// the estimator's upper bound where the epoch was only estimated.
fn epoch_slots(e: &EpochSummary) -> u64 {
    e.estimate.map_or(e.makespan, |est| est.upper)
}

/// One round through the real `Session`: the per-epoch times of the
/// timed epochs and every epoch's summary.
struct SessionRound {
    step_s: Vec<f64>,
    session: Session,
}

fn session_round(kind: Kind, spec: &ScenarioSpec, out: &mut Outcome) -> Option<SessionRound> {
    let mut session = Session::new(spec);
    if !matches!(session.step_epoch(), Ok(Some(_))) {
        out.problems.push("the warm-up epoch did not run".into());
        return None;
    }
    let mut step_s = Vec::with_capacity(kind.timed_epochs());
    for i in 0..kind.timed_epochs() {
        out.attempted += 1;
        let t = Instant::now();
        let step = session.step_epoch();
        step_s.push(t.elapsed().as_secs_f64());
        let summary = match step {
            Ok(Some(summary)) => summary,
            Ok(None) => {
                out.problems.push(format!("schedule ended after {i} timed epochs"));
                return None;
            }
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("timed epoch {i} failed: {e}"));
                return None;
            }
        };
        check_epoch(kind, spec, i, &summary, out);
    }
    out.check(session.is_finished(), || "the schedule has epochs left over".into());
    Some(SessionRound { step_s, session })
}

/// Per-epoch output checks: every generated request is served, and the
/// epoch is priced the way the workload says.
fn check_epoch(kind: Kind, spec: &ScenarioSpec, i: usize, e: &EpochSummary, out: &mut Outcome) {
    out.check(e.traffic.requests == spec.epoch_requests as u64, || {
        format!("epoch {i} served {} of {} requests", e.traffic.requests, spec.epoch_requests)
    });
    match (kind, e.estimate) {
        (Kind::ZipfExact, None) => {
            out.check(e.makespan > 0, || format!("epoch {i} has a zero makespan"))
        }
        (Kind::ChurnStaticEstimate, Some(est)) => out.check(est.lower <= est.upper, || {
            format!("epoch {i} has inverted bounds {} > {}", est.lower, est.upper)
        }),
        _ => out.problems.push(format!("epoch {i} was priced by the wrong kernel")),
    }
}

pub fn run(kind: Kind, cfg: &RunConfig) -> Outcome {
    let spec = kind.spec(cfg.seed);
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let requests = (kind.timed_epochs() * spec.epoch_requests) as f64;
    let checkpoint_path = cfg.tmp_dir.join("session.hbnc");
    let mut tracer = Tracer::new();
    let mut reference: Option<Vec<EpochSummary>> = None;
    let mut rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    // Each timed epoch's fastest repeat across the run's rounds: the
    // epochs are the same work in every round, and a slow stretch on
    // the host only ever adds time.
    let mut fastest_s = vec![f64::INFINITY; kind.timed_epochs()];
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < cfg.seconds {
        for _ in 0..SETUP_BURST {
            let t = Instant::now();
            let session = Session::new(&spec);
            setup_s.push(t.elapsed().as_secs_f64());
            drop(session);
        }
        let Some(round) = session_round(kind, &spec, &mut out) else { break };
        let mut m = BTreeMap::new();
        let busy: f64 = round.step_s.iter().sum();
        for (best, s) in fastest_s.iter_mut().zip(&round.step_s) {
            *best = best.min(*s);
        }
        out.samples += round.step_s.len();

        // Every round does the same simulated work.
        let epochs = round.session.epochs();
        match &reference {
            None => {
                let report = round.session.report();
                let timed = &epochs[1..];
                out.set("makespan_slots", timed.iter().map(epoch_slots).sum::<u64>() as f64);
                out.set("online_congestion", report.online_congestion.as_f64());
                out.set("competitive_ratio", report.competitive_ratio.unwrap_or(f64::NAN));
                reference = Some(epochs.to_vec());
            }
            Some(first) => out.check(first.as_slice() == epochs, || {
                format!("round {} differs from round 0", rounds.len())
            }),
        }

        if cfg.trace {
            let step_ms: Vec<f64> = round.step_s.iter().map(|s| s * 1e3).collect();
            m.insert("scenario.epoch_s", busy);
            m.insert("scenario.epoch_p50_ms", median(&step_ms));
            let t = Instant::now();
            let saved = round.session.checkpoint().save(&checkpoint_path);
            m.insert("scenario.checkpoint_s", t.elapsed().as_secs_f64());
            match saved.and_then(|()| Ok(std::fs::metadata(&checkpoint_path)?.len())) {
                Ok(bytes) => m.insert("scenario.checkpoint_bytes", bytes as f64),
                Err(e) => {
                    out.problems.push(format!("checkpoint save failed: {e}"));
                    break;
                }
            };
            tracer.set_round(rounds.len());
            let n = kind.timed_epochs() + 1;
            let Some(results) = replicate(&spec, &mut tracer, n, |_| None, epochs, &mut out) else {
                break;
            };
            layer_metrics(&tracer, rounds.len(), &[results], busy, &mut m);
        }
        rounds.push(m);
        if !out.problems.is_empty() {
            break;
        }
    }
    let fastest_ms: Vec<f64> = fastest_s.iter().map(|s| s * 1e3).collect();
    out.set("requests_per_s", requests / fastest_s.iter().sum::<f64>());
    out.set("latency_p50_ms", percentile(&fastest_ms, 50.0));
    out.set("latency_p99_ms", percentile(&fastest_ms, 99.0));
    if cfg.trace {
        for key in crate::server::SERVER_LAYER_METRICS {
            out.set(key, 0.0);
        }
    }
    crate::finish(&mut out, &rounds, &setup_s, cfg, &tracer);
    out
}
