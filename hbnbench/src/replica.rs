//! The traced replica of `Session`'s epoch pipeline.
//!
//! It re-drives one epoch through the same public functions, in the
//! same order as `Session::step_epoch` / `Session::push_epoch`, with a
//! span around each layer's calls:
//!
//! | span                | calls                                                  |
//! |---------------------|--------------------------------------------------------|
//! | `core.refit`        | `Strategy::begin_epoch`                                |
//! | `workload.stream`   | `PhaseStreamState::next_request` + `AccessMatrix::add` |
//! | `dynamic.serve`     | `Strategy::serve_batch`                                |
//! | `load.snapshot`     | `Placement::set_copies` + `nearest_assignment`         |
//! | `load.accounting`   | `LoadMap::from_placement`, `charge_service`, congestion |
//! | `sim.replay`        | `simulate_with`                                        |
//! | `sim.estimate`      | `estimate_makespan_from_loads`                         |
//!
//! The remainder of the enclosing `epoch` span is the session's own
//! bookkeeping. Each epoch's exact results are returned so the caller
//! can require them to equal the real `Session`'s summaries.

use crate::trace::{SpanId, Tracer};
use crate::Outcome;
use hbn_dynamic::OnlineRequest;
use hbn_load::{LoadMap, LoadRatio, Placement};
use hbn_scenario::{EpochSummary, ReplayKernel, ScenarioSpec, Strategy};
use hbn_sim::{estimate_makespan_from_loads, simulate_with, Request, SimWorkspace};
use hbn_topology::Network;
use hbn_workload::{AccessMatrix, PhaseStreamState};
use std::collections::BTreeMap;

/// The exact outputs of one replicated epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochResult {
    pub requests: u64,
    pub makespan: u64,
    pub estimate: Option<(u64, u64)>,
    pub placement_congestion: LoadRatio,
    pub online_congestion: LoadRatio,
    /// Summed per-edge crossings of the exact replay (0 when estimated).
    pub edge_crossings: u64,
    pub delivered_updates: u64,
    /// Whether `begin_epoch` moved copies (its `stats` changed).
    pub refit_moved: bool,
    /// The strategy's cumulative counters after the epoch.
    pub replications: u64,
    pub collapses: u64,
}

impl EpochResult {
    /// Whether this epoch reproduces `summary` exactly.
    pub fn matches(&self, summary: &EpochSummary) -> bool {
        self.requests == summary.traffic.requests
            && self.makespan == summary.makespan
            && self.estimate == summary.estimate.map(|e| (e.lower, e.upper))
            && self.placement_congestion == summary.placement_congestion
            && self.online_congestion == summary.online_congestion
    }
}

pub struct Replica {
    spec: ScenarioSpec,
    net: Network,
    max_objects: usize,
    strategy: Box<dyn Strategy>,
    stream: PhaseStreamState,
    aggregate: AccessMatrix,
    ws: SimWorkspace,
    cum: LoadMap,
    trace: Vec<Request>,
    online: Vec<OnlineRequest>,
    epoch_idx: usize,
}

impl Replica {
    pub fn new(spec: &ScenarioSpec) -> Replica {
        let net = spec.build_network();
        let max_objects = spec.schedule.max_objects();
        Replica {
            strategy: spec.strategy.build(&net, &spec.exec, max_objects),
            stream: spec.schedule.stream_state(&net, spec.seed),
            aggregate: AccessMatrix::new(max_objects),
            ws: SimWorkspace::new(),
            cum: LoadMap::zero(&net),
            trace: Vec::new(),
            online: Vec::new(),
            epoch_idx: 0,
            spec: spec.clone(),
            net,
            max_objects,
        }
    }

    /// Run one epoch: draw `spec.epoch_requests` requests from the
    /// schedule's stream, or serve `batch` when one is given (the
    /// `push_epoch` form).
    pub fn epoch(
        &mut self,
        tracer: &mut Tracer,
        parent: SpanId,
        batch: Option<&[OnlineRequest]>,
    ) -> Result<EpochResult, String> {
        let Replica { spec, net, strategy, stream, aggregate, ws, cum, trace, online, .. } = self;
        let net = &*net;
        let epoch = tracer.open("epoch", Some(parent));
        let view = spec.faults.fault_view(net, self.epoch_idx);
        if !view.is_pristine() {
            return Err("the replica does not model bus faults".into());
        }

        let before = strategy.stats();
        tracer.span("core.refit", epoch, || {
            strategy.begin_epoch(net, self.epoch_idx, aggregate, &view)
        });
        let after = strategy.stats();
        let refit_moved =
            after.replications != before.replications || after.collapses != before.collapses;

        let epoch_matrix = tracer.span("workload.stream", epoch, || {
            trace.clear();
            online.clear();
            let mut m = AccessMatrix::new(self.max_objects);
            let mut add = |r: OnlineRequest| {
                trace.push(Request {
                    processor: r.processor,
                    object: r.object,
                    is_write: r.is_write,
                });
                online.push(r);
                let (reads, writes) = if r.is_write { (0, 1) } else { (1, 0) };
                m.add(r.processor, r.object, reads, writes);
                aggregate.add(r.processor, r.object, reads, writes);
            };
            match batch {
                Some(batch) => batch.iter().copied().for_each(&mut add),
                None => {
                    for _ in 0..spec.epoch_requests {
                        let Some(r) = stream.next_request(&spec.schedule, net) else { break };
                        add(OnlineRequest {
                            processor: r.processor,
                            object: r.object,
                            is_write: r.is_write,
                        });
                    }
                }
            }
            m
        });

        tracer.span("dynamic.serve", epoch, || strategy.serve_batch(net, online, &epoch_matrix));

        let placement = tracer.span("load.snapshot", epoch, || {
            let mut placement = Placement::new(epoch_matrix.n_objects());
            for x in epoch_matrix.objects() {
                if !epoch_matrix.object_entries(x).is_empty() {
                    placement.set_copies(x, strategy.copy_set(x).to_vec());
                }
            }
            placement.nearest_assignment(net, &epoch_matrix);
            placement
        });

        let (placement_loads, placement_congestion) = tracer.span("load.accounting", epoch, || {
            let loads = LoadMap::from_placement(net, &epoch_matrix, &placement);
            strategy.charge_service(&loads);
            let congestion = loads.congestion_with(net, &view.overlay).congestion;
            (loads, congestion)
        });

        let mut result = EpochResult {
            requests: online.len() as u64,
            makespan: 0,
            estimate: None,
            placement_congestion,
            online_congestion: placement_congestion,
            edge_crossings: 0,
            delivered_updates: 0,
            refit_moved,
            replications: 0,
            collapses: 0,
        };
        let mut replay = |tracer: &mut Tracer| {
            tracer.span("sim.replay", epoch, || {
                simulate_with(ws, net, &epoch_matrix, &placement, trace, spec.exec.sim)
            })
        };
        match spec.exec.replay {
            ReplayKernel::Workspace => {
                let sim = replay(tracer).map_err(|e| format!("replay failed: {e}"))?;
                result.makespan = sim.makespan;
                result.edge_crossings = sim.edge_crossings.iter().sum();
                result.delivered_updates = sim.delivered_updates;
            }
            ReplayKernel::Estimate { sample_every } => {
                let bounds = tracer.span("sim.estimate", epoch, || {
                    estimate_makespan_from_loads(
                        net,
                        &epoch_matrix,
                        &placement_loads,
                        spec.exec.sim,
                        None, // the view is pristine, checked above
                    )
                });
                result.estimate = Some((bounds.lower, bounds.upper));
                if sample_every > 0 && self.epoch_idx.is_multiple_of(sample_every) {
                    let sim = replay(tracer).map_err(|e| format!("replay failed: {e}"))?;
                    result.makespan = sim.makespan;
                    result.edge_crossings = sim.edge_crossings.iter().sum();
                    result.delivered_updates = sim.delivered_updates;
                }
            }
            other => return Err(format!("the replica does not model replay kernel {other}")),
        }

        // The online congestion of the epoch: the strategy's cumulative
        // loads minus those at the previous epoch boundary.
        tracer.span("load.accounting", epoch, || {
            let mut delta = LoadMap::zero(net);
            strategy.add_loads_to(&mut delta);
            delta.sub_assign(cum);
            cum.add_assign(&delta);
            result.online_congestion = delta.congestion_with(net, &view.overlay).congestion;
        });
        tracer.close(epoch);
        let stats = strategy.stats();
        result.replications = stats.replications;
        result.collapses = stats.collapses;
        self.epoch_idx += 1;
        Ok(result)
    }
}

/// Replicate one round of `spec`'s session: epoch 0, the untimed
/// warm-up, goes to a throwaway tracer, and the other `epochs - 1` run
/// under one `round` span of `tracer`. `batch(i)` is epoch `i`'s pushed
/// batch, or `None` to draw the epoch from the schedule. Every epoch must
/// reproduce `summaries` exactly.
pub fn replicate<'a>(
    spec: &ScenarioSpec,
    tracer: &mut Tracer,
    epochs: usize,
    batch: impl Fn(usize) -> Option<&'a [OnlineRequest]>,
    summaries: &[EpochSummary],
    out: &mut Outcome,
) -> Option<Vec<EpochResult>> {
    let mut replica = Replica::new(spec);
    let mut warm_tracer = Tracer::new();
    let warm_root = warm_tracer.open("round", None);
    let mut results = Vec::with_capacity(epochs);
    let mut step = |tracer: &mut Tracer, root, i| {
        replica.epoch(tracer, root, batch(i)).map_err(|e| out.problems.push(e)).ok()
    };
    results.push(step(&mut warm_tracer, warm_root, 0)?);
    let root = tracer.open("round", None);
    for i in 1..epochs {
        results.push(step(tracer, root, i)?);
    }
    tracer.close(root);
    parity(&results, summaries, out);
    Some(results)
}

/// Require the replica's epochs to equal the real run's summaries.
fn parity(results: &[EpochResult], summaries: &[EpochSummary], out: &mut Outcome) {
    out.check(results.len() == summaries.len(), || {
        format!("replica ran {} epochs, the real run {}", results.len(), summaries.len())
    });
    if let Some(i) = results.iter().zip(summaries).position(|(r, s)| !r.matches(s)) {
        out.problems.push(format!(
            "traced replica differs from the real run at epoch {i}: {:?} vs {:?}",
            results[i], summaries[i]
        ));
    }
}

/// The per-layer metrics of traced round `round`: self times, their
/// shares of the traced epoch time, and the exact counts. `sessions`
/// holds each replicated session's epochs, the untimed warm-up first;
/// `untraced_s` is the time the real sessions took for the same epochs.
pub fn layer_metrics(
    tracer: &Tracer,
    round: usize,
    sessions: &[Vec<EpochResult>],
    untraced_s: f64,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let self_s = tracer.self_seconds_by_round().remove(&round).unwrap_or_default();
    let traced_s = tracer.total_seconds_by_round("epoch").get(&round).copied().unwrap_or(0.0);
    let layer = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let layers = [
        ("workload.stream", "workload.stream_s", "workload.stream_pct"),
        ("core.refit", "core.refit_s", "core.refit_pct"),
        ("dynamic.serve", "dynamic.serve_s", "dynamic.serve_pct"),
        ("load.snapshot", "load.snapshot_s", "load.snapshot_pct"),
        ("load.accounting", "load.accounting_s", "load.accounting_pct"),
    ];
    let mut covered = 0.0;
    for (span, secs, pct) in layers {
        covered += layer(span);
        m.insert(secs, layer(span));
        m.insert(pct, 100.0 * layer(span) / traced_s);
    }
    let (replay, estimate) = (layer("sim.replay"), layer("sim.estimate"));
    covered += replay + estimate;
    m.insert("sim.price_s", replay + estimate);
    m.insert("sim.replay_pct", 100.0 * replay / traced_s);
    m.insert("sim.estimate_pct", 100.0 * estimate / traced_s);
    m.insert("trace.coverage_pct", 100.0 * covered / traced_s);
    // Traced against untraced requests_per_s over the same epochs.
    m.insert("trace.overhead_pct", 100.0 * (1.0 - untraced_s / traced_s));

    let timed = || sessions.iter().flat_map(|s| &s[1..]);
    let growth = |f: fn(&EpochResult) -> u64| -> u64 {
        sessions.iter().map(|s| f(&s[s.len() - 1]) - f(&s[0])).sum()
    };
    m.insert("core.refits", timed().filter(|r| r.refit_moved).count() as f64);
    m.insert("dynamic.replications", growth(|r| r.replications) as f64);
    m.insert("dynamic.collapses", growth(|r| r.collapses) as f64);
    m.insert("sim.edge_crossings", timed().map(|r| r.edge_crossings).sum::<u64>() as f64);
    m.insert("sim.delivered_updates", timed().map(|r| r.delivered_updates).sum::<u64>() as f64);
}
