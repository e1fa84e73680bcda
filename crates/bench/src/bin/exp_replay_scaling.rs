//! EXP-REPLAY: the congestion-bound estimator at scale.
//!
//! Runs the estimator at 100x the exact-replay bench scale: a 100-epoch
//! stream over `balanced(5,4)` — 6M requests, far past what exact slot
//! simulation can price per-PR — bounded in `O(|V| + nnz)` per epoch,
//! with every k-th epoch replayed exactly to validate that
//! `lower ≤ makespan ≤ upper` on each sample. A violation aborts the
//! experiment. (Exact-kernel throughput against the reference kernel is
//! EXP-SIM's job, `exp_simulator_throughput`.)
//!
//! Emits `BENCH_replay.json` (quick mode: `HBN_EXP_QUICK=1` shrinks the
//! volumes, same shape).

#![warn(missing_docs)]

use hbn_baselines::{ExtendedNibbleStrategy, Strategy};
use hbn_bench::{
    emit_replay_json, exit_on_estimate_violations, exp_quick, ReplayEstimateRecord, Table,
};
use hbn_sim::{estimate_makespan, expand_shuffled, simulate_with, SimConfig, SimWorkspace};
use hbn_topology::generators::{balanced, BandwidthProfile};
use hbn_workload::generators as wgen;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One estimator cell: an `epochs`-long stream of fresh zipf matrices,
/// each priced by the bounds in `O(|V| + nnz)`; every `sample_every`-th
/// epoch is replayed exactly and must fall inside its bounds. When
/// `time_exact_twin`, the whole stream is also replayed exactly to show
/// what the estimator saves.
#[allow(clippy::too_many_arguments)]
fn estimator_cell(
    label: &str,
    branching: usize,
    height: u32,
    objects: usize,
    requests_per_epoch: usize,
    epochs: usize,
    sample_every: usize,
    time_exact_twin: bool,
) -> ReplayEstimateRecord {
    let net = balanced(branching, height, BandwidthProfile::Uniform);
    let config = SimConfig::default();
    let mut ws = SimWorkspace::new();
    let mut sampled = 0usize;
    let mut violations = 0usize;
    let mut gap_sum = 0.0f64;
    let start = Instant::now();
    for epoch in 0..epochs {
        let mut rng = StdRng::seed_from_u64(11 + epoch as u64);
        let m = wgen::zipf_read_mostly(&net, objects, requests_per_epoch, 0.9, 0.2, &mut rng);
        let placement = ExtendedNibbleStrategy::default().place(&net, &m);
        let bounds = estimate_makespan(&net, &m, &placement, config, None);
        gap_sum += bounds.gap_ratio();
        if epoch % sample_every == 0 {
            let trace = expand_shuffled(&m, &mut rng);
            let exact =
                simulate_with(&mut ws, &net, &m, &placement, &trace, config).expect("routable");
            sampled += 1;
            if !bounds.brackets(exact.makespan) {
                violations += 1;
                eprintln!(
                    "VIOLATION: {label} epoch {epoch}: bounds [{}, {}] miss makespan {}",
                    bounds.lower, bounds.upper, exact.makespan
                );
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    exit_on_estimate_violations(violations, label);

    let exact_wall = time_exact_twin.then(|| {
        let start = Instant::now();
        for epoch in 0..epochs {
            let mut rng = StdRng::seed_from_u64(11 + epoch as u64);
            let m = wgen::zipf_read_mostly(&net, objects, requests_per_epoch, 0.9, 0.2, &mut rng);
            let placement = ExtendedNibbleStrategy::default().place(&net, &m);
            let trace = expand_shuffled(&m, &mut rng);
            simulate_with(&mut ws, &net, &m, &placement, &trace, config).expect("routable");
        }
        start.elapsed().as_secs_f64()
    });

    ReplayEstimateRecord {
        network: label.to_string(),
        processors: net.n_processors(),
        requests: requests_per_epoch * epochs,
        epochs,
        sampled_epochs: sampled,
        violations,
        mean_gap_ratio: gap_sum / epochs as f64,
        wall_seconds: wall,
        exact_wall_seconds: exact_wall,
    }
}

fn estimator_scaling() -> Vec<ReplayEstimateRecord> {
    println!("Estimator mode — congestion bounds with sampled exact validation\n");
    let cells: Vec<ReplayEstimateRecord> = if exp_quick() {
        vec![estimator_cell("balanced(4,3)", 4, 3, 512, 6_000, 10, 5, true)]
    } else {
        vec![
            // Exact twin still affordable: shows what the bounds save.
            estimator_cell("balanced(4,3)", 4, 3, 512, 15_000, 10, 2, true),
            // 100x the exact-replay bench cell (100 epochs x 60k =
            // 6M requests on 625 processors) — estimator-only scale,
            // validated through 5 exact samples.
            estimator_cell("balanced(5,4)", 5, 4, 512, 60_000, 100, 20, false),
        ]
    };
    let mut t = Table::new([
        "network",
        "procs",
        "requests",
        "epochs",
        "sampled",
        "violations",
        "mean gap",
        "wall (s)",
        "exact twin (s)",
    ]);
    for r in &cells {
        t.row([
            r.network.clone(),
            r.processors.to_string(),
            r.requests.to_string(),
            r.epochs.to_string(),
            r.sampled_epochs.to_string(),
            r.violations.to_string(),
            format!("{:.2}", r.mean_gap_ratio),
            format!("{:.2}", r.wall_seconds),
            r.exact_wall_seconds.map_or("-".into(), |s| format!("{s:.2}")),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Every sampled epoch's exact makespan fell inside its bounds; the\n\
         upper bound is conservative by design (mean gap above), and the\n\
         estimator prices epochs without running the slot loop.\n"
    );
    cells
}

fn main() {
    println!("EXP-REPLAY — congestion-bound estimator at scale\n");
    let estimates = estimator_scaling();
    match emit_replay_json("BENCH_replay.json", &estimates) {
        Ok(()) => println!("wrote BENCH_replay.json"),
        Err(e) => eprintln!("could not write BENCH_replay.json: {e}"),
    }
}
