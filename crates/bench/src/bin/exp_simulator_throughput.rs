//! EXP-SIM (Section 1 motivation, ref \[8\]): replay identical traffic under
//! placements of different congestion and measure the batch makespan on
//! the packet simulator. The paper's premise — execution time tracks the
//! congestion of the data management strategy — should appear as a tight
//! monotone relation.
//!
//! The second half measures the replay substrate itself: requests/sec and
//! slots/sec of the exact event-driven kernel at
//! `balanced(4,3)`–`balanced(5,4)` scale, its speedup over the retained
//! naive reference kernel, and a `BENCH_simulator.json` document so the
//! throughput trajectory is tracked across PRs. Independent replays fan
//! out across cores with rayon.

#![warn(missing_docs)]

use hbn_baselines::{ExtendedNibbleStrategy, GreedyCongestion, OwnerLeaf, RandomLeaf, Strategy};
use hbn_bench::{emit_simulator_json, SimBenchRecord, Table};
use hbn_load::{LoadMap, Placement};
use hbn_sim::{
    expand_shuffled, simulate_reference, simulate_with, SimConfig, SimResult, SimWorkspace,
};
use hbn_topology::generators::{balanced, BandwidthProfile};
use hbn_topology::Network;
use hbn_workload::generators as wgen;
use hbn_workload::AccessMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::time::Instant;

/// Replay `trace` under every placement in parallel (one workspace per
/// replay; the replays are independent).
fn replay_all(
    net: &Network,
    m: &AccessMatrix,
    strategies: &[(String, Placement)],
    trace: &[hbn_sim::Request],
) -> Vec<SimResult> {
    strategies
        .par_iter()
        .map(|(_, placement)| {
            let mut ws = SimWorkspace::new();
            simulate_with(&mut ws, net, m, placement, trace, SimConfig::default())
                .expect("full replay is always routable")
        })
        .collect()
}

fn congestion_vs_makespan() {
    println!("EXP-SIM — makespan vs congestion (the congestion-matters claim)\n");
    let net = balanced(3, 3, BandwidthProfile::Uniform);
    let mut rng = StdRng::seed_from_u64(9);
    let m = wgen::zipf_read_mostly(&net, 32, 4000, 0.9, 0.25, &mut rng);
    let trace = expand_shuffled(&m, &mut rng);

    let strategies: Vec<(String, Placement)> = vec![
        ("single-leaf".into(), Placement::single_leaf(&net, &m, |_| net.processors()[0])),
        ("random-leaf".into(), RandomLeaf::new(3).place(&net, &m)),
        ("owner-leaf".into(), OwnerLeaf.place(&net, &m)),
        ("greedy".into(), GreedyCongestion.place(&net, &m)),
        ("extended-nibble".into(), ExtendedNibbleStrategy::default().place(&net, &m)),
    ];

    let results = replay_all(&net, &m, &strategies, &trace);

    let mut t = Table::new([
        "placement",
        "congestion",
        "makespan",
        "makespan/congestion",
        "mean lat",
        "p99 lat",
    ]);
    let mut points = Vec::new();
    for ((name, placement), sim) in strategies.iter().zip(&results) {
        let congestion = LoadMap::from_placement(&net, &m, placement).congestion(&net).congestion;
        let c = congestion.as_f64();
        points.push((c, sim.makespan as f64));
        t.row([
            name.clone(),
            congestion.to_string(),
            sim.makespan.to_string(),
            format!("{:.3}", sim.makespan as f64 / c.max(1.0)),
            format!("{:.1}", sim.mean_latency),
            sim.p99_latency.to_string(),
        ]);
    }
    println!("{}", t.render());

    // Pearson correlation between congestion and makespan.
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let cov = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>();
    let sx = points.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>().sqrt();
    let sy = points.iter().map(|p| (p.1 - my).powi(2)).sum::<f64>().sqrt();
    println!("congestion-makespan correlation: {:.4}", cov / (sx * sy));
    println!(
        "\nExpected shape: makespan ≥ congestion on every row, ratio close to 1\n\
         for good placements, correlation near 1.0 — congestion predicts\n\
         completion time, as the paper's motivation (ref [8]) claims.\n"
    );
}

/// Time one replay with a reused workspace, after one warmup replay that
/// fills the workspace's high-water buffers.
fn time_replay(
    net: &Network,
    m: &AccessMatrix,
    placement: &Placement,
    trace: &[hbn_sim::Request],
) -> (SimResult, f64) {
    let mut ws = SimWorkspace::new();
    simulate_with(&mut ws, net, m, placement, trace, SimConfig::default()).expect("routable");
    let start = Instant::now();
    let sim =
        simulate_with(&mut ws, net, m, placement, trace, SimConfig::default()).expect("routable");
    (sim, start.elapsed().as_secs_f64())
}

fn kernel_throughput() {
    println!("Replay-kernel throughput (exact kernel, reused buffers)\n");
    let mut records: Vec<SimBenchRecord> = Vec::new();
    let mut t = Table::new([
        "network",
        "procs",
        "requests",
        "kernel",
        "makespan",
        "wall (ms)",
        "requests/sec",
        "slots/sec",
    ]);
    let mut speedup = None;

    for (label, branching, height, objects, requests) in [
        ("balanced(4,3)", 4usize, 3u32, 512usize, 15_000usize),
        ("balanced(5,3)", 5, 3, 512, 30_000),
        ("balanced(5,4)", 5, 4, 512, 60_000),
    ] {
        let net = balanced(branching, height, BandwidthProfile::Uniform);
        let mut rng = StdRng::seed_from_u64(11);
        let m = wgen::zipf_read_mostly(&net, objects, requests, 0.9, 0.2, &mut rng);
        let trace = expand_shuffled(&m, &mut rng);
        let placement = ExtendedNibbleStrategy::default().place(&net, &m);

        let (sim, secs) = time_replay(&net, &m, &placement, &trace);
        let rec = SimBenchRecord {
            network: label.to_string(),
            processors: net.n_processors(),
            requests: trace.len(),
            kernel: "optimized".into(),
            makespan_slots: sim.makespan,
            wall_seconds: secs,
        };
        t.row([
            label.to_string(),
            net.n_processors().to_string(),
            trace.len().to_string(),
            "optimized".into(),
            sim.makespan.to_string(),
            format!("{:.2}", secs * 1e3),
            format!("{:.0}", rec.requests_per_sec()),
            format!("{:.0}", rec.slots_per_sec()),
        ]);
        records.push(rec);

        // Reference kernel on the acceptance instance only (it is the
        // slow side of the comparison).
        if label == "balanced(4,3)" {
            let start = Instant::now();
            let naive = simulate_reference(&net, &m, &placement, &trace, SimConfig::default())
                .expect("routable");
            let naive_secs = start.elapsed().as_secs_f64();
            assert_eq!(naive, sim, "kernels must agree");
            let rec = SimBenchRecord {
                network: label.to_string(),
                processors: net.n_processors(),
                requests: trace.len(),
                kernel: "reference".into(),
                makespan_slots: naive.makespan,
                wall_seconds: naive_secs,
            };
            t.row([
                label.to_string(),
                net.n_processors().to_string(),
                trace.len().to_string(),
                "reference".into(),
                naive.makespan.to_string(),
                format!("{:.2}", naive_secs * 1e3),
                format!("{:.0}", rec.requests_per_sec()),
                format!("{:.0}", rec.slots_per_sec()),
            ]);
            records.push(rec);
            speedup = Some(naive_secs / secs.max(1e-12));
        }
    }
    println!("{}", t.render());
    if let Some(s) = speedup {
        println!("optimized vs reference speedup at balanced(4,3): {s:.1}x");
    }

    // Parallel fan-out: the same instance replayed under many independent
    // shuffles at once — the scaling mode large experiments use.
    let net = balanced(4, 3, BandwidthProfile::Uniform);
    let mut rng = StdRng::seed_from_u64(13);
    let m = wgen::zipf_read_mostly(&net, 512, 15_000, 0.9, 0.2, &mut rng);
    let placement = ExtendedNibbleStrategy::default().place(&net, &m);
    let seeds: Vec<u64> = (0..16).collect();
    let start = Instant::now();
    let replays: Vec<(u64, usize)> = seeds
        .par_iter()
        .map(|&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let trace = expand_shuffled(&m, &mut rng);
            let mut ws = SimWorkspace::new();
            let sim = simulate_with(&mut ws, &net, &m, &placement, &trace, SimConfig::default())
                .expect("routable");
            (sim.makespan, trace.len())
        })
        .collect();
    let secs = start.elapsed().as_secs_f64();
    let total_requests: usize = replays.iter().map(|&(_, len)| len).sum();
    println!(
        "\nrayon fan-out: {} independent replays of balanced(4,3)/15k in {:.0} ms \
         ({:.0} requests/sec aggregate; makespan range {}..{})",
        seeds.len(),
        secs * 1e3,
        total_requests as f64 / secs,
        replays.iter().map(|&(m, _)| m).min().unwrap(),
        replays.iter().map(|&(m, _)| m).max().unwrap(),
    );

    match emit_simulator_json("BENCH_simulator.json", &records, speedup) {
        Ok(()) => println!("wrote BENCH_simulator.json"),
        Err(e) => eprintln!("could not write BENCH_simulator.json: {e}"),
    }
}

fn main() {
    congestion_vs_makespan();
    kernel_throughput();
}
