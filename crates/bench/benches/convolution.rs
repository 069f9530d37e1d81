//! Incremental convolution workspace vs the from-scratch reference path.
//!
//! The workload is the paper-scale VINS network: 12 stations across three
//! tiers, each tier fronted by a 16-core CPU, swept to N = 1500 (the
//! paper's deepest concurrency). Two cost models are compared:
//!
//! - `workspace_sweep/N` — one [`ConvWorkspace`] carried across the whole
//!   sweep: a fixed number of knee cells per step (each CPU cell a 16-term
//!   window plus a telescoped tail), zero steady-state allocation.
//! - `per_step_scratch_sweep/N` — the pre-workspace quasi-static path:
//!   every population rebuilt from scratch (`O(K·n²)` per step), exactly
//!   what `PopulationRecursion::quasi_static_step` used to do.
//!
//! Beyond the text table the bench emits
//! `results/BENCH_convolution.json` (schema `mvasd-bench/1`, documented in
//! `EXPERIMENTS.md`) so CI can diff the quantiles and the recorded speedup
//! stays auditable.

use mvasd_bench::output::{results_dir, write_text};
use mvasd_bench::timing::{bench_json, quick_mode, Bench, Plan};
use mvasd_queueing::mva::{reference_solve_at, ConvWorkspace};
use mvasd_queueing::network::{ClosedNetwork, Station};

/// The 12-station, three-tier, 16-core VINS-scale network (same shape and
/// demands as the `paper_scale_network_respects_bottleneck_law` test).
fn vins_network() -> ClosedNetwork {
    let spec: [(&str, usize, f64); 12] = [
        ("load-cpu", 16, 0.004),
        ("load-disk", 1, 0.0085),
        ("load-tx", 1, 0.0012),
        ("load-rx", 1, 0.0018),
        ("app-cpu", 16, 0.012),
        ("app-disk", 1, 0.0022),
        ("app-tx", 1, 0.0015),
        ("app-rx", 1, 0.0015),
        ("db-cpu", 16, 0.055),
        ("db-disk", 1, 0.0098),
        ("db-tx", 1, 0.0014),
        ("db-rx", 1, 0.0012),
    ];
    let stations = spec
        .iter()
        .map(|&(name, c, d)| Station::queueing(name, c, 1.0, d))
        .collect();
    ClosedNetwork::new(stations, 1.0).expect("valid VINS network")
}

/// Marginal limits: track the full `p(0..C−1)` snapshot of every 16-core
/// CPU (what the eq. 10 correction consumes), nothing else.
fn marginal_limits(net: &ClosedNetwork) -> Vec<usize> {
    net.stations()
        .iter()
        .map(|s| match s.kind.server_count() {
            Some(c) if c > 1 => c,
            _ => 0,
        })
        .collect()
}

fn workspace_sweep(net: &ClosedNetwork, limits: &[usize], n_max: usize) -> f64 {
    let mut ws = ConvWorkspace::new(net, limits).expect("valid VINS network");
    ws.reserve(n_max);
    for _ in 0..n_max {
        ws.advance().expect("sweep within capacity");
    }
    ws.throughput()
}

fn per_step_scratch_sweep(net: &ClosedNetwork, limits: &[usize], n_max: usize) -> f64 {
    let mut x = 0.0;
    for n in 1..=n_max {
        let (xn, _, _) = reference_solve_at(net, n, limits).expect("valid VINS network");
        x = xn;
    }
    x
}

fn main() {
    let net = vins_network();
    let limits = marginal_limits(&net);
    let n_cap = if quick_mode() { 200 } else { 1500 };
    let n_mid = if quick_mode() { 120 } else { 300 };

    let mut b = Bench::new("convolution_workspace_vins");
    b.measure(&format!("workspace_sweep/{n_mid}"), Plan::default(), || {
        workspace_sweep(&net, &limits, n_mid)
    });
    b.measure(&format!("workspace_sweep/{n_cap}"), Plan::default(), || {
        workspace_sweep(&net, &limits, n_cap)
    });
    b.measure(&format!("scratch_solve_at/{n_cap}"), Plan::heavy(), || {
        let (x, _, _) = reference_solve_at(&net, n_cap, &limits).expect("valid VINS network");
        x
    });
    b.measure(
        &format!("per_step_scratch_sweep/{n_mid}"),
        Plan::heavy(),
        || per_step_scratch_sweep(&net, &limits, n_mid),
    );
    // The full-depth from-scratch sweep is the honest pre-workspace cost
    // model at paper scale; it is seconds-per-call, so sample it sparsely.
    b.measure(
        &format!("per_step_scratch_sweep/{n_cap}"),
        Plan {
            warmup: 0,
            samples: 3,
            iters: 1,
        },
        || per_step_scratch_sweep(&net, &limits, n_cap),
    );
    println!("{}", b.report());

    let results = b.results();
    let find = |name: &str| {
        results
            .iter()
            .find(|m| m.name == name)
            .expect("measured above")
    };
    let ws_cap = find(&format!("workspace_sweep/{n_cap}")).median();
    let scratch_cap = find(&format!("per_step_scratch_sweep/{n_cap}")).median();
    let speedup = scratch_cap.as_secs_f64() / ws_cap.as_secs_f64().max(1e-12);
    println!("workspace speedup over per-step scratch at n={n_cap}: {speedup:.1}x");

    let json = bench_json(&[&b]);
    let path = write_text(&results_dir(), "BENCH_convolution.json", &json)
        .expect("results directory is writable");
    println!("wrote {}", path.display());
}
