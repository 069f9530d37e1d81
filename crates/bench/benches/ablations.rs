//! Ablation benchmarks: the cost of the numerically robust choices —
//! double-double carried recursion vs per-step quasi-static convolution,
//! and the full-series convolution solver across population scales.

use mvasd_bench::timing::{Bench, Plan};
use mvasd_queueing::mva::{
    multiserver_mva, ClosedSolver, MultiserverMvaSolver, PopulationRecursion, SolverIter,
};
use mvasd_queueing::network::{ClosedNetwork, Station};

fn net(cpu_demand: f64) -> ClosedNetwork {
    ClosedNetwork::new(
        vec![
            Station::queueing("cpu16", 16, 1.0, cpu_demand),
            Station::queueing("disk", 1, 1.0, 0.004),
        ],
        1.0,
    )
    .unwrap()
}

fn main() {
    let mut g = Bench::new("population_recursion_300_steps");
    // Low-utilization CPU: carried double-double recursion throughout.
    let light = net(0.01);
    g.measure("carried_dd", Plan::light(10), || {
        let mut rec = PopulationRecursion::new(light.clone()).unwrap();
        rec.drain(300).unwrap();
        rec.is_quasi_static()
    });
    // Saturating CPU: switches to per-step quasi-static convolution.
    let saturating = net(0.16);
    g.measure("quasi_static_switch", Plan::heavy(), || {
        let mut rec = PopulationRecursion::new(saturating.clone()).unwrap();
        rec.drain(300).unwrap();
        rec.is_quasi_static()
    });
    println!("{}", g.report());

    let mut g = Bench::new("convolution_full_series");
    for n in [200usize, 800, 1500] {
        let network = net(0.16);
        g.measure(&format!("n={n}"), Plan::heavy(), || {
            multiserver_mva(&network, n).unwrap()
        });
    }
    println!("{}", g.report());

    // Warm restart vs cold solve: extending a memoized sweep by 100
    // populations should cost a fraction of re-solving from population 1.
    let mut g = Bench::new("warm_restart_extension");
    let solver = MultiserverMvaSolver::new(net(0.16));
    let mut warm = solver.start().unwrap();
    warm.drain(1400).unwrap();
    let warm = warm.snapshot();
    g.measure("cold_solve_1500", Plan::light(10), || {
        solver.solve(1500).unwrap().points.len()
    });
    g.measure("resume_1400_to_1500", Plan::light(10), || {
        warm.resume().drain(1500).unwrap().points.len()
    });
    println!("{}", g.report());
}
