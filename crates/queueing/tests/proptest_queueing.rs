//! Property-based tests of the queueing solvers against operational-law
//! invariants and the independent closed forms.
//!
//! Runs on the in-house deterministic harness (`mvasd_numerics::propcheck`).

use mvasd_numerics::erlang::machine_repair;
use mvasd_numerics::propcheck::{check, Config, Gen};
use mvasd_queueing::mva::{exact_mva, multiclass_mva, multiserver_mva, ClassSpec};
use mvasd_queueing::network::{ClosedNetwork, Station, StationKind};
use mvasd_queueing::open::solve_open;

fn cfg() -> Config {
    Config::default().cases(40)
}

#[test]
fn multiserver_mva_is_exact_for_machine_repair() {
    check("multiserver_mva_is_exact_for_machine_repair", &cfg(), |g| {
        let c = g.usize_in(1, 23);
        let s = g.f64_in(0.01, 2.0);
        let z = g.f64_in(0.0, 5.0);
        let n = g.usize_in(1, 119);
        let net = ClosedNetwork::new(vec![Station::queueing("st", c, 1.0, s)], z).unwrap();
        let sol = multiserver_mva(&net, n).unwrap();
        let (xe, qe) = machine_repair(n, c, s, z).unwrap();
        let x = sol.last().throughput;
        assert!((x - xe).abs() <= 1e-8 * xe.max(1e-9), "X {x} vs {xe}");
        let q = sol.last().stations[0].queue;
        assert!((q - qe).abs() <= 1e-6 * qe.max(1.0), "Q {q} vs {qe}");
    });
}

#[test]
fn load_dependent_reduces_to_exact_for_single_servers() {
    check(
        "load_dependent_reduces_to_exact_for_single_servers",
        &cfg(),
        |g| {
            let demands = g.vec_f64(1, 4, 0.001, 0.1);
            let z = g.f64_in(0.0, 3.0);
            let n = g.usize_in(1, 79);
            let net = ClosedNetwork::new(
                demands
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| Station::queueing(&format!("s{i}"), 1, 1.0, d))
                    .collect(),
                z,
            )
            .unwrap();
            let rate_tables = ClosedNetwork::new(
                demands
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| Station::load_dependent(&format!("s{i}"), 1.0, d, vec![1.0]))
                    .collect(),
                z,
            )
            .unwrap();
            let a = exact_mva(&net, n).unwrap();
            let b = multiserver_mva(&rate_tables, n).unwrap();
            for i in 1..=n {
                let (xa, xb) = (a.at(i).unwrap().throughput, b.at(i).unwrap().throughput);
                assert!((xa - xb).abs() <= 1e-8 * xa.max(1e-9), "n={i}");
            }
        },
    );
}

#[test]
fn split_class_equals_merged_class() {
    // Two identical classes must behave exactly like one merged class.
    check("split_class_equals_merged_class", &cfg(), |g| {
        let demand = g.f64_in(0.001, 0.1);
        let z = g.f64_in(0.1, 3.0);
        let pop_a = g.usize_in(1, 19);
        let pop_b = g.usize_in(1, 19);
        let kinds = vec![StationKind::Queueing { servers: 1 }];
        let class = |name: &str, pop: usize| ClassSpec {
            name: name.into(),
            population: pop,
            think_time: z,
            demands: vec![demand],
        };
        let split = multiclass_mva(&[class("a", pop_a), class("b", pop_b)], &kinds).unwrap();
        let merged = multiclass_mva(&[class("ab", pop_a + pop_b)], &kinds).unwrap();
        let x_split = split.classes[0].throughput + split.classes[1].throughput;
        let x_merged = merged.classes[0].throughput;
        assert!((x_split - x_merged).abs() <= 1e-8 * x_merged);
        assert!((split.station_queues[0] - merged.station_queues[0]).abs() <= 1e-6);
    });
}

#[test]
fn open_network_littles_law_and_monotonicity() {
    check("open_network_littles_law_and_monotonicity", &cfg(), |g| {
        let cpu_d = g.f64_in(0.001, 0.02);
        let disk_d = g.f64_in(0.001, 0.02);
        let servers = g.usize_in(1, 7);
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu", servers, 1.0, cpu_d),
                Station::queueing("disk", 1, 1.0, disk_d),
            ],
            0.0,
        )
        .unwrap();
        let cap = (servers as f64 / cpu_d).min(1.0 / disk_d);
        let mut prev_r = 0.0;
        for i in 1..=5 {
            let lam = cap * 0.95 * i as f64 / 5.0;
            let sol = solve_open(&net, lam).unwrap();
            assert!((sol.number_in_system - lam * sol.response).abs() < 1e-9);
            assert!(sol.response >= prev_r - 1e-12, "R must rise with load");
            prev_r = sol.response;
            for st in &sol.stations {
                assert!(st.utilization < 1.0 + 1e-9);
            }
        }
    });
}

/// 2–5 multi-server stations with server counts in 1..=16.
fn gen_ms_net(g: &mut Gen, min_stations: usize, z_max: f64) -> ClosedNetwork {
    let count = g.usize_in(min_stations, 5);
    let stations = (0..count)
        .map(|i| {
            let c = g.usize_in(1, 16);
            let d = g.f64_in(0.002, 0.08);
            Station::queueing(&format!("s{i}"), c, 1.0, d)
        })
        .collect();
    let z = g.f64_in(0.0, z_max);
    ClosedNetwork::new(stations, z).unwrap()
}

#[test]
fn closed_throughput_caps_and_knee() {
    check("closed_throughput_caps_and_knee", &cfg(), |g| {
        let net = gen_ms_net(g, 2, 2.0);
        let z = net.think_time();
        let n = (net.knee_population().ceil() as usize * 2).clamp(10, 400);
        let sol = multiserver_mva(&net, n).unwrap();
        // Far past the knee, throughput is within 25 % of the ceiling
        // (loose: the knee estimate ignores queueing spread).
        assert!(sol.last().throughput <= net.max_throughput() + 1e-6);
        assert!(
            sol.last().throughput
                >= 0.75
                    * net
                        .max_throughput()
                        .min(n as f64 / (net.total_demand() + z))
        );
    });
}

#[test]
fn single_customer_sees_no_queueing() {
    check("single_customer_sees_no_queueing", &cfg(), |g| {
        let net = gen_ms_net(g, 1, 2.0);
        let sol = multiserver_mva(&net, 1).unwrap();
        let d_total = net.total_demand();
        assert!((sol.at(1).unwrap().response - d_total).abs() < 1e-8 * d_total.max(1e-9));
    });
}
