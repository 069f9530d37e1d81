//! Exact single-server MVA — paper Algorithm 1 (Reiser & Lavenberg).
//!
//! The classic recursion: starting from an empty network, add one customer
//! at a time; with `n` customers the arriving customer sees the steady-state
//! queue lengths of the `n − 1` customer network (the Arrival Theorem), so
//!
//! ```text
//! R_k(n) = S_k · (1 + Q_k(n−1))          (paper eq. 8)
//! X(n)   = n / (Σ_k V_k R_k(n) + Z)      (Little)
//! Q_k(n) = X(n) · V_k · R_k(n)           (Little per queue)
//! ```
//!
//! Multi-server stations are **not** handled here (that is Algorithm 2 /
//! [`super::multiserver_mva`]); if the network contains one, the
//! conventional heuristic of normalizing the service demand by the core
//! count can be applied by the caller — the paper's "MVASD: Single-Server"
//! baseline does exactly that and is shown to underperform.

use crate::network::{ClosedNetwork, StationKind};
use crate::QueueingError;
use mvasd_obsv as obsv;

use super::schedule::ScheduledNetwork;
use super::stepping::{MvaPoint, SolverIter};
use super::{MvaSolution, StationPoint};

/// The exact single-server MVA recursion as a resumable iterator: the
/// carried state is exactly the queue-length vector `Q_k(n)` of the
/// Arrival Theorem, plus the last throughput that a throughput-indexed
/// demand schedule reads.
#[derive(Debug, Clone)]
pub struct ExactMvaIter {
    net: ScheduledNetwork,
    /// This step's demands, refilled from the schedule.
    demands: Vec<f64>,
    /// `Q_k` at the last yielded population.
    q: Vec<f64>,
    x_prev: f64,
    n: usize,
}

impl ExactMvaIter {
    /// Starts a fresh recursion at population 0.
    pub fn new(net: ClosedNetwork) -> Self {
        Self::with_schedule((&net).into())
    }

    /// Starts a fresh recursion whose demands come from a schedule.
    pub fn with_schedule(net: ScheduledNetwork) -> Self {
        let k_count = net.kinds.len();
        Self {
            net,
            demands: vec![0.0; k_count],
            q: vec![0.0; k_count],
            x_prev: 0.0,
            n: 0,
        }
    }
}

impl SolverIter for ExactMvaIter {
    fn station_names(&self) -> &[String] {
        &self.net.names
    }

    fn shared_names(&self) -> std::sync::Arc<[String]> {
        self.net.names.clone()
    }

    fn population(&self) -> usize {
        self.n
    }

    fn step(&mut self) -> Result<MvaPoint, QueueingError> {
        let _span = obsv::span("exact-mva.step");
        obsv::counter("solver.steps", 1);
        let n = self.n + 1;
        let z = self.net.think_time;
        self.net.schedule.fill(n, self.x_prev, &mut self.demands);

        // Residence time per interaction at each station. Algorithm 1
        // ignores declared core counts and rate tables by design: every
        // non-delay station is a single-server queue.
        let residence: Vec<f64> = self
            .net
            .kinds
            .iter()
            .zip(&self.demands)
            .zip(&self.q)
            .map(|((kind, &d), &qk)| match kind {
                StationKind::Delay => d,
                StationKind::Queueing { .. } | StationKind::LoadDependent { .. } => d * (1.0 + qk),
            })
            .collect();
        let r_total: f64 = residence.iter().sum();
        let x = n as f64 / (r_total + z);
        for (qk, rk) in self.q.iter_mut().zip(&residence) {
            *qk = x * rk;
        }
        self.x_prev = x;

        let station_points = (0..residence.len())
            .map(|k| StationPoint {
                queue: self.q[k],
                residence: residence[k],
                // All kinds share the single-server traffic-intensity form
                // here (see the residence computation above).
                utilization: x * self.demands[k],
            })
            .collect();

        self.n = n;
        Ok(MvaPoint {
            n,
            throughput: x,
            response: r_total,
            cycle_time: r_total + z,
            stations: station_points,
        })
    }

    fn boxed_clone(&self) -> Box<dyn SolverIter> {
        Box::new(self.clone())
    }
}

/// Runs exact single-server MVA up to population `n_max` (a drain of
/// [`ExactMvaIter`]). `n_max = 0` yields an empty solution.
///
/// Delay stations contribute their demand without queueing. Queueing
/// stations are treated as single-server regardless of their declared core
/// count (see module docs); use [`super::multiserver_mva`] when server
/// counts matter.
pub fn exact_mva(net: &ClosedNetwork, n_max: usize) -> Result<MvaSolution, QueueingError> {
    ExactMvaIter::new(net.clone()).drain(n_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{response_bounds, throughput_bounds};
    use crate::network::Station;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    fn simple_net(z: f64) -> ClosedNetwork {
        ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 1, 1.0, 0.005),
                Station::queueing("disk", 1, 1.0, 0.010),
            ],
            z,
        )
        .unwrap()
    }

    #[test]
    fn one_customer_sees_raw_demands() {
        let net = simple_net(1.0);
        let sol = exact_mva(&net, 1).unwrap();
        let p = sol.at(1).unwrap();
        assert!(close(p.response, 0.015, 1e-12));
        assert!(close(p.throughput, 1.0 / 1.015, 1e-12));
    }

    #[test]
    fn littles_law_holds_at_every_population() {
        let net = simple_net(0.5);
        let sol = exact_mva(&net, 50).unwrap();
        for p in &sol.points {
            // N = X (R + Z)
            assert!(
                close(p.n as f64, p.throughput * p.cycle_time, 1e-9),
                "n={}",
                p.n
            );
            // Per-queue Little: Q_k = X * residence_k.
            for sp in &p.stations {
                assert!(close(sp.queue, p.throughput * sp.residence, 1e-9));
            }
            // Population conservation: queues + thinking = N.
            let in_system: f64 = p.stations.iter().map(|s| s.queue).sum();
            let thinking = p.throughput * 0.5;
            assert!(close(in_system + thinking, p.n as f64, 1e-9));
        }
    }

    #[test]
    fn throughput_monotone_and_bounded() {
        let net = simple_net(1.0);
        let sol = exact_mva(&net, 300).unwrap();
        let xs = sol.throughputs();
        for w in xs.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "throughput must be non-decreasing");
        }
        for (i, p) in sol.points.iter().enumerate() {
            let b = throughput_bounds(&net, i + 1);
            assert!(p.throughput <= b.upper + 1e-9);
            assert!(p.throughput >= b.lower - 1e-9);
            let rb = response_bounds(&net, i + 1);
            assert!(p.response >= rb.lower - 1e-9);
            assert!(p.response <= rb.upper + 1e-9);
        }
        // Saturation: X -> 1/Dmax = 100.
        assert!(sol.last().throughput > 99.0);
    }

    #[test]
    fn matches_machine_repair_closed_form() {
        // Single queueing station + think time = machine repair with c = 1.
        let net = ClosedNetwork::new(vec![Station::queueing("st", 1, 1.0, 0.25)], 1.0).unwrap();
        let sol = exact_mva(&net, 20).unwrap();
        for n in 1..=20usize {
            let (x_exact, q_exact) =
                mvasd_numerics::erlang::machine_repair(n, 1, 0.25, 1.0).unwrap();
            let p = sol.at(n).unwrap();
            assert!(close(p.throughput, x_exact, 1e-9), "n={n}");
            assert!(close(p.stations[0].queue, q_exact, 1e-9), "n={n}");
        }
    }

    #[test]
    fn delay_station_never_queues() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 1, 1.0, 0.01),
                Station::delay("lan", 1.0, 0.002),
            ],
            0.1,
        )
        .unwrap();
        let sol = exact_mva(&net, 100).unwrap();
        for p in &sol.points {
            // Residence at the delay station is always its raw demand.
            assert!(close(p.stations[1].residence, 0.002, 1e-12));
        }
    }

    #[test]
    fn visits_scale_demand() {
        // 7 visits of 1 ms ≡ 1 visit of 7 ms.
        let a = ClosedNetwork::new(vec![Station::queueing("s", 1, 7.0, 0.001)], 1.0).unwrap();
        let b = ClosedNetwork::new(vec![Station::queueing("s", 1, 1.0, 0.007)], 1.0).unwrap();
        let sa = exact_mva(&a, 40).unwrap();
        let sb = exact_mva(&b, 40).unwrap();
        for (pa, pb) in sa.points.iter().zip(sb.points.iter()) {
            assert!(close(pa.throughput, pb.throughput, 1e-12));
            assert!(close(pa.response, pb.response, 1e-12));
        }
    }

    #[test]
    fn zero_population_yields_empty_solution() {
        let net = simple_net(1.0);
        let sol = exact_mva(&net, 0).unwrap();
        assert!(sol.points.is_empty());
        assert_eq!(
            &sol.station_names[..],
            &["cpu".to_string(), "disk".to_string()][..]
        );
    }

    #[test]
    fn utilization_below_one_at_single_server() {
        let net = simple_net(1.0);
        let sol = exact_mva(&net, 500).unwrap();
        for p in &sol.points {
            for sp in &p.stations {
                assert!(sp.utilization <= 1.0 + 1e-9);
            }
        }
        // Bottleneck (disk) utilization approaches 1.
        assert!(sol.last().stations[1].utilization > 0.99);
    }
}
