//! Load-dependent stations: the rate model of the convolution engine.
//!
//! A station whose service *rate* depends on the local queue length is a
//! [`StationKind::LoadDependent`] in a [`ClosedNetwork`](crate::network::ClosedNetwork);
//! a `C`-server queue is the special case `rate(j) = min(j, C)` and a delay
//! station `rate(j) = j`. [`RateFunction`] is the crate-internal lowering
//! of every [`StationKind`] to that one shape, which is all the
//! normalization-constant engine in [`super::convolution`] needs, so
//! [`super::multiserver_mva`] and [`super::MultiserverMvaSolver`] solve
//! any mix of queueing, delay and load-dependent stations exactly. This is
//! the capability the paper attributes to JMT ("a load-dependent array of
//! service demands has been proposed and implemented in … JMT [17]"), and
//! the shape a Norton flow-equivalent server takes in the `hierarchy`
//! module.
//!
//! The naive population recursion for load-dependent stations is
//! numerically unstable near saturation — its `p(0) = 1 − Σ…` closure
//! cancels catastrophically and the recursion amplifies round-off
//! exponentially — while the log-domain convolution form is a ratio of
//! positive sums and is stable at any population.
//!
//! Note this models *rate* dependence on the **local** queue length; the
//! paper's MVASD models *demand* dependence on the **global** population,
//! which is a different (and weaker-studied) axis — see `mvasd-core`.

use crate::network::StationKind;

/// How a station's aggregate service rate scales with its queue length.
/// Built from a validated [`StationKind`] or a flow-equivalent server's
/// throughput profile, so server counts are positive and tables are
/// non-empty, finite and positive.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RateFunction {
    /// Constant-rate single server: `rate(j) = 1`.
    SingleServer,
    /// `C` parallel servers: `rate(j) = min(j, C)`.
    MultiServer(usize),
    /// Infinite-server (delay): `rate(j) = j`.
    Delay,
    /// Arbitrary multipliers: `rate(j) = table[min(j, len) − 1]`, clamped to
    /// the last entry beyond the table.
    Custom(Vec<f64>),
}

impl RateFunction {
    /// The rate multiplier with `j ≥ 1` jobs present.
    pub(crate) fn rate(&self, j: usize) -> f64 {
        debug_assert!(j >= 1);
        match self {
            RateFunction::SingleServer => 1.0,
            RateFunction::MultiServer(c) => j.min(*c) as f64,
            RateFunction::Delay => j as f64,
            RateFunction::Custom(t) => t[(j - 1).min(t.len() - 1)],
        }
    }

    /// The saturation multiplier (`lim_{j→∞} rate(j)`), used for
    /// utilization reporting. `None` for delay stations (they never
    /// saturate).
    pub(crate) fn max_rate(&self) -> Option<f64> {
        match self {
            RateFunction::SingleServer => Some(1.0),
            RateFunction::MultiServer(c) => Some(*c as f64),
            RateFunction::Delay => None,
            RateFunction::Custom(t) => t.iter().cloned().reduce(f64::max),
        }
    }
}

/// The rate model of a static station kind: a `C`-server queue is
/// `min(j, C)`, a delay station `j`, a load-dependent table itself.
impl From<&StationKind> for RateFunction {
    fn from(kind: &StationKind) -> Self {
        match kind {
            StationKind::Queueing { servers: 1 } => RateFunction::SingleServer,
            StationKind::Queueing { servers } => RateFunction::MultiServer(*servers),
            StationKind::Delay => RateFunction::Delay,
            StationKind::LoadDependent { rates } => RateFunction::Custom(rates.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::{exact_mva, multiserver_mva, ClosedSolver, MultiserverMvaSolver};
    use crate::network::{ClosedNetwork, Station};

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn single_server_matches_algorithm_1() {
        let table = ClosedNetwork::new(
            vec![
                Station::load_dependent("cpu", 1.0, 0.006, vec![1.0]),
                Station::load_dependent("disk", 1.0, 0.010, vec![1.0]),
            ],
            1.0,
        )
        .unwrap();
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 1, 1.0, 0.006),
                Station::queueing("disk", 1, 1.0, 0.010),
            ],
            1.0,
        )
        .unwrap();
        let a = multiserver_mva(&table, 150).unwrap();
        let b = exact_mva(&net, 150).unwrap();
        for (pa, pb) in a.points.iter().zip(b.points.iter()) {
            assert!(close(pa.throughput, pb.throughput, 1e-9), "n={}", pa.n);
            assert!(close(pa.response, pb.response, 1e-9));
            assert!(close(pa.stations[0].queue, pb.stations[0].queue, 1e-8));
        }
    }

    #[test]
    fn multiserver_matches_machine_repair_exactly() {
        // The convolution engine is EXACT for the machine-repair model
        // (unlike the carried eq. 10 recursion, which approximates the
        // marginals near saturation).
        let (c, s, z) = (4usize, 0.25f64, 1.0f64);
        let net = ClosedNetwork::new(vec![Station::queueing("st", c, 1.0, s)], z).unwrap();
        let sol = multiserver_mva(&net, 60).unwrap();
        for n in 1..=60usize {
            let (x_exact, q_exact) = mvasd_numerics::erlang::machine_repair(n, c, s, z).unwrap();
            let p = sol.at(n).unwrap();
            assert!(close(p.throughput, x_exact, 1e-9), "n={n}");
            assert!(close(p.stations[0].queue, q_exact, 1e-8), "n={n}");
        }
    }

    #[test]
    fn delay_rate_function_means_no_queueing() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 1, 1.0, 0.01),
                Station::delay("lan", 1.0, 0.005),
            ],
            0.5,
        )
        .unwrap();
        let sol = multiserver_mva(&net, 80).unwrap();
        for p in &sol.points {
            // Delay station residence stays at the raw demand.
            assert!(close(p.stations[1].residence, 0.005, 1e-9), "n={}", p.n);
        }
    }

    #[test]
    fn marginal_distributions_are_probabilities() {
        let net = ClosedNetwork::new(vec![Station::queueing("st", 3, 1.0, 0.2)], 1.0).unwrap();
        let sol = multiserver_mva(&net, 30).unwrap();
        // Conservation: queue + thinking = n.
        for p in &sol.points {
            let thinking = p.throughput * 1.0;
            assert!(close(p.stations[0].queue + thinking, p.n as f64, 1e-8));
        }
    }

    #[test]
    fn custom_rate_interpolates_between_regimes() {
        // Rates 1, 1.8, 2.4 then flat: a "2.4-way" station with overhead.
        let net = ClosedNetwork::new(
            vec![Station::load_dependent("st", 1.0, 0.1, vec![1.0, 1.8, 2.4])],
            0.2,
        )
        .unwrap();
        let sol = MultiserverMvaSolver::new(net).solve(100).unwrap();
        // Ceiling: 2.4 / 0.1 = 24/s.
        assert!(sol.last().throughput <= 24.0 + 1e-9);
        assert!(sol.last().throughput > 23.0);
    }

    #[test]
    fn utilization_capped_at_one() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("st", 8, 1.0, 0.5),
                Station::load_dependent("fes", 1.0, 0.5, vec![1.0, 1.5, 2.0]),
            ],
            0.1,
        )
        .unwrap();
        let sol = multiserver_mva(&net, 300).unwrap();
        for p in &sol.points {
            assert!(p.stations[0].utilization <= 1.0 + 1e-9);
            assert!(p.stations[1].utilization <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        // Invalid models are rejected where they are built, so no solver
        // ever sees one.
        let bad_rates: [Vec<f64>; 4] = [vec![], vec![0.0], vec![1.0, -2.0], vec![f64::NAN]];
        for rates in bad_rates {
            let st = Station::load_dependent("s", 1.0, 0.1, rates.clone());
            assert!(ClosedNetwork::new(vec![st], 1.0).is_err(), "{rates:?}");
        }
        let ok = || vec![Station::load_dependent("s", 1.0, 0.1, vec![1.0, 2.0])];
        assert!(ClosedNetwork::new(vec![], 1.0).is_err());
        assert!(ClosedNetwork::new(vec![Station::queueing("s", 0, 1.0, 0.1)], 1.0).is_err());
        assert!(ClosedNetwork::new(ok(), -1.0).is_err());
        assert!(ClosedNetwork::new(ok(), f64::NAN).is_err());
        let nan_demand = Station::load_dependent("s", 1.0, f64::NAN, vec![1.0]);
        assert!(ClosedNetwork::new(vec![nan_demand], 1.0).is_err());
        // Zero population: valid empty sweep.
        let net = ClosedNetwork::new(ok(), 1.0).unwrap();
        assert!(multiserver_mva(&net, 0).unwrap().points.is_empty());
    }

    #[test]
    fn rate_function_accessors() {
        assert_eq!(RateFunction::SingleServer.rate(5), 1.0);
        assert_eq!(RateFunction::MultiServer(4).rate(2), 2.0);
        assert_eq!(RateFunction::MultiServer(4).rate(9), 4.0);
        assert_eq!(RateFunction::Delay.rate(7), 7.0);
        let c = RateFunction::Custom(vec![1.0, 1.5]);
        assert_eq!(c.rate(1), 1.0);
        assert_eq!(c.rate(2), 1.5);
        assert_eq!(c.rate(10), 1.5);
        assert_eq!(RateFunction::MultiServer(4).max_rate(), Some(4.0));
        assert_eq!(RateFunction::Delay.max_rate(), None);
        assert_eq!(
            RateFunction::from(&StationKind::Queueing { servers: 1 }),
            RateFunction::SingleServer
        );
    }
}
