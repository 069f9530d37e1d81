//! Normalization-constant (convolution) evaluation of closed networks —
//! Buzen's algorithm in log-domain.
//!
//! The exact MVA population recursion for multi-server / load-dependent
//! stations closes the marginal distribution with `p(0) = 1 − Σ…`, which
//! cancels catastrophically near saturation; the recursion then amplifies
//! the round-off **exponentially** (a 16-core station — the paper's
//! hardware — produces percent-level errors and Bottleneck-Law violations
//! even in double-double arithmetic). The normalization-constant route has
//! no subtraction anywhere: every quantity is a ratio of sums of positive
//! terms, evaluated here with log-sum-exp so magnitudes like `Zⁿ/n!` never
//! overflow. This is the one exact evaluation of a constant-demand
//! network: [`super::multiserver_mva`] and [`super::MultiserverMvaSolver`]
//! (paper Algorithm 2) run it over any [`ClosedNetwork`] — queueing,
//! delay and load-dependent (rate-table) stations alike — and so do the
//! quasi-static phase of the MVASD recursion and the Norton aggregation of
//! the `hierarchy` module.
//!
//! For a single-class network with stations `k` (demand `D_k`, rate
//! multiplier `α_k(j)`) and terminal think time `Z`:
//!
//! ```text
//! f_k(j) = D_k^j / ∏_{i=1}^{j} α_k(i)        (station factor)
//! f_Z(j) = Z^j / j!                          (think stage, infinite-server)
//! G      = f_1 ⊛ f_2 ⊛ … ⊛ f_K ⊛ f_Z         (convolution)
//! X(n)   = G(n−1) / G(n)
//! p_k(j|n) = f_k(j) · G₍₋ₖ₎(n−j) / G(n)
//! Q_k(n)  = Σ_j j · p_k(j|n)
//! ```
//!
//! `G₍₋ₖ₎` (the network without station `k`) is needed only for stations
//! whose queue or marginals cannot be read off `G` itself.
//!
//! Every production path — the streaming [`ConvIter`] and the
//! per-population `solve_at` of the quasi-static MVASD phase — runs on the
//! incremental [`ConvWorkspace`] in [`workspace`]: carried log-domain
//! columns extended one cell per population in flat pre-allocated
//! buffers, think time and delay stations merged into one Poisson head,
//! every station's factor column telescoped past its knee (so a cell is
//! `O(knee)`, not `O(n)`), and the `G₍₋ₖ₎` complements built by an
//! all-but-one divide and conquer. The pre-workspace from-scratch
//! evaluation survives in [`scratch`] as the independent reference
//! (propcheck oracle and benchmark baseline).

pub mod kernel;
pub(crate) mod scratch;
pub(crate) mod workspace;

pub use scratch::reference_solve_at;
pub use workspace::ConvWorkspace;

use super::loaddep::RateFunction;
use super::stepping::{MvaPoint, SolverIter};
use super::{PopulationPoint, StationPoint};
use crate::network::{ClosedNetwork, Station};
use crate::QueueingError;
use mvasd_obsv as obsv;
use std::sync::Arc;

/// One station of the convolution solver (internal normalized form).
#[derive(Debug, Clone)]
pub(crate) struct ConvStation {
    pub name: String,
    pub demand: f64,
    pub rate: RateFunction,
}

/// The one lowering of a model station: its demand `D_k = V_k·S_k` and
/// the rate model of its kind.
impl From<&Station> for ConvStation {
    fn from(s: &Station) -> Self {
        ConvStation {
            name: s.name.clone(),
            demand: s.demand(),
            rate: RateFunction::from(&s.kind),
        }
    }
}

/// Single-population solve result: `(X, per-station queues, per-station
/// marginals p(0..limit−1 | n))`.
pub type PointSolution = (f64, Vec<f64>, Vec<Vec<f64>>);

/// [`SolverIter`] over the incremental convolution workspace — the
/// streaming backend behind [`super::MultiserverMvaSolver`].
#[derive(Debug, Clone)]
pub(crate) struct ConvIter {
    ws: ConvWorkspace,
    names: Arc<[String]>,
}

impl ConvIter {
    pub(crate) fn new(net: &ClosedNetwork) -> Result<Self, QueueingError> {
        Ok(Self {
            ws: ConvWorkspace::new(net, &[])?,
            names: net.station_names(),
        })
    }
}

impl SolverIter for ConvIter {
    fn station_names(&self) -> &[String] {
        &self.names
    }

    fn shared_names(&self) -> Arc<[String]> {
        self.names.clone()
    }

    fn population(&self) -> usize {
        self.ws.population()
    }

    fn step(&mut self) -> Result<MvaPoint, QueueingError> {
        let _span = obsv::span("convolution.step");
        obsv::counter("solver.steps", 1);
        self.ws.advance()?;
        Ok(self.ws.point())
    }

    fn boxed_clone(&self) -> Box<dyn SolverIter> {
        Box::new(self.clone())
    }
}

impl ConvWorkspace {
    /// Shapes the last evaluated population into a [`PopulationPoint`].
    /// Shared by the streaming [`ConvIter`] and the marginal-tracing drain
    /// so both produce identical floats.
    pub(crate) fn point(&self) -> PopulationPoint {
        let x = self.throughput();
        let queues = self.queues();
        let station_points = self
            .stations()
            .iter()
            .zip(queues)
            .map(|(s, &queue)| {
                let utilization = match s.rate.max_rate() {
                    Some(mr) => x * s.demand / mr,
                    None => x * s.demand,
                };
                StationPoint {
                    queue,
                    residence: if x > 0.0 { queue / x } else { 0.0 },
                    utilization,
                }
            })
            .collect();
        let response: f64 = queues.iter().sum::<f64>() / if x > 0.0 { x } else { 1.0 };
        PopulationPoint {
            n: self.population(),
            throughput: x,
            response,
            cycle_time: response + self.think_time(),
            stations: station_points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::MvaSolution;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    fn st(name: &str, demand: f64, rate: RateFunction) -> ConvStation {
        ConvStation {
            name: name.into(),
            demand,
            rate,
        }
    }

    /// Per-population outputs of one drained workspace.
    struct Series {
        x: Vec<f64>,
        /// `queues[k][n-1]`.
        queues: Vec<Vec<f64>>,
        /// `marginals[k][n-1][j]` = `p_k(j|n)` for `j < limit_k`.
        marginals: Vec<Vec<Vec<f64>>>,
    }

    /// Drains one workspace over populations `1..=n_max`.
    fn series(stations: &[ConvStation], z: f64, n_max: usize, limits: &[usize]) -> Series {
        let k_count = stations.len();
        let mut ws = ConvWorkspace::from_conv(stations.to_vec(), z, limits.to_vec()).unwrap();
        let mut out = Series {
            x: Vec::new(),
            queues: vec![Vec::new(); k_count],
            marginals: vec![Vec::new(); k_count],
        };
        for _ in 0..n_max {
            ws.advance().unwrap();
            out.x.push(ws.throughput());
            for k in 0..k_count {
                out.queues[k].push(ws.queues()[k]);
                out.marginals[k].push(ws.marginals_of(k).to_vec());
            }
        }
        out
    }

    #[test]
    fn machine_repair_exact_all_populations() {
        // Single c-server station + think time: closed form available.
        for (c, d, z) in [(1usize, 0.25f64, 1.0f64), (4, 0.25, 1.0), (16, 0.16, 1.0)] {
            let stations = vec![st("s", d, RateFunction::MultiServer(c))];
            let sol = series(&stations, z, 400, &[c]);
            for n in 1..=400usize {
                let (xe, qe) = mvasd_numerics::erlang::machine_repair(n, c, d, z).unwrap();
                let x = sol.x[n - 1];
                assert!(close(x, xe, 1e-9 * xe.max(1.0)), "c={c} n={n}: {x} vs {xe}");
                assert!(
                    close(sol.queues[0][n - 1], qe, 1e-7 * qe.max(1.0)),
                    "queue c={c} n={n}"
                );
            }
        }
    }

    #[test]
    fn population_conservation() {
        let stations = vec![
            st("cpu", 0.02, RateFunction::MultiServer(16)),
            st("disk", 0.002, RateFunction::SingleServer),
            st("lan", 0.001, RateFunction::Delay),
        ];
        let sol = series(&stations, 1.0, 300, &[0, 0, 0]);
        for n in 1..=300usize {
            let at_stations: f64 = (0..3).map(|k| sol.queues[k][n - 1]).sum();
            let thinking = sol.x[n - 1] * 1.0;
            assert!(
                close(at_stations + thinking, n as f64, 1e-6 * n as f64),
                "n={n}: {} + {}",
                at_stations,
                thinking
            );
        }
    }

    #[test]
    fn bottleneck_law_never_violated() {
        let stations = vec![
            st("cpu", 0.16, RateFunction::MultiServer(16)),
            st("disk", 0.004, RateFunction::SingleServer),
        ];
        let sol = series(&stations, 1.0, 1500, &[0, 0]);
        let cap = (16.0 / 0.16f64).min(1.0 / 0.004);
        let mut prev = 0.0;
        for (i, &x) in sol.x.iter().enumerate() {
            assert!(x <= cap + 1e-9, "n={}: {x} > {cap}", i + 1);
            assert!(x >= prev - 1e-9, "monotonicity at n={}", i + 1);
            prev = x;
        }
        assert!(sol.x[1499] > 0.999 * cap);
    }

    #[test]
    fn marginals_are_probabilities_and_match_busy_identity() {
        let c = 8;
        let stations = vec![st("cpu", 0.08, RateFunction::MultiServer(c))];
        let sol = series(&stations, 0.5, 120, &[c]);
        for n in 1..=120usize {
            let snap = &sol.marginals[0][n - 1];
            let mass: f64 = snap.iter().sum();
            assert!((0.0..=1.0 + 1e-9).contains(&mass));
            // E[min(Q,C)] = X·D (busy-server identity), where
            // E[min(Q,C)] = Σ_{j<C} j·p(j) + C·(1 − Σ_{j<C} p(j)).
            let e_busy: f64 = snap
                .iter()
                .enumerate()
                .map(|(j, p)| j as f64 * p)
                .sum::<f64>()
                + c as f64 * (1.0 - mass);
            let u = sol.x[n - 1] * 0.08;
            assert!(close(e_busy, u, 1e-8 * u.max(1e-12)), "n={n}");
        }
    }

    #[test]
    fn solve_at_matches_full_series() {
        let stations = vec![
            st("cpu", 0.03, RateFunction::MultiServer(4)),
            st("disk", 0.01, RateFunction::SingleServer),
        ];
        let demands = [0.03, 0.01];
        let full = series(&stations, 1.0, 150, &[4, 1]);
        let mut ws = ConvWorkspace::from_conv(stations.clone(), 1.0, vec![4, 1]).unwrap();
        for n in [1usize, 17, 80, 150] {
            ws.solve_at(n, &demands).unwrap();
            let x = ws.throughput();
            assert!(close(x, full.x[n - 1], 1e-12 * x));
            assert!(close(ws.queues()[0], full.queues[0][n - 1], 1e-9));
            assert!(close(ws.queues()[1], full.queues[1][n - 1], 1e-9));
            for (j, mv) in ws.marginals_of(0).iter().enumerate().take(4) {
                assert!(close(*mv, full.marginals[0][n - 1][j], 1e-10));
            }
        }
    }

    #[test]
    fn zero_think_time_supported() {
        let stations = vec![st("s", 0.1, RateFunction::SingleServer)];
        let sol = series(&stations, 0.0, 50, &[0]);
        // Batch network: X = 1/D for every n >= 1 (single station).
        for &x in &sol.x {
            assert!(close(x, 10.0, 1e-9));
        }
    }

    #[test]
    fn zero_demand_station_is_transparent() {
        let with = vec![
            st("s", 0.1, RateFunction::SingleServer),
            st("ghost", 0.0, RateFunction::SingleServer),
        ];
        let without = vec![st("s", 0.1, RateFunction::SingleServer)];
        let a = series(&with, 1.0, 60, &[0, 0]);
        let b = series(&without, 1.0, 60, &[0]);
        for n in 0..60 {
            assert!(close(a.x[n], b.x[n], 1e-12));
            assert!(close(a.queues[1][n], 0.0, 1e-12));
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(ConvWorkspace::from_conv(Vec::new(), 1.0, Vec::new()).is_err());
        // Zero population is meaningless for a single-point solve.
        let s = vec![st("s", 0.1, RateFunction::SingleServer)];
        let mut ws = ConvWorkspace::from_conv(s, 1.0, vec![0]).unwrap();
        assert!(ws.solve_at(0, &[0.1]).is_err());
    }

    fn mixed_network() -> ClosedNetwork {
        ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 4, 1.0, 0.03),
                Station::queueing("disk", 1, 1.0, 0.01),
                Station::delay("lan", 1.0, 0.005),
            ],
            0.7,
        )
        .unwrap()
    }

    #[test]
    fn streaming_iterator_snapshot_resumes_bit_for_bit() {
        let full: MvaSolution = ConvIter::new(&mixed_network()).unwrap().drain(120).unwrap();
        assert_eq!(full.points.len(), 120);

        // Snapshot mid-sweep, resume, and land on the same floats.
        let mut it = ConvIter::new(&mixed_network()).unwrap();
        for i in 0..60 {
            let p = it.step().unwrap();
            assert_eq!(p, full.points[i]);
        }
        let snap = it.snapshot();
        let tail_direct = it.drain(120).unwrap();
        let tail_resumed = snap.resume().drain(120).unwrap();
        assert_eq!(tail_direct, tail_resumed);
        assert_eq!(&full.points[60..], tail_direct.points.as_slice());
    }

    #[test]
    fn station_lowering_keeps_demand_and_rate_model() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 4, 2.0, 0.01),
                Station::load_dependent("fes", 1.0, 0.3, vec![1.0, 1.8]),
            ],
            1.0,
        )
        .unwrap();
        let conv: Vec<ConvStation> = net.stations().iter().map(ConvStation::from).collect();
        assert_eq!(conv[0].name, "cpu");
        assert_eq!(conv[0].demand, 0.02);
        assert_eq!(conv[0].rate, RateFunction::MultiServer(4));
        assert_eq!(conv[1].rate, RateFunction::Custom(vec![1.0, 1.8]));
    }

    #[test]
    fn custom_rate_function_supported() {
        // A "2.5-way effective" station: rates 1, 1.8, 2.5 then flat.
        let stations = vec![st("s", 0.1, RateFunction::Custom(vec![1.0, 1.8, 2.5]))];
        let sol = series(&stations, 0.2, 200, &[0]);
        let cap = 2.5 / 0.1;
        let mut prev = 0.0;
        for &x in &sol.x {
            assert!(x <= cap + 1e-9);
            assert!(x >= prev - 1e-9);
            prev = x;
        }
        assert!(sol.x[199] > 0.99 * cap);
    }

    #[test]
    fn delay_dominated_network() {
        // Queueing station negligible next to a big delay stage: X ≈ n/(Z+Ddelay).
        let stations = vec![
            st("tiny", 1e-5, RateFunction::SingleServer),
            st("lan", 0.5, RateFunction::Delay),
        ];
        let sol = series(&stations, 1.5, 50, &[0, 0]);
        for n in 1..=50usize {
            let expect = n as f64 / 2.0; // ~ n/(1.5 + 0.5)
            let x = sol.x[n - 1];
            assert!((x - expect).abs() < 0.02 * expect, "n={n}: {x} vs {expect}");
        }
    }

    #[test]
    fn huge_population_no_overflow() {
        // Zⁿ/n! for n = 3000 spans hundreds of orders of magnitude; the
        // log-domain evaluation must sail through.
        let stations = vec![st("s", 0.01, RateFunction::SingleServer)];
        let sol = series(&stations, 10.0, 3000, &[0]);
        assert!(sol.x[2999].is_finite());
        assert!(sol.x[2999] <= 100.0 + 1e-6);
        assert!(sol.x[2999] > 99.0);
    }
}
