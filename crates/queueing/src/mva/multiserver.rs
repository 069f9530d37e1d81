//! Exact multi-server MVA — paper Algorithm 2.
//!
//! Tightly coupled multi-core CPUs are multi-server queues; single-server
//! MVA (Algorithm 1) needs the heuristic "divide the demand by the core
//! count", which the paper shows to mispredict. Algorithm 2 instead values
//! a multi-server station through the marginal-probability correction of
//! paper eq. 10:
//!
//! ```text
//! R_k(n) = (D_k / C_k) · (1 + Q_k(n−1) + F_k(n−1)),
//! F_k    = Σ_{j=0}^{C_k−2} (C_k − 1 − j) · p_k(j)
//! ```
//!
//! ## Numerical evaluation
//!
//! The obvious way to carry the marginals — the population recursion with
//! the `p(0) = 1 − Σ…` closure — is **numerically unstable**: close to
//! saturation the closure cancels catastrophically and the recursion
//! amplifies round-off exponentially (measured gain ≈ 1.5–2× per
//! population step for a 16-core station, the paper's hardware). Plain
//! `f64` breaks a few dozen populations past the knee, and even
//! double-double state only delays the blow-up. [`multiserver_mva`]
//! therefore evaluates the network through the normalization-constant
//! (convolution) form in log-domain — mathematically identical for
//! constant demands, and a ratio of sums of positive terms, hence stable
//! at every population (validated against the machine-repair closed form
//! to 1e-9 in the tests).
//!
//! [`PopulationRecursion`] — the stepping engine shared with MVASD
//! (Algorithm 3), where demands change at every population and a one-pass
//! convolution is impossible — uses the carried recursion in double-double
//! precision only while every multi-server station is safely below the
//! instability region, and switches permanently to per-step quasi-static
//! convolution solves beyond it.
//!
//! The quasi-static solves are served by a carried incremental
//! [`ConvWorkspace`] rather than a from-scratch evaluation: when the
//! demand array changes between steps (the MVASD case) the workspace
//! rebuilds its carried factor columns in `O(K·n)`, and when it does not
//! (constant-demand Algorithm 2 driven through the recursion) each step
//! extends the columns by a single entry in `O(K)` — against the old
//! `O(K·n²)` per-step rebuild either way. The workspace's scratch buffers
//! are allocated once and reused for the rest of the sweep.

use mvasd_numerics::dd::Dd;
use mvasd_obsv as obsv;

use crate::network::{ClosedNetwork, StationKind};
use crate::QueueingError;

use super::convolution::{ConvStation, ConvWorkspace};
use super::loaddep::RateFunction;
use super::schedule::ScheduledNetwork;
use super::stepping::{MvaPoint, SolverIter};
use super::{ClosedSolver, MultiserverMvaSolver, MvaSolution, StationPoint};

/// Snapshot history of the marginal queue-length probabilities of one
/// station (the entries that drive the eq. 10 correction).
#[derive(Debug, Clone, PartialEq)]
pub struct MarginalTrace {
    /// Index of the traced station in the network.
    pub station: usize,
    /// `history[n - 1][j]` is `p_k(j | n)` — the probability that exactly
    /// `j` customers are at the station (hence `j` servers busy, for
    /// `j < C_k`) after the population-`n` step (`j = 0 … C_k − 1`).
    pub history: Vec<Vec<f64>>,
}

impl MarginalTrace {
    /// The probability that **all** servers are busy at each population,
    /// `1 − Σ_{j<C} p(j)` (clamped to `[0, 1]`).
    pub fn all_busy(&self) -> Vec<f64> {
        self.history
            .iter()
            .map(|snap| (1.0 - snap.iter().sum::<f64>()).clamp(0.0, 1.0))
            .collect()
    }
}

/// Runs exact multi-server MVA (paper Algorithm 2) up to `n_max`: a drain
/// of [`MultiserverMvaSolver`], which steps the incremental convolution
/// state (a [`ConvWorkspace`]). Queueing, delay and load-dependent
/// (rate-table) stations are all exact. `n_max = 0` yields an empty
/// solution.
pub fn multiserver_mva(net: &ClosedNetwork, n_max: usize) -> Result<MvaSolution, QueueingError> {
    MultiserverMvaSolver::new(net.clone()).solve(n_max)
}

/// As [`multiserver_mva`], additionally recording the marginal-probability
/// history of `trace_station` — the data behind the paper's Fig. 3
/// ("Marginal Probability of a CPU Core being busy with increasing
/// Concurrency"). A queueing station traces `p(0..C−1)`, a load-dependent
/// station its whole rate table; a delay station has no queue-length
/// marginals and is rejected, as is an out-of-range index.
pub fn multiserver_mva_with_marginals(
    net: &ClosedNetwork,
    n_max: usize,
    trace_station: usize,
) -> Result<(MvaSolution, MarginalTrace), QueueingError> {
    let limit = match net.stations().get(trace_station).map(|s| &s.kind) {
        None => {
            return Err(QueueingError::InvalidParameter {
                what: "trace station index out of range",
            })
        }
        Some(StationKind::Delay) => {
            return Err(QueueingError::InvalidParameter {
                what: "a delay station has no queue-length marginals to trace",
            })
        }
        Some(StationKind::Queueing { servers }) => *servers,
        // Track the whole occupancy table of an aggregated station.
        Some(StationKind::LoadDependent { rates }) => rates.len(),
    };
    let limits: Vec<usize> = (0..net.stations().len())
        .map(|k| if k == trace_station { limit } else { 0 })
        .collect();
    let mut ws = ConvWorkspace::new(net, &limits)?;
    ws.reserve(n_max);
    let mut points = Vec::with_capacity(n_max);
    let mut history = Vec::with_capacity(n_max);
    for _ in 0..n_max {
        ws.advance()?;
        points.push(ws.point());
        history.push(ws.marginals_of(trace_station).to_vec());
    }
    let solution = MvaSolution {
        station_names: net.station_names(),
        points,
    };
    let trace = MarginalTrace {
        station: trace_station,
        history,
    };
    Ok((solution, trace))
}

/// Per-server utilization above which a multi-server station is considered
/// at risk of entering the unstable region of the carried marginal
/// recursion; the [`PopulationRecursion`] switches to quasi-static
/// convolution evaluation from the first step where any station crosses it.
/// Well inside the provably contractive regime (instability has only been
/// observed from ≈ 0.9 upward; the carried state at the switch is accurate
/// to ~1e-28).
const QUASI_STATIC_SWITCH: f64 = 0.5;

/// The exact multi-server population recursion of Algorithms 2 and 3, as
/// a resumable iterator.
///
/// Each step reads its demand array from the network's
/// [`DemandSchedule`](super::DemandSchedule): a static network's constant
/// demands reproduce Algorithm 2; the spline-interpolated `SSⁿ` array of
/// `mvasd-core` is exactly MVASD (Algorithm 3), which is the path this
/// type serves (constant-demand Algorithm 2 runs on the one-pass
/// convolution in [`multiserver_mva`]).
///
/// Internally it runs the exact carried recursion (double-double state)
/// while every multi-server station's per-server utilization stays below
/// 0.5 (`QUASI_STATIC_SWITCH`), then switches permanently to per-step
/// quasi-static convolution solves: each step is solved as a constant-
/// demand network frozen at that step's demand array — the numerically
/// robust reading of the same algorithm, and the semantically right one
/// for steady-state prediction (a load test at `N` users measures the
/// steady state of the system *with the demands it has at `N`*).
///
/// Snapshotting clones the carried state; the schedule is shared.
#[derive(Debug, Clone)]
pub struct PopulationRecursion {
    net: ScheduledNetwork,
    /// Server count per station; `None` marks a delay station.
    servers: Vec<Option<usize>>,
    /// This step's demands, refilled from the schedule.
    demands: Vec<f64>,
    /// Queue lengths (double-double while in carried mode).
    q: Vec<Dd>,
    /// Marginals p(0..C−1) per multi-server station (empty otherwise).
    p: Vec<Vec<Dd>>,
    /// Once true, every step is evaluated quasi-statically.
    quasi_static: bool,
    /// Carried convolution state for the quasi-static regime, built lazily
    /// on the first quasi-static step and reused (extended or rebuilt in
    /// place) for every step after.
    ws: Option<ConvWorkspace>,
    x_prev: f64,
    n: usize,
}

impl PopulationRecursion {
    /// Starts a fresh recursion at population 0 over a static network.
    /// Rejects load-dependent stations.
    pub fn new(net: ClosedNetwork) -> Result<Self, QueueingError> {
        Self::with_schedule((&net).into())
    }

    /// As [`new`](Self::new), with demands from a schedule.
    pub fn with_schedule(net: ScheduledNetwork) -> Result<Self, QueueingError> {
        net.reject_load_dependent(
            "the multi-server recursion does not support load-dependent stations",
        )?;
        // With rate tables rejected, `None` marks a delay station.
        let servers: Vec<Option<usize>> = net.kinds.iter().map(StationKind::server_count).collect();
        let p = servers
            .iter()
            .map(|c| match *c {
                Some(c) if c > 1 => {
                    let mut v = vec![Dd::ZERO; c];
                    v[0] = Dd::ONE;
                    v
                }
                _ => Vec::new(),
            })
            .collect();
        Ok(Self {
            demands: vec![0.0; servers.len()],
            q: vec![Dd::ZERO; servers.len()],
            net,
            servers,
            p,
            quasi_static: false,
            ws: None,
            x_prev: 0.0,
            n: 0,
        })
    }

    /// Whether the engine has switched to quasi-static evaluation.
    pub fn is_quasi_static(&self) -> bool {
        self.quasi_static
    }

    /// Advances the carried state to population `n` with this step's
    /// demands; returns `(throughput, response, residences)` rounded to
    /// `f64`.
    fn advance(&mut self, n: usize) -> Result<(f64, f64, Vec<f64>), QueueingError> {
        if self.quasi_static {
            return self.quasi_static_step(n);
        }
        let residence: Vec<Dd> = (0..self.servers.len())
            .map(|k| {
                let d = self.demands[k];
                match self.servers[k] {
                    None => Dd::from_f64(d),
                    Some(1) => (self.q[k] + 1.0) * d,
                    Some(c) => {
                        // eq. 10: (D/C)(1 + Q + F), F = Σ (C−1−j)p(j).
                        let mut f = Dd::ZERO;
                        for (j, pj) in self.p[k].iter().take(c - 1).enumerate() {
                            f = f + *pj * ((c - 1 - j) as f64);
                        }
                        (self.q[k] + f + 1.0) * (d / c as f64)
                    }
                }
            })
            .collect();
        let mut r_total = Dd::ZERO;
        for r in &residence {
            r_total = r_total + *r;
        }
        let x = (r_total + self.net.think_time).recip_mul(n as f64);

        // Check the stability envelope before committing this step: if any
        // multi-server station is past the switch utilization, redo the
        // step quasi-statically and stay there.
        let past_switch = self.servers.iter().zip(&self.demands).any(|(c, &d)| {
            matches!(*c, Some(c) if c > 1 && x.to_f64() * d / c as f64 > QUASI_STATIC_SWITCH)
        });
        if past_switch {
            self.quasi_static = true;
            return self.quasi_static_step(n);
        }

        for (k, r) in residence.iter().enumerate() {
            self.q[k] = x * *r;
            let c = match self.servers[k] {
                Some(c) if c > 1 => c,
                _ => continue,
            };
            let u = x * self.demands[k];
            let old = self.p[k].clone();
            for j in 1..c {
                self.p[k][j] = (u * old[j - 1] * (1.0 / j as f64)).max_zero();
            }
            // Busy-server identity closes p(0).
            let mut weighted = Dd::ZERO;
            for j in 1..c {
                weighted = weighted + self.p[k][j] * ((c - j) as f64);
            }
            self.p[k][0] = (Dd::ONE - (u + weighted) * (1.0 / c as f64)).max_zero();
        }

        Ok((
            x.to_f64(),
            r_total.to_f64(),
            residence.iter().map(|r| r.to_f64()).collect(),
        ))
    }

    /// One quasi-static step: exact constant-demand solve at population `n`
    /// with this step's demand array, served by the carried incremental
    /// workspace (same-demand steps extend in `O(K)`; demand changes
    /// rebuild the carried columns in `O(K·n)`). A schedule that hands
    /// back a NaN, infinite or negative demand gets the workspace's error.
    fn quasi_static_step(&mut self, n: usize) -> Result<(f64, f64, Vec<f64>), QueueingError> {
        let ws = match &mut self.ws {
            Some(ws) => ws,
            slot @ None => {
                let conv = self
                    .net
                    .names
                    .iter()
                    .zip(&self.net.kinds)
                    .zip(&self.demands)
                    .map(|((name, kind), &d)| ConvStation {
                        name: name.clone(),
                        demand: d,
                        rate: RateFunction::from(kind),
                    })
                    .collect();
                slot.insert(ConvWorkspace::from_conv(
                    conv,
                    self.net.think_time,
                    Vec::new(),
                )?)
            }
        };
        ws.solve_at(n, &self.demands)?;
        let x = ws.throughput();
        let queues = ws.queues();
        // The carried queues feed the yielded point; the marginals are
        // never read again once the switch has happened.
        for (qk, &q) in self.q.iter_mut().zip(queues) {
            *qk = Dd::from_f64(q);
        }
        let residences: Vec<f64> = queues
            .iter()
            .map(|q| if x > 0.0 { q / x } else { 0.0 })
            .collect();
        let r_total: f64 = residences.iter().sum();
        Ok((x, r_total, residences))
    }
}

impl SolverIter for PopulationRecursion {
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
        let _span = obsv::span("mvasd.step");
        obsv::counter("solver.steps", 1);
        let n = self.n + 1;
        self.net.schedule.fill(n, self.x_prev, &mut self.demands);
        let (x, r_total, residence) = self.advance(n)?;
        self.x_prev = x;

        let station_points = (0..residence.len())
            .map(|k| StationPoint {
                queue: self.q[k].to_f64(),
                residence: residence[k],
                utilization: match self.servers[k] {
                    Some(c) => x * self.demands[k] / c as f64,
                    None => x * self.demands[k],
                },
            })
            .collect();

        self.n = n;
        Ok(MvaPoint {
            n,
            throughput: x,
            response: r_total,
            cycle_time: r_total + self.net.think_time,
            stations: station_points,
        })
    }

    fn boxed_clone(&self) -> Box<dyn SolverIter> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::{exact_mva, DemandSchedule};
    use crate::network::Station;
    use std::sync::Arc;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn reduces_to_algorithm_1_for_single_servers() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("a", 1, 1.0, 0.004),
                Station::queueing("b", 1, 2.0, 0.003),
                Station::delay("lan", 1.0, 0.001),
            ],
            0.75,
        )
        .unwrap();
        let ms = multiserver_mva(&net, 200).unwrap();
        let ss = exact_mva(&net, 200).unwrap();
        for (pm, ps) in ms.points.iter().zip(ss.points.iter()) {
            let rel = (pm.throughput - ps.throughput).abs() / ps.throughput;
            assert!(
                rel < 1e-9,
                "n={}: {} vs {}",
                pm.n,
                pm.throughput,
                ps.throughput
            );
            assert!(close(pm.response, ps.response, 1e-8 * ps.response.max(1.0)));
        }
    }

    #[test]
    fn littles_law_holds() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu16", 16, 1.0, 0.020),
                Station::queueing("disk", 1, 1.0, 0.004),
            ],
            1.0,
        )
        .unwrap();
        let sol = multiserver_mva(&net, 400).unwrap();
        for p in &sol.points {
            assert!(close(
                p.n as f64,
                p.throughput * p.cycle_time,
                1e-6 * p.n as f64
            ));
        }
    }

    #[test]
    fn multiserver_beats_single_server_throughput() {
        // Same total demand; 4 cores must sustain ~4x the single-server
        // ceiling when CPU-bound.
        let single = ClosedNetwork::new(vec![Station::queueing("cpu", 1, 1.0, 0.02)], 1.0).unwrap();
        let quad = ClosedNetwork::new(vec![Station::queueing("cpu", 4, 1.0, 0.02)], 1.0).unwrap();
        let xs = multiserver_mva(&single, 600).unwrap().last().throughput;
        let xq = multiserver_mva(&quad, 600).unwrap().last().throughput;
        assert!(xs < 51.0);
        assert!(xq > 195.0, "got {xq}");
        assert!(xq <= 200.0 + 1e-6);
    }

    #[test]
    fn matches_machine_repair_closed_form_exactly() {
        // Single multi-server station + think time: exact result available.
        for (c, s, z, n_max) in [(4usize, 0.25f64, 1.0f64, 80usize), (16, 0.16, 1.0, 400)] {
            let net = ClosedNetwork::new(vec![Station::queueing("st", c, 1.0, s)], z).unwrap();
            let sol = multiserver_mva(&net, n_max).unwrap();
            for n in 1..=n_max {
                let (x_exact, _) = mvasd_numerics::erlang::machine_repair(n, c, s, z).unwrap();
                let x = sol.at(n).unwrap().throughput;
                let rel = (x - x_exact).abs() / x_exact;
                assert!(
                    rel < 1e-9,
                    "c={c} n={n}: {x} vs exact {x_exact} (rel {rel:e})"
                );
            }
        }
    }

    #[test]
    fn agrees_with_the_rate_table_form_of_the_same_network() {
        // A C-server queue is the rate table `min(j, C)`: spelled as a
        // load-dependent station it takes the engine's rate-table stage
        // instead of the multi-server/geometric ones. This guards the
        // station-kind translation.
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu16", 16, 1.0, 0.02),
                Station::queueing("disk", 1, 1.0, 0.002),
            ],
            1.0,
        )
        .unwrap();
        let table = ClosedNetwork::new(
            vec![
                Station::load_dependent("cpu16", 1.0, 0.02, (1..=16).map(f64::from).collect()),
                Station::load_dependent("disk", 1.0, 0.002, vec![1.0]),
            ],
            1.0,
        )
        .unwrap();
        let a2 = multiserver_mva(&net, 800).unwrap();
        let ld = multiserver_mva(&table, 800).unwrap();
        for (pa, pl) in a2.points.iter().zip(ld.points.iter()) {
            let rel = (pa.throughput - pl.throughput).abs() / pl.throughput;
            assert!(rel < 1e-12, "n={}", pa.n);
        }
    }

    #[test]
    fn throughput_monotone_even_around_the_knee() {
        // The brutal case for the naive recursion: 16 cores, deep
        // saturation traversal. Convolution must be monotone and respect
        // the Bottleneck Law everywhere.
        let net = ClosedNetwork::new(vec![Station::queueing("cpu", 16, 1.0, 0.16)], 1.0).unwrap();
        let sol = multiserver_mva(&net, 400).unwrap();
        let xs = sol.throughputs();
        for w in xs.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "dip: {} -> {}", w[0], w[1]);
        }
        assert!(sol.last().throughput > 99.9);
        assert!(sol.last().throughput <= 100.0 + 1e-6);
    }

    #[test]
    fn single_customer_never_queues_even_multiserver() {
        let net = ClosedNetwork::new(vec![Station::queueing("cpu", 8, 1.0, 0.4)], 1.0).unwrap();
        let p = multiserver_mva(&net, 1).unwrap();
        // One customer is served at full speed: R = D.
        assert!(close(p.at(1).unwrap().response, 0.4, 1e-9));
    }

    #[test]
    fn marginals_trace_is_a_probability_vector() {
        let net = ClosedNetwork::new(vec![Station::queueing("cpu", 4, 1.0, 0.1)], 1.0).unwrap();
        let (_, trace) = multiserver_mva_with_marginals(&net, 80, 0).unwrap();
        assert_eq!(trace.history.len(), 80);
        for snap in &trace.history {
            assert_eq!(snap.len(), 4);
            let sum: f64 = snap.iter().sum();
            for &pj in snap {
                assert!((0.0..=1.0 + 1e-9).contains(&pj), "p out of range: {pj}");
            }
            assert!(sum <= 1.0 + 1e-6, "partial masses exceed 1: {sum}");
        }
        // At saturation all mass moves to "all 4 busy".
        let all_busy = trace.all_busy();
        assert!(all_busy[79] > 0.9, "got {}", all_busy[79]);
        assert!(all_busy[0] < 0.1);
    }

    #[test]
    fn trace_rejects_bad_station() {
        let net = ClosedNetwork::new(vec![Station::queueing("cpu", 4, 1.0, 0.1)], 1.0).unwrap();
        assert!(multiserver_mva_with_marginals(&net, 10, 1).is_err());
    }

    #[test]
    fn trace_rejects_a_delay_station() {
        // A delay station has no marginals: tracing it used to return an
        // empty history, and `all_busy()[n - 1]` then panicked.
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 4, 1.0, 0.1),
                Station::delay("lan", 1.0, 0.01),
            ],
            1.0,
        )
        .unwrap();
        assert!(matches!(
            multiserver_mva_with_marginals(&net, 10, 1),
            Err(QueueingError::InvalidParameter { .. })
        ));
        assert!(multiserver_mva_with_marginals(&net, 10, 0).is_ok());
    }

    #[test]
    fn trace_drains_the_same_solution_as_the_plain_solve() {
        let net = ClosedNetwork::new(
            vec![
                Station::load_dependent("fes", 1.0, 0.1, vec![1.0, 1.8, 2.4]),
                Station::queueing("cpu", 4, 1.0, 0.02),
                Station::queueing("disk", 1, 1.0, 0.012),
                Station::delay("lan", 1.0, 0.004),
            ],
            1.0,
        )
        .unwrap();
        let plain = multiserver_mva(&net, 120).unwrap();
        for (k, width) in [(0usize, 3usize), (1, 4), (2, 1)] {
            let (sol, trace) = multiserver_mva_with_marginals(&net, 120, k).unwrap();
            // Tracing a rate-table station changes nothing; a traced
            // single-server queue takes the marginal path, so only its
            // throughput (the shared prefix chain) is bit-equal.
            if k < 2 {
                assert_eq!(sol, plain, "station {k}");
            }
            assert_eq!(sol.throughputs(), plain.throughputs(), "station {k}");
            assert_eq!(trace.history.len(), 120);
            assert!(trace.history.iter().all(|snap| snap.len() == width));
        }
    }

    #[test]
    fn trace_works_for_single_server_station() {
        let net = ClosedNetwork::new(vec![Station::queueing("disk", 1, 1.0, 0.01)], 1.0).unwrap();
        let (sol, trace) = multiserver_mva_with_marginals(&net, 50, 0).unwrap();
        for (snap, p) in trace.history.iter().zip(sol.points.iter()) {
            assert_eq!(snap.len(), 1);
            // p(0|n) = 1 − U for a single-server station.
            assert!(close(snap[0], (1.0 - p.throughput * 0.01).max(0.0), 1e-8));
        }
    }

    #[test]
    fn utilization_per_server_bounded_by_one() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu16", 16, 1.0, 0.08),
                Station::queueing("disk", 1, 1.0, 0.004),
            ],
            1.0,
        )
        .unwrap();
        let sol = multiserver_mva(&net, 1000).unwrap();
        for p in &sol.points {
            for sp in &p.stations {
                assert!(sp.utilization <= 1.0 + 1e-9);
            }
        }
        // CPU is the bottleneck (0.08/16 = 5 ms effective > 4 ms disk):
        // its per-server utilization should approach 1.
        assert!(
            sol.last().stations[0].utilization > 0.98,
            "got {}",
            sol.last().stations[0].utilization
        );
    }

    #[test]
    fn paper_scale_network_respects_bottleneck_law() {
        // 12-station, 3-tier, 16-core network at VINS scale (N = 1500).
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("load-cpu", 16, 1.0, 0.004),
                Station::queueing("load-disk", 1, 1.0, 0.0085),
                Station::queueing("load-tx", 1, 1.0, 0.0012),
                Station::queueing("load-rx", 1, 1.0, 0.0018),
                Station::queueing("app-cpu", 16, 1.0, 0.012),
                Station::queueing("app-disk", 1, 1.0, 0.0022),
                Station::queueing("app-tx", 1, 1.0, 0.0015),
                Station::queueing("app-rx", 1, 1.0, 0.0015),
                Station::queueing("db-cpu", 16, 1.0, 0.055),
                Station::queueing("db-disk", 1, 1.0, 0.0098),
                Station::queueing("db-tx", 1, 1.0, 0.0014),
                Station::queueing("db-rx", 1, 1.0, 0.0012),
            ],
            1.0,
        )
        .unwrap();
        let sol = multiserver_mva(&net, 1500).unwrap();
        let cap = net.max_throughput();
        for p in &sol.points {
            assert!(
                p.throughput <= cap + 1e-6,
                "n={}: {} > {cap}",
                p.n,
                p.throughput
            );
        }
        assert!(sol.last().throughput > 0.99 * cap);
    }

    #[test]
    fn recursion_engine_matches_full_solver_constant_demands() {
        // Drive PopulationRecursion with constant demands across the
        // quasi-static switch; it must agree with multiserver_mva
        // everywhere (exactly in the quasi-static regime, to the carried
        // recursion's precision before it).
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 16, 1.0, 0.16),
                Station::queueing("disk", 1, 1.0, 0.004),
            ],
            1.0,
        )
        .unwrap();
        let reference = multiserver_mva(&net, 250).unwrap();
        let mut rec = PopulationRecursion::new(net).unwrap();
        let mut switched_at = None;
        for n in 1..=250usize {
            let p = rec.step().unwrap();
            let (x, r) = (p.throughput, p.response);
            if switched_at.is_none() && rec.is_quasi_static() {
                switched_at = Some(n);
            }
            let pr = reference.at(n).unwrap();
            let rel = (x - pr.throughput).abs() / pr.throughput;
            assert!(rel < 1e-6, "n={n}: {x} vs {} (rel {rel:e})", pr.throughput);
            assert!(
                close(r, pr.response, 1e-5 * pr.response.max(1e-9)),
                "R at n={n}"
            );
        }
        // The switch must have fired well before the knee (~116).
        let s = switched_at.expect("must switch for a saturating CPU");
        assert!(s < 116, "switched at {s}");
    }

    #[test]
    fn recursion_engine_stays_carried_for_low_utilization() {
        // CPU never exceeds 35 % of 16 cores; disk is the bottleneck but is
        // single-server (always stable).
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 16, 1.0, 0.055),
                Station::queueing("disk", 1, 1.0, 0.0098),
            ],
            1.0,
        )
        .unwrap();
        let mut rec = PopulationRecursion::new(net).unwrap();
        rec.drain(1500).unwrap();
        assert!(!rec.is_quasi_static());
    }

    #[test]
    fn recursion_engine_handles_delay_stations_and_rejects_rate_tables() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 4, 1.0, 0.02),
                Station::delay("lan", 1.0, 0.003),
            ],
            0.5,
        )
        .unwrap();
        let sol = PopulationRecursion::new(net.clone())
            .unwrap()
            .drain(80)
            .unwrap();
        let reference = multiserver_mva(&net, 80).unwrap();
        for (p, r) in sol.points.iter().zip(&reference.points) {
            assert!(close(p.stations[1].residence, 0.003, 1e-12), "n={}", p.n);
            assert!(close(p.throughput, r.throughput, 1e-6 * r.throughput));
        }
        let ld = ClosedNetwork::new(
            vec![Station::load_dependent("fes", 1.0, 0.01, vec![1.0, 2.0])],
            1.0,
        )
        .unwrap();
        assert!(PopulationRecursion::new(ld).is_err());
    }

    /// A user schedule whose demands turn hostile after `after` steps.
    #[derive(Debug)]
    struct TurnsHostile {
        base: Vec<f64>,
        after: usize,
        bad: f64,
    }

    impl DemandSchedule for TurnsHostile {
        fn fill(&self, n: usize, _x_prev: f64, out: &mut [f64]) {
            out.copy_from_slice(&self.base);
            if n > self.after {
                out[0] = self.bad;
            }
        }
    }

    #[test]
    fn quasi_static_step_returns_hostile_demand_errors() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 16, 1.0, 0.16),
                Station::queueing("disk", 1, 1.0, 0.004),
            ],
            1.0,
        )
        .unwrap();
        for bad in [f64::NAN, f64::INFINITY, -0.1] {
            let schedule = TurnsHostile {
                base: net.demands(),
                after: 150,
                bad,
            };
            let mut sched = ScheduledNetwork::from(&net);
            sched.schedule = Arc::new(schedule);
            let mut rec = PopulationRecursion::with_schedule(sched).unwrap();
            rec.drain(150).unwrap();
            assert!(rec.is_quasi_static(), "the switch fires before the knee");
            assert!(
                matches!(rec.step(), Err(QueueingError::InvalidParameter { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn zero_population_yields_empty_solution() {
        let net = ClosedNetwork::new(vec![Station::queueing("s", 1, 1.0, 0.1)], 1.0).unwrap();
        let sol = multiserver_mva(&net, 0).unwrap();
        assert!(sol.points.is_empty());
        let (sol, trace) = multiserver_mva_with_marginals(&net, 0, 0).unwrap();
        assert!(sol.points.is_empty());
        assert!(trace.history.is_empty());
    }
}
