//! Algorithm 3 — MVASD: exact multi-server MVA with varying service
//! demands.
//!
//! Identical to the multi-server recursion (paper Algorithm 2) except that
//! the demand of every station is re-read from the interpolated profile at
//! every population step: `SSⁿ_k ← h_k(n)` (the underlined changes in the
//! paper's Algorithm 3 listing), so the residence update becomes paper
//! eq. 11:
//!
//! ```text
//! R_k = (SSⁿ_k / C_k) · (1 + Q_k + F_k)
//! ```
//!
//! That substitution is all this module adds. [`ProfileSchedule`] is a
//! [`DemandSchedule`]: it fills each step's demand array from the profile,
//! and the recursions themselves live once, in `mvasd-queueing` —
//! [`PopulationRecursion`](mvasd_queueing::mva::PopulationRecursion) for
//! exact MVASD (the eq. 11 correction evaluated through the exact marginal
//! recursion, switching to quasi-static convolution near saturation; see
//! its docs), [`ExactMvaIter`](mvasd_queueing::mva::ExactMvaIter) for the
//! single-server baseline and
//! [`SchweitzerIter`](mvasd_queueing::mva::SchweitzerIter) for the
//! approximate variant. The marginal update uses the *current*
//! interpolated demand, mirroring how the paper's pseudocode substitutes
//! `SSⁿ_k` into every `S_k` occurrence.
//!
//! With a [`DemandAxis::Throughput`] profile the lookup abscissa is the
//! previous iteration's throughput `X_{n−1}` instead of `n` (the paper's
//! Fig. 11 variant; "more tractable … when using open systems").
//!
//! [`mvasd_single_server`] is the paper's "MVASD: Single-Server" baseline:
//! the same demand arrays but multi-server queues normalized to a single
//! server (`D/C`), run through the Algorithm-1 recursion — shown in the
//! paper (Fig. 8, Table 5) to underperform the true multi-server treatment.

use std::sync::Arc;

use mvasd_queueing::mva::{ClosedSolver, DemandSchedule, MvaSolution, ScheduledNetwork};
use mvasd_queueing::network::StationKind;
use mvasd_queueing::QueueingError;

use crate::profile::{DemandAxis, ServiceDemandProfile};
use crate::solver::{MvasdSolver, SolverBackend};
use crate::CoreError;

/// The demand schedule of Algorithm 3: each step's demands are the
/// profile's interpolants evaluated at the step's lookup abscissa.
#[derive(Debug, Clone)]
pub struct ProfileSchedule {
    profile: ServiceDemandProfile,
    /// Divide each demand by its station's server count (the single-server
    /// baseline's `D/C` normalization).
    per_server: bool,
}

impl ProfileSchedule {
    /// The profile's stations as `C_k`-server queues with interpolated
    /// demands — or, with `per_server`, as single-server queues with the
    /// demands normalized to `D/C`.
    pub fn network(
        profile: &ServiceDemandProfile,
        per_server: bool,
    ) -> Result<ScheduledNetwork, QueueingError> {
        let stations = profile.stations();
        ScheduledNetwork::new(
            stations.iter().map(|s| s.name.clone()).collect(),
            stations
                .iter()
                .map(|s| StationKind::Queueing {
                    servers: if per_server { 1 } else { s.servers },
                })
                .collect(),
            profile.think_time(),
            Arc::new(Self {
                profile: profile.clone(),
                per_server,
            }),
        )
    }

    /// Resolves the profile-lookup abscissa for population `n` (the
    /// underlined step of Algorithm 3). Throughput-indexed profiles
    /// bootstrap from the lowest sampled abscissa on the first iteration
    /// and feed back `X_{n−1}` afterwards.
    fn lookup_abscissa(&self, n: usize, x_prev: f64) -> f64 {
        match self.profile.axis() {
            DemandAxis::Concurrency => n as f64,
            DemandAxis::Throughput => {
                if n == 1 {
                    self.profile
                        .sampled_levels()
                        .first()
                        .copied()
                        .unwrap_or(0.0)
                } else {
                    x_prev
                }
            }
        }
    }
}

impl DemandSchedule for ProfileSchedule {
    fn fill(&self, n: usize, x_prev: f64, out: &mut [f64]) {
        let abscissa = self.lookup_abscissa(n, x_prev);
        for (slot, s) in out.iter_mut().zip(self.profile.stations()) {
            let d = s.demand_at(abscissa);
            *slot = if self.per_server {
                d / s.servers as f64
            } else {
                d
            };
        }
    }
}

fn solve(
    profile: &ServiceDemandProfile,
    backend: SolverBackend,
    n_max: usize,
) -> Result<MvaSolution, CoreError> {
    MvasdSolver::with_backend(profile.clone(), backend)
        .solve(n_max)
        .map_err(CoreError::from)
}

/// Runs MVASD (paper Algorithm 3) up to population `n_max`. `n_max = 0`
/// yields an empty solution.
pub fn mvasd(profile: &ServiceDemandProfile, n_max: usize) -> Result<MvaSolution, CoreError> {
    solve(profile, SolverBackend::Mvasd, n_max)
}

/// The "MVASD: Single-Server" baseline of paper Fig. 8 / Table 5: demand
/// arrays are kept, but each multi-server queue is normalized to a single
/// server by dividing its demand by the core count, and the plain
/// Algorithm-1 recursion (`R_k = SSⁿ_k/C_k · (1 + Q_k)`) is used.
pub fn mvasd_single_server(
    profile: &ServiceDemandProfile,
    n_max: usize,
) -> Result<MvaSolution, CoreError> {
    solve(profile, SolverBackend::MvasdSingleServer, n_max)
}

/// Approximate MVASD: Schweitzer's fixed point with the Seidmann
/// multi-server transform, evaluated with the per-population interpolated
/// demand array.
///
/// Trades the exact evaluation of [`mvasd`] for `O(K)` state and a few
/// fixed-point sweeps per population — no convolution phase, so the cost is
/// linear in `n_max` even deep into saturation, at the textbook ~2–6 %
/// accuracy of Schweitzer approximations (quantified in the
/// `ablation-solvers` experiment for the constant-demand case). Useful for
/// interactive sweeps over very large populations.
pub fn mvasd_schweitzer(
    profile: &ServiceDemandProfile,
    n_max: usize,
) -> Result<MvaSolution, CoreError> {
    solve(profile, SolverBackend::MvasdSchweitzer, n_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{DemandSamples, InterpolationKind};
    use mvasd_queueing::mva::multiserver_mva;
    use mvasd_queueing::network::{ClosedNetwork, Station};

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    fn constant_samples(demands: &[(usize, f64)], z: f64) -> DemandSamples {
        DemandSamples {
            station_names: (0..demands.len()).map(|i| format!("s{i}")).collect(),
            server_counts: demands.iter().map(|(c, _)| *c).collect(),
            think_time: z,
            levels: vec![1.0, 100.0],
            demands: demands.iter().map(|(_, d)| vec![*d, *d]).collect(),
        }
    }

    #[test]
    fn constant_profile_reduces_to_algorithm_2() {
        // MVASD with a flat demand profile must equal exact multi-server MVA.
        let samples = constant_samples(&[(16, 0.02), (1, 0.004)], 1.0);
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Concurrency,
        )
        .unwrap();
        let sd = mvasd(&profile, 300).unwrap();

        let net = ClosedNetwork::new(
            vec![
                Station::queueing("s0", 16, 1.0, 0.02),
                Station::queueing("s1", 1, 1.0, 0.004),
            ],
            1.0,
        )
        .unwrap();
        let a2 = multiserver_mva(&net, 300).unwrap();
        for (ps, pa) in sd.points.iter().zip(a2.points.iter()) {
            assert!(close(ps.throughput, pa.throughput, 1e-9), "n={}", ps.n);
            assert!(close(ps.response, pa.response, 1e-9));
        }
    }

    #[test]
    fn littles_law_holds_with_varying_demands() {
        let samples = DemandSamples {
            station_names: vec!["cpu".into(), "disk".into()],
            server_counts: vec![8, 1],
            think_time: 1.0,
            levels: vec![1.0, 50.0, 200.0],
            demands: vec![vec![0.06, 0.05, 0.045], vec![0.012, 0.011, 0.010]],
        };
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Concurrency,
        )
        .unwrap();
        let sol = mvasd(&profile, 250).unwrap();
        for p in &sol.points {
            assert!(close(p.n as f64, p.throughput * p.cycle_time, 1e-9));
        }
    }

    #[test]
    fn varying_demand_raises_saturation_throughput() {
        // Demand falls from 12 ms to 10 ms: the MVASD ceiling follows the
        // *high-concurrency* demand (100/s), while MVA·1 (static demands
        // sampled at n = 1) saturates at 1/0.012 ≈ 83/s.
        let samples = DemandSamples {
            station_names: vec!["disk".into()],
            server_counts: vec![1],
            think_time: 1.0,
            levels: vec![1.0, 100.0, 400.0],
            demands: vec![vec![0.012, 0.0104, 0.010]],
        };
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Concurrency,
        )
        .unwrap();
        let sd = mvasd(&profile, 600).unwrap();
        assert!(sd.last().throughput > 97.0, "{}", sd.last().throughput);
        assert!(sd.last().throughput <= 100.0 + 1e-6);

        let mva1 = ClosedNetwork::new(vec![Station::queueing("disk", 1, 1.0, 0.012)], 1.0).unwrap();
        let x1 = multiserver_mva(&mva1, 600).unwrap().last().throughput;
        assert!(x1 < 84.0);
        assert!(sd.last().throughput > x1 * 1.15);
    }

    #[test]
    fn single_server_variant_distorts_presaturation_response() {
        // The paper's Fig. 8 observation: normalizing a multi-server CPU to
        // a single server mispredicts even though the asymptotic ceiling
        // matches. The direction: D/C pretends a 160 ms unit of work takes
        // 10 ms, so pre-saturation response is wildly optimistic (a real
        // 16-core station still serves each customer for the full D).
        let samples = constant_samples(&[(16, 0.16)], 1.0);
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::Linear,
            DemandAxis::Concurrency,
        )
        .unwrap();
        let multi = mvasd(&profile, 400).unwrap();
        let single = mvasd_single_server(&profile, 400).unwrap();
        let n_mid = 60;
        let r_multi = multi.at(n_mid).unwrap().response;
        let r_single = single.at(n_mid).unwrap().response;
        assert!(
            r_single < r_multi * 0.5,
            "single {r_single} should be far below multi {r_multi}"
        );
        assert!(close(r_multi, 0.16, 0.02));
        // Same asymptotic ceiling 16/0.16 = 100.
        assert!(close(
            single.last().throughput,
            multi.last().throughput,
            2.0
        ));
    }

    #[test]
    fn throughput_axis_profile_solves() {
        // Demands indexed by throughput; verifies the bootstrap & feedback
        // path. Falling demand vs X.
        let samples = DemandSamples {
            station_names: vec!["db".into()],
            server_counts: vec![1],
            think_time: 1.0,
            levels: vec![1.0, 40.0, 80.0], // throughputs
            demands: vec![vec![0.012, 0.011, 0.010]],
        };
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Throughput,
        )
        .unwrap();
        let sol = mvasd(&profile, 400).unwrap();
        // Ceiling tracks the demand at high throughput: 1/0.010.
        assert!(sol.last().throughput > 95.0);
        assert!(sol.last().throughput <= 100.0 + 1e-6);
        // Little's law still holds.
        for p in &sol.points {
            assert!(close(p.n as f64, p.throughput * p.cycle_time, 1e-9));
        }
    }

    #[test]
    fn contention_rise_produces_throughput_dip() {
        // Demand rising past the knee (JPetStore-style) must yield a
        // non-monotone throughput curve — the feature static MVA cannot
        // reproduce but MVASD "picks up" (paper Fig. 7).
        let samples = DemandSamples {
            station_names: vec!["dbcpu".into()],
            server_counts: vec![16],
            think_time: 1.0,
            levels: vec![1.0, 70.0, 140.0, 168.0, 210.0],
            demands: vec![vec![0.145, 0.120, 0.119, 0.126, 0.128]],
        };
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Concurrency,
        )
        .unwrap();
        let sol = mvasd(&profile, 210).unwrap();
        let xs = sol.throughputs();
        let peak = xs.iter().cloned().fold(0.0f64, f64::max);
        let x_end = *xs.last().unwrap();
        assert!(
            x_end < peak * 0.997,
            "dip expected: peak {peak}, end {x_end}"
        );
        // And the peak is reached strictly before the end of the range.
        let peak_n = xs.iter().position(|&x| x == peak).unwrap() + 1;
        assert!(peak_n < 200, "peak at n={peak_n}");
    }

    #[test]
    fn zero_population_yields_empty_solution() {
        let samples = constant_samples(&[(1, 0.01)], 1.0);
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::Linear,
            DemandAxis::Concurrency,
        )
        .unwrap();
        let sol = mvasd(&profile, 0).unwrap();
        assert!(sol.points.is_empty());
        assert_eq!(&sol.station_names[..], &["s0".to_string()][..]);
        assert!(mvasd_single_server(&profile, 0).unwrap().points.is_empty());
    }

    #[test]
    fn schweitzer_variant_tracks_exact_mvasd() {
        let samples = DemandSamples {
            station_names: vec!["cpu".into(), "disk".into()],
            server_counts: vec![16, 1],
            think_time: 1.0,
            levels: vec![1.0, 50.0, 200.0],
            demands: vec![vec![0.14, 0.125, 0.12], vec![0.008, 0.0075, 0.007]],
        };
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Concurrency,
        )
        .unwrap();
        let exact = mvasd(&profile, 600).unwrap();
        let approx = mvasd_schweitzer(&profile, 600).unwrap();
        for n in [1usize, 30, 100, 200, 300, 600] {
            let (xe, xa) = (
                exact.at(n).unwrap().throughput,
                approx.at(n).unwrap().throughput,
            );
            // The Seidmann/Schweitzer family's knee-region error on 16-core
            // stations reaches ~20 % (quantified in ablation-solvers); the
            // approximation must stay within that documented band.
            let rel = (xe - xa).abs() / xe;
            assert!(rel < 0.22, "n={n}: exact {xe} vs approx {xa}");
            // Little's law holds for the approximation too.
            let p = approx.at(n).unwrap();
            assert!(close(
                p.n as f64,
                p.throughput * p.cycle_time,
                1e-6 * p.n as f64
            ));
        }
        // Same asymptotic ceiling (interpolated bottleneck), approached
        // slowly by the approximation — 5 % far past the knee.
        let rel =
            (exact.last().throughput - approx.last().throughput).abs() / exact.last().throughput;
        assert!(
            rel < 0.05,
            "ceilings: {} vs {}",
            exact.last().throughput,
            approx.last().throughput
        );
    }

    #[test]
    fn schweitzer_variant_zero_population_is_empty() {
        let samples = constant_samples(&[(1, 0.01)], 1.0);
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::Linear,
            DemandAxis::Concurrency,
        )
        .unwrap();
        assert!(mvasd_schweitzer(&profile, 0).unwrap().points.is_empty());
    }

    #[test]
    fn utilization_tracks_interpolated_demand() {
        let samples = DemandSamples {
            station_names: vec!["disk".into()],
            server_counts: vec![1],
            think_time: 1.0,
            levels: vec![1.0, 200.0],
            demands: vec![vec![0.012, 0.010]],
        };
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::Linear,
            DemandAxis::Concurrency,
        )
        .unwrap();
        let sol = mvasd(&profile, 200).unwrap();
        for p in &sol.points {
            let d_n = profile.demands_at(p.n as f64)[0];
            assert!(close(p.stations[0].utilization, p.throughput * d_n, 1e-9));
            assert!(p.stations[0].utilization <= 1.0 + 1e-9);
        }
    }
}
