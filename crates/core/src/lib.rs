//! # mvasd-core
//!
//! **MVASD** — exact multi-server Mean Value Analysis with *varying service
//! demands* — the primary contribution of Kattepur & Nambiar, "Performance
//! Modeling of Multi-tiered Web Applications with Varying Service Demands"
//! (IPPS 2015 / IJNC 6(1) 2016), Algorithm 3.
//!
//! Classic MVA takes one static service demand per station; the paper shows
//! that measured demands *change with concurrency* (caching, batching,
//! branch prediction), so whichever concurrency level the demands were
//! sampled at, static MVA mispredicts. MVASD instead accepts an **array of
//! demands** sampled at a handful of concurrency levels, interpolates them
//! with cubic splines (clamped outside the sampled range, paper eq. 14),
//! and evaluates the interpolant *inside* the population recursion:
//! at population `n` the algorithm uses `SSⁿ_k = h_k(n)`.
//!
//! * [`profile`] — [`profile::ServiceDemandProfile`]: the interpolated
//!   demand arrays (vs concurrency, or vs throughput as in paper Fig. 11).
//! * [`algorithm`] — [`algorithm::ProfileSchedule`], the demand schedule
//!   that turns the queueing recursions into Algorithm 3, and the drains
//!   [`algorithm::mvasd`] (Algorithm 3), the
//!   [`algorithm::mvasd_single_server`] baseline the paper shows to
//!   underperform (demands normalized by core count, single-server MVA),
//!   and [`algorithm::mvasd_schweitzer`] (fast approximate variant for
//!   very large populations). The recursions themselves live once, in
//!   `mvasd-queueing`.
//! * [`designer`] — load-test sample placement: Chebyshev Nodes (paper
//!   Section 8), equi-spaced, and random strategies.
//! * [`demand_fit`] — parametric demand laws `D(n) = d_∞(1 + α·e^{−n/τ})`
//!   fitted from a few samples: the paper's Section 7 future work.
//! * [`accuracy`] — the mean-percentage-deviation reports of paper
//!   Tables 4–5.
//! * [`extrapolation`] — the curve-fitting baseline of the paper's related
//!   work (ref. \[4]: linear/sigmoid throughput extrapolation), for
//!   head-to-head comparison against MVASD.
//! * [`open_system`] — open-system (arrival-rate driven) prediction from
//!   throughput-indexed profiles, the extension paper Section 7 motivates.
//! * [`pipeline`] — the three-step prediction workflow of paper Fig. 17
//!   (design points → load test → interpolate + predict).
//! * [`solver`] — [`solver::MvasdSolver`], the MVASD family as one
//!   [`mvasd_queueing::mva::ClosedSolver`] selected by
//!   [`solver::SolverBackend`], so the algorithms here slot into the same
//!   comparison pipelines as the static solvers and the simulation
//!   estimator.
//! * [`sweep`] — warm-restart scenario sweeps: families of what-if models
//!   served from shared, memoized population iterators with early-exit
//!   stop conditions.
//!
//! ## Quickstart
//!
//! ```
//! use mvasd_core::profile::{DemandSamples, ServiceDemandProfile, InterpolationKind, DemandAxis};
//! use mvasd_core::solver::MvasdSolver;
//! use mvasd_queueing::mva::ClosedSolver;
//!
//! // Demands measured at 3 concurrency levels for 2 stations.
//! let samples = DemandSamples {
//!     station_names: vec!["cpu".into(), "disk".into()],
//!     server_counts: vec![4, 1],
//!     think_time: 1.0,
//!     levels: vec![1.0, 50.0, 200.0],
//!     demands: vec![
//!         vec![0.024, 0.021, 0.020], // cpu falls with load
//!         vec![0.012, 0.011, 0.0105],
//!     ],
//! };
//! let profile = ServiceDemandProfile::from_samples(
//!     &samples, InterpolationKind::CubicNotAKnot, DemandAxis::Concurrency,
//! ).unwrap();
//! // MvasdSolver implements the workspace-wide ClosedSolver trait, so it
//! // drops into any pipeline alongside the static MVA solvers.
//! let solver = MvasdSolver::new(profile);
//! assert_eq!(solver.name(), "mvasd");
//! let prediction = solver.solve(300).unwrap();
//! assert!(prediction.last().throughput <= 1.0 / 0.0105 + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod algorithm;
pub mod demand_fit;
pub mod designer;
pub mod extrapolation;
pub mod open_system;
pub mod pipeline;
pub mod profile;
pub mod solver;
pub mod sweep;

/// Errors from MVASD model construction and solution.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A parameter was outside its legal domain.
    InvalidParameter {
        /// Description of the violated constraint.
        what: &'static str,
    },
    /// Error from the numerics layer (interpolation).
    Numerics(mvasd_numerics::NumericsError),
    /// Error from the queueing layer.
    Queueing(mvasd_queueing::QueueingError),
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoreError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            CoreError::Numerics(e) => write!(f, "numerics error: {e}"),
            CoreError::Queueing(e) => write!(f, "queueing error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<mvasd_numerics::NumericsError> for CoreError {
    fn from(e: mvasd_numerics::NumericsError) -> Self {
        CoreError::Numerics(e)
    }
}

impl From<mvasd_queueing::QueueingError> for CoreError {
    fn from(e: mvasd_queueing::QueueingError) -> Self {
        CoreError::Queueing(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_from() {
        let e: CoreError = mvasd_numerics::NumericsError::SingularSystem.into();
        assert!(!e.to_string().is_empty());
        let e: CoreError = mvasd_queueing::QueueingError::EmptyNetwork.into();
        assert!(!e.to_string().is_empty());
        assert!(!CoreError::InvalidParameter { what: "x" }
            .to_string()
            .is_empty());
    }
}
