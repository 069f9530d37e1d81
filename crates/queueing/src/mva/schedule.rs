//! Demand schedules: where a single-class population recursion reads its
//! per-station demands at each step.
//!
//! The paper's MVASD (Algorithm 3) is Algorithm 2 with one substitution,
//! `SSⁿ_k ← h_k(n)`: the demand array is re-read at every population step.
//! [`DemandSchedule`] is that substitution point. The three single-class
//! recursions — [`ExactMvaIter`](super::ExactMvaIter) (Algorithm 1),
//! [`SchweitzerIter`](super::SchweitzerIter) and
//! [`PopulationRecursion`](super::PopulationRecursion) (the exact
//! multi-server recursion) — read every step's demands through a schedule,
//! so each recursion exists once: a static network is the constant schedule
//! of its own demands, and `mvasd-core` supplies the spline-interpolated
//! one (indexed by `n`, or by the previous step's throughput `X_{n−1}`).

use std::sync::Arc;

use crate::network::{ClosedNetwork, StationKind};
use crate::QueueingError;

/// The demand array a population recursion uses at each step.
///
/// A schedule may hand back any float; the recursions read it through
/// [`ScheduledNetwork`], which rejects a NaN, infinite or negative demand
/// with [`QueueingError::InvalidParameter`] before the step uses it.
pub trait DemandSchedule: std::fmt::Debug + Send + Sync {
    /// Fills `out` (one slot per station, declaration order) with the
    /// demands for population step `n`. `x_prev` is the throughput the
    /// recursion yielded at step `n − 1` (`0.0` before the first step).
    fn fill(&self, n: usize, x_prev: f64, out: &mut [f64]);
}

/// A constant schedule: the same demands at every step.
impl DemandSchedule for Vec<f64> {
    fn fill(&self, _n: usize, _x_prev: f64, out: &mut [f64]) {
        for (slot, &d) in out.iter_mut().zip(self) {
            *slot = d;
        }
    }
}

/// A single-class closed network whose demands come from a
/// [`DemandSchedule`]: station names and kinds, the think time, and the
/// schedule. Cloning shares the schedule.
#[derive(Debug, Clone)]
pub struct ScheduledNetwork {
    pub(crate) names: Arc<[String]>,
    pub(crate) kinds: Vec<StationKind>,
    pub(crate) think_time: f64,
    pub(crate) schedule: Arc<dyn DemandSchedule>,
}

impl ScheduledNetwork {
    /// Builds a network from one name and kind per station, a think time
    /// and the schedule that supplies each step's demands.
    pub fn new(
        names: Vec<String>,
        kinds: Vec<StationKind>,
        think_time: f64,
        schedule: Arc<dyn DemandSchedule>,
    ) -> Result<Self, QueueingError> {
        if names.is_empty() {
            return Err(QueueingError::EmptyNetwork);
        }
        if kinds.len() != names.len() {
            return Err(QueueingError::InvalidParameter {
                what: "need one station kind per station name",
            });
        }
        for kind in &kinds {
            kind.validate()?;
        }
        if !(think_time.is_finite() && think_time >= 0.0) {
            return Err(QueueingError::InvalidParameter {
                what: "think time must be finite and >= 0",
            });
        }
        Ok(Self {
            names: names.into(),
            kinds,
            think_time,
            schedule,
        })
    }

    /// Fills `out` with the demands for step `n` from the schedule and
    /// checks them: the one place every recursion reads its schedule.
    pub(crate) fn fill(&self, n: usize, x_prev: f64, out: &mut [f64]) -> Result<(), QueueingError> {
        self.schedule.fill(n, x_prev, out);
        check_demands(out)
    }

    /// Fails with `what` if any station is load-dependent.
    pub(crate) fn reject_load_dependent(&self, what: &'static str) -> Result<(), QueueingError> {
        let load_dependent = |k: &StationKind| matches!(k, StationKind::LoadDependent { .. });
        if self.kinds.iter().any(load_dependent) {
            return Err(QueueingError::InvalidParameter { what });
        }
        Ok(())
    }
}

/// The rule every demand array a recursion evaluates must obey: each
/// demand finite and `>= 0` (zero means the station is absent).
pub(crate) fn check_demands(demands: &[f64]) -> Result<(), QueueingError> {
    if demands.iter().all(|d| d.is_finite() && *d >= 0.0) {
        Ok(())
    } else {
        Err(QueueingError::InvalidParameter {
            what: "demand must be finite and >= 0",
        })
    }
}

/// A schedule whose demands turn hostile: station 0 reads `bad` from step
/// `after + 1` on. The regression fixture of every recursion.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct TurnsHostile {
    pub base: Vec<f64>,
    pub after: usize,
    pub bad: f64,
}

#[cfg(test)]
impl DemandSchedule for TurnsHostile {
    fn fill(&self, n: usize, _x_prev: f64, out: &mut [f64]) {
        out.copy_from_slice(&self.base);
        if n > self.after {
            out[0] = self.bad;
        }
    }
}

/// A static network is the constant schedule of its own demands.
impl From<&ClosedNetwork> for ScheduledNetwork {
    fn from(net: &ClosedNetwork) -> Self {
        Self {
            names: net.station_names(),
            kinds: net.stations().iter().map(|s| s.kind.clone()).collect(),
            think_time: net.think_time(),
            schedule: Arc::new(net.demands()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Station;

    #[test]
    fn static_network_is_its_constant_schedule() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 4, 2.0, 0.01),
                Station::delay("lan", 1.0, 0.002),
            ],
            1.0,
        )
        .unwrap();
        let sched = ScheduledNetwork::from(&net);
        assert_eq!(sched.kinds.len(), 2);
        let mut out = [0.0; 2];
        for (n, x_prev) in [(1, 0.0), (50, 12.5)] {
            sched.schedule.fill(n, x_prev, &mut out);
            assert_eq!(out.to_vec(), net.demands());
        }
    }

    #[test]
    fn construction_validates_the_structure() {
        let flat: Arc<dyn DemandSchedule> = Arc::new(vec![0.01]);
        let build = |names: Vec<&str>, kinds: Vec<StationKind>, z: f64| {
            ScheduledNetwork::new(
                names.into_iter().map(String::from).collect(),
                kinds,
                z,
                flat.clone(),
            )
        };
        let q1 = StationKind::Queueing { servers: 1 };
        assert!(build(vec!["a"], vec![q1.clone()], 1.0).is_ok());
        assert_eq!(
            build(vec![], vec![], 1.0).unwrap_err(),
            QueueingError::EmptyNetwork
        );
        assert!(build(vec!["a", "b"], vec![q1.clone()], 1.0).is_err());
        assert!(build(vec!["a"], vec![StationKind::Queueing { servers: 0 }], 1.0).is_err());
        assert!(build(vec!["a"], vec![q1], f64::NAN).is_err());
    }
}
