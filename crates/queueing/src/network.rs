//! The closed queueing-network model of paper Fig. 2.
//!
//! A load test is modelled as `N` statistically identical customers cycling
//! through a think stage (mean `Z`) and a set of service stations. Each of
//! the three servers (load injector, web/application, database) contributes
//! four hardware stations — multi-core CPU, Disk, Net-Tx, Net-Rx — giving
//! the 12-station networks used throughout the evaluation. Software
//! bottlenecks (locks, connection pools) are assumed tuned away, as in the
//! paper.

use crate::QueueingError;

/// What kind of service a station provides.
#[derive(Debug, Clone, PartialEq)]
pub enum StationKind {
    /// FCFS queueing station with `servers` identical servers (paper's
    /// multi-server queue; `servers = 1` is the classic single-server case).
    Queueing {
        /// Number of servers `C_k` (CPU cores, disk spindles, …).
        servers: usize,
    },
    /// Infinite-server (delay) station: no queueing, pure latency.
    Delay,
    /// Load-dependent station: the service rate is a function of the number
    /// of customers present. `rates[j-1]` is the speedup factor with `j`
    /// customers, relative to the station's base service rate (so a plain
    /// single server is `[1.0, 1.0, …]`); populations beyond the table
    /// clamp to the last entry. This is the station shape a Norton
    /// flow-equivalent server produces when a subnetwork is aggregated
    /// (see the `hierarchy` module).
    LoadDependent {
        /// Relative service rates `μ(j)/μ(1)` for `j = 1, 2, …`.
        rates: Vec<f64>,
    },
}

impl StationKind {
    /// The declared server count: `Some(c)` for a queueing station, `None`
    /// for delay and load-dependent stations, which have no meaningful
    /// scalar server count. (Replaces the old `servers()` accessor that
    /// returned a `usize::MAX` sentinel for delay stations.)
    pub fn server_count(&self) -> Option<usize> {
        match self {
            StationKind::Queueing { servers } => Some(*servers),
            StationKind::Delay | StationKind::LoadDependent { .. } => None,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), QueueingError> {
        match self {
            StationKind::Queueing { servers: 0 } => Err(QueueingError::InvalidParameter {
                what: "station must have at least one server",
            }),
            StationKind::Queueing { .. } | StationKind::Delay => Ok(()),
            StationKind::LoadDependent { rates } if rates.is_empty() => {
                Err(QueueingError::InvalidParameter {
                    what: "load-dependent rate table must be non-empty",
                })
            }
            StationKind::LoadDependent { rates } => {
                if rates.iter().all(|r| r.is_finite() && *r > 0.0) {
                    Ok(())
                } else {
                    Err(QueueingError::InvalidParameter {
                        what: "load-dependent rates must be finite and > 0",
                    })
                }
            }
        }
    }

    /// The largest relative service rate the station can reach: `C` for a
    /// `C`-server queueing station, the table maximum for a load-dependent
    /// station, and `∞` for a delay station (it never saturates).
    pub fn max_rate(&self) -> f64 {
        match self {
            StationKind::Queueing { servers } => *servers as f64,
            StationKind::Delay => f64::INFINITY,
            StationKind::LoadDependent { rates } => rates.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// One service station of the closed network.
#[derive(Debug, Clone, PartialEq)]
pub struct Station {
    /// Human-readable identifier, e.g. `"db-disk"`.
    pub name: String,
    /// Queueing discipline / server count.
    pub kind: StationKind,
    /// Mean visits per system-level interaction, `V_k`.
    pub visits: f64,
    /// Mean service time per visit, `S_k` (seconds).
    pub service_time: f64,
}

impl Station {
    /// Convenience constructor for a queueing station.
    pub fn queueing(name: &str, servers: usize, visits: f64, service_time: f64) -> Self {
        Self {
            name: name.to_string(),
            kind: StationKind::Queueing { servers },
            visits,
            service_time,
        }
    }

    /// Convenience constructor for a delay (infinite-server) station.
    pub fn delay(name: &str, visits: f64, service_time: f64) -> Self {
        Self {
            name: name.to_string(),
            kind: StationKind::Delay,
            visits,
            service_time,
        }
    }

    /// Convenience constructor for a load-dependent station: `service_time`
    /// is the base (single-customer) service time and `rates[j-1]` the
    /// relative speedup with `j` customers present.
    pub fn load_dependent(name: &str, visits: f64, service_time: f64, rates: Vec<f64>) -> Self {
        Self {
            name: name.to_string(),
            kind: StationKind::LoadDependent { rates },
            visits,
            service_time,
        }
    }

    /// Service demand `D_k = V_k · S_k` (paper eq. 3).
    pub fn demand(&self) -> f64 {
        self.visits * self.service_time
    }

    /// Effective demand for bottleneck analysis: `D_k / C_k` for a
    /// queueing station (a `C`-server station saturates at `C/D_k`),
    /// `D_k / max_j μ(j)` for a load-dependent station, and `0` for a
    /// delay station (it never saturates).
    pub fn effective_demand(&self) -> f64 {
        match &self.kind {
            StationKind::Queueing { servers } => self.demand() / *servers as f64,
            StationKind::Delay => 0.0,
            StationKind::LoadDependent { .. } => self.demand() / self.kind.max_rate(),
        }
    }

    fn validate(&self) -> Result<(), QueueingError> {
        self.kind.validate()?;
        if !(self.visits.is_finite() && self.visits >= 0.0) {
            return Err(QueueingError::InvalidParameter {
                what: "visits must be finite and >= 0",
            });
        }
        if !(self.service_time.is_finite() && self.service_time >= 0.0) {
            return Err(QueueingError::InvalidParameter {
                what: "service time must be finite and >= 0",
            });
        }
        Ok(())
    }
}

/// A single-class closed queueing network with terminal think time.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedNetwork {
    stations: Vec<Station>,
    think_time: f64,
}

impl ClosedNetwork {
    /// Builds a network; validates every station and the think time.
    pub fn new(stations: Vec<Station>, think_time: f64) -> Result<Self, QueueingError> {
        if stations.is_empty() {
            return Err(QueueingError::EmptyNetwork);
        }
        for s in &stations {
            s.validate()?;
        }
        if !(think_time.is_finite() && think_time >= 0.0) {
            return Err(QueueingError::InvalidParameter {
                what: "think time must be finite and >= 0",
            });
        }
        // lint: float-eq-ok validation rejects the exact all-zero-demand input, not near-zero
        if stations.iter().all(|s| s.demand() == 0.0) {
            return Err(QueueingError::InvalidParameter {
                what: "at least one station must have positive demand",
            });
        }
        Ok(Self {
            stations,
            think_time,
        })
    }

    /// The stations, in declaration order.
    pub fn stations(&self) -> &[Station] {
        &self.stations
    }

    /// Station names in declaration order, shared the way every
    /// [`MvaSolution`](crate::mva::MvaSolution) carries them.
    pub(crate) fn station_names(&self) -> std::sync::Arc<[String]> {
        let names: Vec<String> = self.stations.iter().map(|s| s.name.clone()).collect();
        names.into()
    }

    /// Mean terminal think time `Z`.
    pub fn think_time(&self) -> f64 {
        self.think_time
    }

    /// Returns a copy with a different think time (used in think-time
    /// sensitivity sweeps).
    pub fn with_think_time(&self, z: f64) -> Result<Self, QueueingError> {
        Self::new(self.stations.clone(), z)
    }

    /// Returns a copy with station demands replaced by `demands` (same
    /// order; visits are kept, service times rescaled). Panics are avoided:
    /// errors if lengths mismatch or a demand is negative.
    ///
    /// This is how MVASD's interpolated demand array is injected into the
    /// static solvers for comparison runs.
    pub fn with_demands(&self, demands: &[f64]) -> Result<Self, QueueingError> {
        if demands.len() != self.stations.len() {
            return Err(QueueingError::InvalidParameter {
                what: "demand array length must match station count",
            });
        }
        let mut stations = self.stations.clone();
        for (s, &d) in stations.iter_mut().zip(demands.iter()) {
            if !(d.is_finite() && d >= 0.0) {
                return Err(QueueingError::InvalidParameter {
                    what: "demands must be finite and >= 0",
                });
            }
            if s.visits > 0.0 {
                s.service_time = d / s.visits;
            } else {
                s.visits = 1.0;
                s.service_time = d;
            }
        }
        Self::new(stations, self.think_time)
    }

    /// Per-station service demands `D_k` in declaration order.
    pub fn demands(&self) -> Vec<f64> {
        self.stations.iter().map(Station::demand).collect()
    }

    /// Total demand `Σ D_k` — the zero-contention response time.
    pub fn total_demand(&self) -> f64 {
        self.stations.iter().map(Station::demand).sum()
    }

    /// The bottleneck: index and effective demand of the station with the
    /// largest `D_k / C_k`.
    pub fn bottleneck(&self) -> (usize, f64) {
        let mut best = (0usize, 0.0f64);
        for (i, s) in self.stations.iter().enumerate() {
            let d = s.effective_demand();
            if d > best.1 {
                best = (i, d);
            }
        }
        best
    }

    /// Maximum achievable throughput `1 / max_k(D_k / C_k)` (paper eq. 5
    /// generalized for multi-server stations).
    pub fn max_throughput(&self) -> f64 {
        let (_, d) = self.bottleneck();
        if d > 0.0 {
            1.0 / d
        } else {
            f64::INFINITY
        }
    }

    /// Population at which the asymptotic bounds cross,
    /// `N* = (Σ D_k + Z) / max_k(D_k/C_k)` — the knee of the throughput
    /// curve and a useful default for test-range selection.
    pub fn knee_population(&self) -> f64 {
        let (_, d) = self.bottleneck();
        if d > 0.0 {
            (self.total_demand() + self.think_time) / d
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> ClosedNetwork {
        ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 16, 1.0, 0.004),
                Station::queueing("disk", 1, 1.0, 0.012),
                Station::delay("lan", 1.0, 0.001),
            ],
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn demand_is_visits_times_service() {
        let s = Station::queueing("cpu", 4, 7.0, 0.002);
        assert!((s.demand() - 0.014).abs() < 1e-15);
    }

    #[test]
    fn effective_demand_divides_by_servers() {
        let s = Station::queueing("cpu", 4, 1.0, 0.02);
        assert!((s.effective_demand() - 0.005).abs() < 1e-15);
        let d = Station::delay("z", 1.0, 5.0);
        assert_eq!(d.effective_demand(), 0.0);
    }

    #[test]
    fn bottleneck_accounts_for_servers() {
        let n = net();
        // cpu effective = 0.004/16 = 0.00025; disk = 0.012 => disk wins.
        let (idx, d) = n.bottleneck();
        assert_eq!(idx, 1);
        assert!((d - 0.012).abs() < 1e-15);
        assert!((n.max_throughput() - 1.0 / 0.012).abs() < 1e-9);
    }

    #[test]
    fn knee_population_formula() {
        let n = net();
        let expect = (0.004 + 0.012 + 0.001 + 1.0) / 0.012;
        assert!((n.knee_population() - expect).abs() < 1e-9);
    }

    #[test]
    fn with_demands_rescales() {
        let n = net();
        let n2 = n.with_demands(&[0.008, 0.006, 0.001]).unwrap();
        let d = n2.demands();
        assert!((d[0] - 0.008).abs() < 1e-15);
        assert!((d[1] - 0.006).abs() < 1e-15);
        // Bottleneck moved to... cpu effective 0.0005 vs disk 0.006: disk still.
        assert_eq!(n2.bottleneck().0, 1);
        assert!(n.with_demands(&[0.1]).is_err());
        assert!(n.with_demands(&[0.1, -0.1, 0.0]).is_err());
    }

    #[test]
    fn rejects_invalid_models() {
        assert!(ClosedNetwork::new(vec![], 1.0).is_err());
        assert!(ClosedNetwork::new(vec![Station::queueing("s", 0, 1.0, 0.1)], 1.0).is_err());
        assert!(ClosedNetwork::new(vec![Station::queueing("s", 1, -1.0, 0.1)], 1.0).is_err());
        assert!(ClosedNetwork::new(vec![Station::queueing("s", 1, 1.0, f64::NAN)], 1.0).is_err());
        assert!(ClosedNetwork::new(vec![Station::queueing("s", 1, 1.0, 0.1)], -1.0).is_err());
        assert!(ClosedNetwork::new(vec![Station::queueing("s", 1, 1.0, 0.0)], 1.0).is_err());
    }

    #[test]
    fn with_think_time_changes_z_only() {
        let n = net().with_think_time(2.0).unwrap();
        assert_eq!(n.think_time(), 2.0);
        assert_eq!(n.stations().len(), 3);
    }

    #[test]
    fn effective_demand_drives_knee_not_raw_demand() {
        // A 16-core CPU with the biggest raw demand must NOT be the
        // bottleneck when a single-server disk has higher effective demand.
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 16, 1.0, 0.06),  // eff 3.75 ms
                Station::queueing("disk", 1, 1.0, 0.009), // eff 9 ms
            ],
            1.0,
        )
        .unwrap();
        assert_eq!(net.bottleneck().0, 1);
        assert!((net.max_throughput() - 1.0 / 0.009).abs() < 1e-9);
    }

    #[test]
    fn zero_think_time_is_legal() {
        // Batch (no terminals) workloads have Z = 0.
        let n = ClosedNetwork::new(vec![Station::queueing("s", 1, 1.0, 0.1)], 0.0).unwrap();
        assert_eq!(n.think_time(), 0.0);
    }

    #[test]
    fn server_count_is_typed_not_sentinel() {
        assert_eq!(StationKind::Queueing { servers: 4 }.server_count(), Some(4));
        assert_eq!(StationKind::Delay.server_count(), None);
        assert_eq!(
            StationKind::LoadDependent { rates: vec![1.0] }.server_count(),
            None
        );
    }

    #[test]
    fn load_dependent_station_validates_and_reports_rates() {
        let s = Station::load_dependent("fes", 1.0, 0.01, vec![1.0, 1.8, 2.4]);
        assert!((s.kind.max_rate() - 2.4).abs() < 1e-15);
        assert!((s.effective_demand() - 0.01 / 2.4).abs() < 1e-15);
        let net = ClosedNetwork::new(vec![s], 1.0).unwrap();
        assert_eq!(net.stations().len(), 1);

        let empty = Station::load_dependent("e", 1.0, 0.01, vec![]);
        assert!(ClosedNetwork::new(vec![empty], 1.0).is_err());
        let bad = Station::load_dependent("b", 1.0, 0.01, vec![1.0, 0.0]);
        assert!(ClosedNetwork::new(vec![bad], 1.0).is_err());
        let nan = Station::load_dependent("n", 1.0, 0.01, vec![f64::NAN]);
        assert!(ClosedNetwork::new(vec![nan], 1.0).is_err());
    }

    #[test]
    fn delay_station_never_saturates() {
        assert_eq!(StationKind::Delay.max_rate(), f64::INFINITY);
    }
}
