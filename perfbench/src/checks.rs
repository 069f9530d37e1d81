//! Correctness checks run after every timed iteration (outside its timer).
//! A failed check fails the iteration, which counts in `error_rate`.

use mvasd_core::accuracy::DeviationReport;
use mvasd_queueing::bounds::throughput_bounds;
use mvasd_queueing::mva::{MvaSolution, PopulationPoint};
use mvasd_queueing::network::{ClosedNetwork, Station};

/// The paper's accuracy bands for MVASD (Tables 4–5): mean throughput
/// deviation under 3 %, mean cycle-time deviation under 9 %.
pub const THROUGHPUT_BAND_PCT: f64 = 3.0;
/// See [`THROUGHPUT_BAND_PCT`].
pub const CYCLE_BAND_PCT: f64 = 9.0;

/// Relative tolerance of the exact identities (Little's law, bounds).
const REL_TOL: f64 = 1e-9;

/// MVASD's deviation lies inside the paper's bands.
pub fn within_bands(mvasd: &DeviationReport) -> Result<(), String> {
    if mvasd.throughput_mean_pct < THROUGHPUT_BAND_PCT && mvasd.cycle_mean_pct < CYCLE_BAND_PCT {
        Ok(())
    } else {
        Err(format!(
            "MVASD outside the paper bands: throughput {:.3} % (< {THROUGHPUT_BAND_PCT}), cycle {:.3} % (< {CYCLE_BAND_PCT})",
            mvasd.throughput_mean_pct, mvasd.cycle_mean_pct
        ))
    }
}

/// MVASD has a lower mean throughput deviation and a lower mean cycle-time
/// deviation than every static-demand baseline.
pub fn beats_baselines(
    mvasd: &DeviationReport,
    baselines: &[DeviationReport],
) -> Result<(), String> {
    for b in baselines {
        if !(mvasd.throughput_mean_pct < b.throughput_mean_pct
            && mvasd.cycle_mean_pct < b.cycle_mean_pct)
        {
            return Err(format!(
                "MVASD ({:.3} % / {:.3} %) does not beat {} ({:.3} % / {:.3} %)",
                mvasd.throughput_mean_pct,
                mvasd.cycle_mean_pct,
                b.model,
                b.throughput_mean_pct,
                b.cycle_mean_pct
            ));
        }
    }
    Ok(())
}

/// A static network with the given demands, servers and think time.
pub fn network(names: &[String], servers: &[usize], demands: &[f64], think: f64) -> ClosedNetwork {
    let stations = names
        .iter()
        .zip(servers)
        .zip(demands)
        .map(|((name, &c), &d)| Station::queueing(name, c, 1.0, d))
        .collect();
    ClosedNetwork::new(stations, think).expect("measured demands form a valid network")
}

/// Checks one predicted point against the network in force at its
/// population, and returns how far `X` lies above the bottleneck asymptote
/// `1/max_k(D_k/C_k)` as a fraction (0 when at or below it).
///
/// Little's law `n = X · (R + Z)` and the no-queueing asymptote
/// `X ≤ n/(D + Z)` hold for every solver here, MVASD included (no
/// residence time is below its demand), so they are enforced. The
/// bottleneck asymptote is a theorem only for a fixed-demand network, so
/// it is left to the caller: [`static_series_is_physical`] enforces the
/// full `queueing::bounds` envelope on the MVA·i baselines, while MVASD's
/// excess is recorded. MVASD's step `n` pairs the demands of `n` with the
/// queues of `n − 1`, and overshoots the asymptote where an interpolated
/// demand rises at a saturated station.
pub fn point_is_physical(p: &PopulationPoint, net: &ClosedNetwork) -> Result<f64, String> {
    let n = p.n as f64;
    if !(p.throughput.is_finite() && p.cycle_time.is_finite() && p.throughput > 0.0) {
        return Err(format!("non-finite or empty point at n={}", p.n));
    }
    let little = p.throughput * p.cycle_time;
    if (little - n).abs() > REL_TOL * n {
        return Err(format!("Little's law fails at n={}: X·C = {little}", p.n));
    }
    let d_total: f64 = net.stations().iter().map(|s| s.demand()).sum();
    let no_queueing = n / (d_total + net.think_time());
    if p.throughput > no_queueing * (1.0 + REL_TOL) {
        return Err(format!(
            "X = {} exceeds the no-queueing bound {no_queueing} at n={}",
            p.throughput, p.n
        ));
    }
    let d_max = net
        .stations()
        .iter()
        .map(|s| s.effective_demand())
        .fold(0.0f64, f64::max);
    Ok((p.throughput * d_max - 1.0).max(0.0))
}

/// [`point_is_physical`] at every point of a series; `net_at(n)` gives the
/// network in force at population `n`. Returns the largest excess over the
/// bottleneck asymptote.
pub fn series_is_physical(
    sol: &MvaSolution,
    mut net_at: impl FnMut(usize) -> ClosedNetwork,
) -> Result<f64, String> {
    sol.points.iter().try_fold(0.0f64, |worst, p| {
        point_is_physical(p, &net_at(p.n)).map(|e| worst.max(e))
    })
}

/// [`point_is_physical`] plus the `queueing::bounds` throughput envelope
/// at every point of a static network's series, where the asymptotes are
/// theorems.
pub fn static_series_is_physical(sol: &MvaSolution, net: &ClosedNetwork) -> Result<(), String> {
    for p in &sol.points {
        point_is_physical(p, net)?;
        let upper = throughput_bounds(net, p.n).upper;
        if p.throughput > upper * (1.0 + REL_TOL) {
            return Err(format!(
                "X = {} exceeds the asymptotic bound {upper} at n={}",
                p.throughput, p.n
            ));
        }
    }
    Ok(())
}

/// Two series are bit-identical: same populations, and every system and
/// station figure has the same bits.
pub fn bit_identical(a: &[PopulationPoint], b: &[PopulationPoint]) -> bool {
    let same = |x: f64, y: f64| x.to_bits() == y.to_bits();
    a.len() == b.len()
        && a.iter().zip(b).all(|(p, q)| {
            p.n == q.n
                && same(p.throughput, q.throughput)
                && same(p.response, q.response)
                && same(p.cycle_time, q.cycle_time)
                && p.stations.len() == q.stations.len()
                && p.stations.iter().zip(&q.stations).all(|(s, t)| {
                    same(s.queue, t.queue)
                        && same(s.residence, t.residence)
                        && same(s.utilization, t.utilization)
                })
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(model: &str, x: f64, c: f64) -> DeviationReport {
        DeviationReport {
            model: model.into(),
            throughput_mean_pct: x,
            throughput_max_pct: x,
            cycle_mean_pct: c,
            cycle_max_pct: c,
        }
    }

    #[test]
    fn bands_and_baselines() {
        assert!(within_bands(&report("MVASD", 1.0, 2.0)).is_ok());
        assert!(within_bands(&report("MVASD", 3.5, 2.0)).is_err());
        let sd = report("MVASD", 1.0, 2.0);
        assert!(beats_baselines(&sd, &[report("MVA 1", 5.0, 6.0)]).is_ok());
        assert!(beats_baselines(&sd, &[report("MVA 1", 5.0, 1.5)]).is_err());
    }

    #[test]
    fn physical_point_checks_catch_violations() {
        let names = vec!["cpu".to_string()];
        let net = network(&names, &[1], &[0.1], 1.0);
        let good = PopulationPoint {
            n: 1,
            throughput: 1.0 / 1.1,
            response: 0.1,
            cycle_time: 1.1,
            stations: Vec::new(),
        };
        assert_eq!(point_is_physical(&good, &net), Ok(0.0));
        let fast = PopulationPoint {
            throughput: 2.0,
            cycle_time: 0.5,
            ..good.clone()
        };
        assert!(point_is_physical(&fast, &net).is_err());
        // Two users, one 0.1 s server, Z = 0.05: the no-queueing bound
        // allows X = 16, the bottleneck only 10; 12 is over by 20 %.
        let tight = network(&names, &[1], &[0.1], 0.05);
        let over = PopulationPoint {
            n: 2,
            throughput: 12.0,
            response: 2.0 / 12.0 - 0.05,
            cycle_time: 2.0 / 12.0,
            stations: Vec::new(),
        };
        let excess = point_is_physical(&over, &tight).unwrap();
        assert!((excess - 0.2).abs() < 1e-12, "{excess}");
        let sol = MvaSolution {
            station_names: names.clone().into(),
            points: vec![over],
        };
        assert!(static_series_is_physical(&sol, &tight).is_err());
        let broken = PopulationPoint {
            throughput: 0.5,
            ..good
        };
        assert!(point_is_physical(&broken, &net).is_err());
    }
}
