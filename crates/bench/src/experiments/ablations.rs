//! Ablations over the design choices DESIGN.md calls out: interpolation
//! family, solver family (exact multi-server vs Schweitzer/Seidmann vs
//! single-server normalization), and sample placement.

use std::path::{Path, PathBuf};

use mvasd_core::accuracy::{compare, compare_solution};
use mvasd_core::algorithm::mvasd;
use mvasd_core::demand_fit::fit_profile;
use mvasd_core::designer::{design_levels, SamplingStrategy};
use mvasd_core::extrapolation::CurveFitPredictor;
use mvasd_core::profile::{DemandAxis, InterpolationKind, ServiceDemandProfile};
use mvasd_queueing::mva::{
    ClosedSolver, ExactMvaSolver, LoadDependentSolver, MultiserverMvaSolver, SchweitzerSolver,
};
use mvasd_queueing::network::{ClosedNetwork, Station};
use mvasd_testbed::apps::jpetstore;

use super::Ctx;
use crate::output::write_text;

/// Interpolation-family ablation: fit each interpolant on a *different*
/// sample set (the Chebyshev-4 design) and evaluate MVASD against the
/// measurements at the paper's standard levels — so the comparison probes
/// the interpolants' behaviour *between* knots, where they actually differ
/// (evaluating at the knot set itself makes every interpolant identical by
/// construction).
pub fn interpolation(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let reference = ctx.jpetstore();
    let (a, b) = jpetstore::CHEBYSHEV_RANGE;
    let fit_levels = design_levels(SamplingStrategy::Chebyshev, 4, a, b).expect("design");
    let fit = ctx.campaign(&jpetstore::model(), &fit_levels);
    let samples = fit.to_demand_samples();

    let kinds: [(&str, InterpolationKind); 5] = [
        ("linear", InterpolationKind::Linear),
        ("cubic-natural", InterpolationKind::CubicNatural),
        ("cubic-not-a-knot", InterpolationKind::CubicNotAKnot),
        ("pchip", InterpolationKind::Pchip),
        (
            "smoothing(l=1e-4)",
            InterpolationKind::Smoothing { lambda: 1e-4 },
        ),
    ];
    let mut summary = format!(
        "Ablation — interpolation family (JPetStore, MVASD)\n\
         fitted on Chebyshev-4 levels {fit_levels:?}, evaluated at the\n\
         standard levels {:?}\n",
        reference.levels()
    );
    for (name, kind) in kinds {
        let profile = ServiceDemandProfile::from_samples(&samples, kind, DemandAxis::Concurrency)
            .expect("profile");
        let sol = mvasd(&profile, 300).expect("solver");
        let rep = compare_solution(
            name,
            &sol,
            &reference.levels(),
            &reference.throughputs(),
            &reference.cycle_times(),
        )
        .expect("deviation");
        summary.push_str(&format!(
            "{name:<20} throughput dev {:.2} %, cycle dev {:.2} %\n",
            rep.throughput_mean_pct, rep.cycle_mean_pct
        ));
    }
    let p = write_text(dir, "ablation_interpolation.txt", &summary)?;
    println!("{summary}");
    Ok(vec![p])
}

/// Solver-family ablation on a 16-core CPU + disk network: exact
/// multi-server (convolution) vs Schweitzer/Seidmann vs single-server
/// normalization vs the load-dependent reference. Every contender runs
/// through the shared [`ClosedSolver`] interface.
pub fn solvers(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let net = ClosedNetwork::new(
        vec![
            Station::queueing("cpu16", 16, 1.0, 0.12),
            Station::queueing("disk", 1, 1.0, 0.006),
        ],
        1.0,
    )
    .expect("static model");
    // Single-server normalization: D/C on the CPU.
    let norm = ClosedNetwork::new(
        vec![
            Station::queueing("cpu16", 1, 1.0, 0.12 / 16.0),
            Station::queueing("disk", 1, 1.0, 0.006),
        ],
        1.0,
    )
    .expect("static model");
    let n_max = 300;

    let reference = LoadDependentSolver::from_network(&net)
        .solve(n_max)
        .expect("reference");

    let contenders: Vec<(&str, Box<dyn ClosedSolver>)> = vec![
        (
            "exact multi-server (Algorithm 2)",
            Box::new(MultiserverMvaSolver::new(net.clone())),
        ),
        (
            "Schweitzer + Seidmann",
            Box::new(SchweitzerSolver::new(net)),
        ),
        (
            "single-server normalization (D/C)",
            Box::new(ExactMvaSolver::new(norm)),
        ),
    ];

    let mut summary = format!(
        "Ablation — multi-server solver family vs load-dependent reference\n\
         (16-core CPU D=0.12 + disk D=0.006, Z=1, N=1..{n_max})\n"
    );
    for (label, solver) in &contenders {
        let sol = solver.solve(n_max).expect("solver");
        let mut mean = 0.0;
        let mut worst: f64 = 0.0;
        for n in 1..=n_max {
            let a = sol.at(n).expect("solution covers 1..=n_max").throughput;
            let b = reference
                .at(n)
                .expect("solution covers 1..=n_max")
                .throughput;
            let d = ((a - b) / b).abs();
            mean += d;
            worst = worst.max(d);
        }
        summary.push_str(&format!(
            "{label:<36} [{}]: mean {:.4} %, worst {:.4} %\n",
            solver.name(),
            mean / n_max as f64 * 100.0,
            worst * 100.0
        ));
    }
    let p = write_text(dir, "ablation_solvers.txt", &summary)?;
    println!("{summary}");
    Ok(vec![p])
}

/// Sample-placement ablation: MVASD accuracy from Chebyshev, equispaced,
/// and random 5-point designs on JPetStore.
pub fn sampling(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let reference = ctx.jpetstore();
    let (a, b) = jpetstore::CHEBYSHEV_RANGE;
    let app = jpetstore::model();
    let strategies: Vec<(&str, SamplingStrategy)> = vec![
        ("chebyshev", SamplingStrategy::Chebyshev),
        ("equispaced", SamplingStrategy::EquiSpaced),
        ("random", SamplingStrategy::Random { seed: 7 }),
    ];
    let mut summary =
        String::from("Ablation — sample placement (5 load tests, JPetStore, MVASD)\n");
    for (name, strat) in strategies {
        let levels = design_levels(strat, 5, a, b).expect("design");
        let c = ctx.campaign(&app, &levels);
        let profile = ServiceDemandProfile::from_samples(
            &c.to_demand_samples(),
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Concurrency,
        )
        .expect("profile");
        let sol = mvasd(&profile, 300).expect("solver");
        let rep = compare_solution(
            name,
            &sol,
            &reference.levels(),
            &reference.throughputs(),
            &reference.cycle_times(),
        )
        .expect("deviation");
        summary.push_str(&format!(
            "{name:<11} {levels:?}: throughput dev {:.2} %, cycle dev {:.2} %\n",
            rep.throughput_mean_pct, rep.cycle_mean_pct
        ));
    }
    let p = write_text(dir, "ablation_sampling.txt", &summary)?;
    println!("{summary}");
    Ok(vec![p])
}

/// Curve-fitting-extrapolation baseline (the paper's ref. \[4]) vs MVASD:
/// both fitted from the same 5 Chebyshev load tests, both scored against
/// the measurements at the paper's standard levels. Also probes the one
/// capability gap curve fitting cannot close: per-resource utilization.
pub fn curvefit(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let reference = ctx.jpetstore();
    let (a, b) = jpetstore::CHEBYSHEV_RANGE;
    let app = jpetstore::model();
    let fit_levels = design_levels(SamplingStrategy::Chebyshev, 5, a, b).expect("design");
    let fit = ctx.campaign(&app, &fit_levels);

    // MVASD path.
    let profile = ServiceDemandProfile::from_samples(
        &fit.to_demand_samples(),
        InterpolationKind::CubicNotAKnot,
        DemandAxis::Concurrency,
    )
    .expect("profile");
    let sd = mvasd(&profile, 300).expect("solver");
    let sd_rep = compare_solution(
        "MVASD",
        &sd,
        &reference.levels(),
        &reference.throughputs(),
        &reference.cycle_times(),
    )
    .expect("deviation");

    // Curve-fit path: same measured points, throughput-only model.
    let lv: Vec<f64> = fit.levels().iter().map(|&l| l as f64).collect();
    let cf = CurveFitPredictor::fit(&lv, &fit.throughputs(), app.think_time).expect("fit");
    let cf_x: Vec<f64> = reference
        .levels()
        .iter()
        .map(|&n| cf.throughput(n as f64))
        .collect();
    let cf_c: Vec<f64> = reference
        .levels()
        .iter()
        .map(|&n| cf.cycle_time(n as f64))
        .collect();
    let cf_rep = compare(
        "CurveFit [4]",
        &cf_x,
        &cf_c,
        &reference.throughputs(),
        &reference.cycle_times(),
    )
    .expect("deviation");

    let summary = format!(
        "Ablation — curve-fitting extrapolation (paper ref. [4]) vs MVASD\n\
         (both fitted on the Chebyshev-5 levels {fit_levels:?}, JPetStore)\n\
         MVASD:         throughput dev {:.2} %, cycle dev {:.2} %\n\
         CurveFit [4]:  throughput dev {:.2} %, cycle dev {:.2} % ({:?} shape)\n\
         \n\
         Capability gap: the curve fit has no resource model — it cannot\n\
         report utilizations, locate the bottleneck, or answer what-if\n\
         questions (MVASD predicts db-cpu utilization {:.0} % at N = 210;\n\
         the curve fit predicts nothing).\n",
        sd_rep.throughput_mean_pct,
        sd_rep.cycle_mean_pct,
        cf_rep.throughput_mean_pct,
        cf_rep.cycle_mean_pct,
        cf.shape(),
        sd.at(210)
            .map(|p| p.stations[8].utilization * 100.0)
            .unwrap_or(0.0),
    );
    let p = write_text(dir, "ablation_curvefit.txt", &summary)?;
    println!("{summary}");
    Ok(vec![p])
}

/// Parametric demand laws vs spline interpolation — the paper's Section 7
/// future work ("finding a general representation of this with a few
/// samples"): fit `D(n) = d_∞(1 + α·e^{−n/τ})` per station from only 3
/// equispaced samples (the configuration that distorts splines in the
/// paper's Fig. 12) and compare MVASD accuracy.
pub fn demandfit(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let reference = ctx.jpetstore();
    // The paper's Fig. 12 "bad case": only {1, 14, 28} equispaced-ish
    // samples, all far below the knee.
    let sparse = ctx.campaign(&jpetstore::model(), &[1, 14, 28]);
    let samples = sparse.to_demand_samples();

    let spline_profile = ServiceDemandProfile::from_samples(
        &samples,
        InterpolationKind::CubicNotAKnot,
        DemandAxis::Concurrency,
    )
    .expect("profile");
    let spline_sol = mvasd(&spline_profile, 300).expect("solver");
    let spline_rep = compare_solution(
        "spline (3 samples)",
        &spline_sol,
        &reference.levels(),
        &reference.throughputs(),
        &reference.cycle_times(),
    )
    .expect("deviation");

    let (laws, law_profile) = fit_profile(&samples).expect("fit");
    let law_sol = mvasd(&law_profile, 300).expect("solver");
    let law_rep = compare_solution(
        "warm-up law (3 samples)",
        &law_sol,
        &reference.levels(),
        &reference.throughputs(),
        &reference.cycle_times(),
    )
    .expect("deviation");

    let db_cpu = sparse.station_index("db-cpu").expect("db-cpu");
    let summary = format!(
        "Ablation — parametric demand law vs spline (paper Section 7 future work)\n\
         (3 low-concurrency samples {{1, 14, 28}}, JPetStore, scored at the standard levels)\n\
         spline (clamped beyond N=28):  throughput dev {:.2} %, cycle dev {:.2} %\n\
         warm-up law d_inf(1+a*e^(-n/tau)): throughput dev {:.2} %, cycle dev {:.2} %\n\
         fitted db-cpu law: d_inf = {:.4} s, alpha = {:.3}, tau = {:.1}\n\
         (true curve: d_inf = 0.1350 s, alpha = 0.25, tau = 40)\n\
         \n\
         The parametric law extrapolates the demand *decline* beyond the last\n\
         sample, where the clamped spline freezes at the N=28 value.\n",
        spline_rep.throughput_mean_pct,
        spline_rep.cycle_mean_pct,
        law_rep.throughput_mean_pct,
        law_rep.cycle_mean_pct,
        laws[db_cpu].d_inf,
        laws[db_cpu].alpha,
        laws[db_cpu].tau,
    );
    let p = write_text(dir, "ablation_demandfit.txt", &summary)?;
    println!("{summary}");
    Ok(vec![p])
}

/// Robustness: how badly does MVASD degrade when the real system violates
/// its assumptions? The paper assumes software bottlenecks (locks, pools)
/// are "tuned prior to performance analysis"; here the simulated JPetStore
/// DB CPU gets an in-run lock-contention model (service inflating with the
/// local queue), the campaign is re-measured, and the same MVASD pipeline
/// is scored against it.
pub fn robustness(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let clean_reference = ctx.jpetstore();
    // Clean-system MVASD accuracy for comparison.
    let clean_profile = ServiceDemandProfile::from_samples(
        &clean_reference.to_demand_samples(),
        InterpolationKind::CubicNotAKnot,
        DemandAxis::Concurrency,
    )
    .expect("profile");
    let clean_sol = mvasd(&clean_profile, 300).expect("solver");
    let clean_rep = compare_solution(
        "clean",
        &clean_sol,
        &clean_reference.levels(),
        &clean_reference.throughputs(),
        &clean_reference.cycle_times(),
    )
    .expect("deviation");

    // Contended system: a lock convoy on the DB CPU.
    let mut app = jpetstore::model();
    app.stations[8] =
        app.stations[8]
            .clone()
            .with_contention(mvasd_simnet::ContentionModel::LinearBeyond {
                threshold: 16,
                slope: 0.015,
                max_factor: 2.0,
            });
    let contended = ctx.campaign(&app, &jpetstore::STANDARD_LEVELS);
    let profile = ServiceDemandProfile::from_samples(
        &contended.to_demand_samples(),
        InterpolationKind::CubicNotAKnot,
        DemandAxis::Concurrency,
    )
    .expect("profile");
    let sol = mvasd(&profile, 300).expect("solver");
    let rep = compare_solution(
        "contended",
        &sol,
        &contended.levels(),
        &contended.throughputs(),
        &contended.cycle_times(),
    )
    .expect("deviation");

    let summary = format!(
        "Ablation — robustness to software contention (JPetStore)\n\
         The paper assumes software bottlenecks are tuned away; here the DB\n\
         CPU gets an in-run lock-convoy model (service +1.5 %/queued customer\n\
         beyond 16, capped at 2x) that no product-form model can represent.\n\
         \n\
         MVASD vs clean system:      throughput dev {:.2} %, cycle dev {:.2} %\n\
         MVASD vs contended system:  throughput dev {:.2} %, cycle dev {:.2} %\n\
         measured ceiling:           {:.1} -> {:.1} pages/s\n\
         \n\
         Interestingly MVASD partially absorbs the violation: the Service\n\
         Demand Law folds the inflated service times into the extracted\n\
         demands, so the interpolated demand curve *rises* past the lock\n\
         onset and the prediction bends with it — the mechanism behind the\n\
         paper's Fig. 7 dip working in MVASD's favour here too.\n",
        clean_rep.throughput_mean_pct,
        clean_rep.cycle_mean_pct,
        rep.throughput_mean_pct,
        rep.cycle_mean_pct,
        clean_reference
            .throughputs()
            .iter()
            .cloned()
            .fold(0.0f64, f64::max),
        contended
            .throughputs()
            .iter()
            .cloned()
            .fold(0.0f64, f64::max),
    );
    let p = write_text(dir, "ablation_robustness.txt", &summary)?;
    println!("{summary}");
    Ok(vec![p])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_ablation_ranks_families() {
        let dir = std::env::temp_dir().join("mvasd_ablation_test");
        solvers(&dir).unwrap();
        let txt = std::fs::read_to_string(dir.join("ablation_solvers.txt")).unwrap();
        assert!(txt.contains("exact multi-server"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
