//! One module per group of reproduced tables/figures. Every public
//! function regenerates the corresponding artifact(s) under the results
//! directory and returns the written paths. `DESIGN.md` §4 maps experiment
//! ids to paper tables/figures; `run()` dispatches on those ids.

pub mod ablations;
pub mod chebyshev_exp;
pub mod grinder_fig;
pub mod jpetstore_exp;
pub mod marginals_fig;
pub mod vins_exp;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use mvasd_testbed::apps::{jpetstore, vins, AppModel};
use mvasd_testbed::campaign::{Campaign, MeasuredPoint};

use crate::measure;

/// Load-test measurements shared across experiments, cached per level, so
/// `repro all` simulates each distinct (app model, level) pair once.
///
/// A level's measurement depends only on the app model, the level, the
/// test duration and the base seed: each level derives its RNG stream from
/// the level alone. The harness fixes the duration
/// ([`TEST_DURATION`](crate::TEST_DURATION)) and the default base seed, so
/// the cache key is the model, compared by value, plus the level. Worker
/// parallelism is not part of the key because results do not depend on it.
#[derive(Default)]
pub struct Ctx {
    /// Measured points per distinct model, keyed by level.
    points: Mutex<Vec<(AppModel, BTreeMap<u64, MeasuredPoint>)>>,
}

impl Ctx {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// The campaign of `app` at `levels`: cached levels are reused, the
    /// rest are simulated in one [`measure`] call. Points come back
    /// ascending by level, as from [`measure`].
    pub fn campaign(&self, app: &AppModel, levels: &[u64]) -> Campaign {
        // A panic inside `measure` leaves the cache as it was before it.
        let mut cache = self.points.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = match cache.iter().position(|(model, _)| model == app) {
            Some(slot) => slot,
            None => {
                cache.push((app.clone(), BTreeMap::new()));
                cache.len() - 1
            }
        };
        let known = &mut cache[slot].1;
        let mut wanted = levels.to_vec();
        wanted.sort_unstable();
        let mut missing = wanted.clone();
        missing.retain(|n| !known.contains_key(n));
        missing.dedup();
        if !missing.is_empty() {
            let measured = measure(app, &missing).points;
            known.extend(measured.into_iter().map(|p| (p.users as u64, p)));
        }
        let points = wanted.iter().map(|n| known[n].clone()).collect();
        Campaign::from_points(app, points)
    }

    /// The VINS campaign at the paper's standard levels (1 → 1500).
    pub fn vins(&self) -> Campaign {
        self.campaign(&vins::model(), &vins::STANDARD_LEVELS)
    }

    /// The JPetStore campaign at the paper's levels {1,14,28,70,140,168,210}.
    pub fn jpetstore(&self) -> Campaign {
        self.campaign(&jpetstore::model(), &jpetstore::STANDARD_LEVELS)
    }
}

/// All known experiment ids, in paper order.
pub const ALL: &[&str] = &[
    "fig1",
    "fig3",
    "table2",
    "fig4",
    "fig5",
    "fig6",
    "table3",
    "fig7",
    "fig8",
    "fig9",
    "table4",
    "table5",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "ablation-interp",
    "ablation-solvers",
    "ablation-sampling",
    "ablation-curvefit",
    "ablation-demandfit",
    "ablation-robustness",
];

/// Runs one experiment by id; returns the artifact paths it wrote.
pub fn run(id: &str, ctx: &Ctx) -> Result<Vec<PathBuf>, String> {
    let dir = crate::output::results_dir();
    let r = match id {
        "fig1" => grinder_fig::fig1(&dir),
        "fig3" => marginals_fig::fig3(&dir),
        "table2" => vins_exp::table2(&dir, ctx),
        "fig4" => vins_exp::fig4(&dir, ctx),
        "fig5" => vins_exp::fig5(&dir, ctx),
        "fig6" => vins_exp::fig6(&dir, ctx),
        "table4" => vins_exp::table4(&dir, ctx),
        "fig10" => vins_exp::fig10(&dir, ctx),
        "table3" => jpetstore_exp::table3(&dir, ctx),
        "fig7" => jpetstore_exp::fig7(&dir, ctx),
        "fig8" => jpetstore_exp::fig8(&dir, ctx),
        "fig9" => jpetstore_exp::fig9(&dir, ctx),
        "table5" => jpetstore_exp::table5(&dir, ctx),
        "fig11" => jpetstore_exp::fig11(&dir, ctx),
        "fig12" => jpetstore_exp::fig12(&dir, ctx),
        "fig13" => chebyshev_exp::fig13(&dir),
        "fig14" => chebyshev_exp::fig14(&dir, ctx),
        "fig15" => chebyshev_exp::fig15(&dir, ctx),
        "fig16" => chebyshev_exp::fig16(&dir, ctx),
        "ablation-interp" => ablations::interpolation(&dir, ctx),
        "ablation-solvers" => ablations::solvers(&dir),
        "ablation-sampling" => ablations::sampling(&dir, ctx),
        "ablation-curvefit" => ablations::curvefit(&dir, ctx),
        "ablation-demandfit" => ablations::demandfit(&dir, ctx),
        "ablation-robustness" => ablations::robustness(&dir, ctx),
        other => return Err(format!("unknown experiment id '{other}'")),
    };
    r.map_err(|e| format!("experiment {id} failed: {e}"))
}
