//! The four workloads. Each drives the public entry points of the layers
//! it exercises and times every call from outside, one [`Stage`] per call.
//!
//! * `vins-workflow` — 9-level VINS campaign, fit, MVASD to N=1500, and the
//!   Table 4 deviations with the MVA·i baselines at {1, 103, 203, 1500};
//! * `jpetstore-chebyshev` — the Fig. 17 recipe: Chebyshev design of 5
//!   levels on [1, 300], campaign, fit, MVASD to N=300, deviations with the
//!   MVA·i baselines at the designed levels;
//! * `whatif-sweep` — a capacity-planning batch over JPetStore samples
//!   measured once during set-up: 16 models solved to N=300 in a fresh
//!   `ScenarioSweep`, then 16 early-exit queries that reuse those models;
//! * `repro-all` — every experiment id through `experiments::run` against
//!   one fresh `Ctx`, at the paper's fixed seeds.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mvasd_bench::experiments::{self, Ctx};
use mvasd_core::accuracy::{compare_solution, DeviationReport};
use mvasd_core::pipeline::PredictionWorkflow;
use mvasd_core::profile::{DemandAxis, DemandSamples, InterpolationKind, ServiceDemandProfile};
use mvasd_core::solver::MvasdSolver;
use mvasd_core::sweep::{Scenario, SweepReport, SweepStats};
use mvasd_obsv as obsv;
use mvasd_queueing::mva::{ClosedSolver, MultiserverMvaSolver, MvaSolution, StopCondition};
use mvasd_queueing::network::ClosedNetwork;
use mvasd_testbed::apps::{jpetstore, vins, AppModel};
use mvasd_testbed::campaign::{run_campaign, Campaign, CampaignConfig};

use crate::checks;
use crate::host;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The VINS workflow (DES-bound; MVASD on the carried recursion).
    VinsWorkflow,
    /// The Fig. 17 Chebyshev recipe on JPetStore (DES and convolution).
    JpetstoreChebyshev,
    /// A what-if batch over fixed JPetStore samples (no DES).
    WhatifSweep,
    /// `repro all` through `experiments::run`.
    ReproAll,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 4] = [
        Kind::VinsWorkflow,
        Kind::JpetstoreChebyshev,
        Kind::WhatifSweep,
        Kind::ReproAll,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::VinsWorkflow => "vins-workflow",
            Kind::JpetstoreChebyshev => "jpetstore-chebyshev",
            Kind::WhatifSweep => "whatif-sweep",
            Kind::ReproAll => "repro-all",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the traced run replays this workload's campaign through
    /// `grinder::load_test` (the DES cross-check).
    pub fn has_campaign(self) -> bool {
        matches!(self, Kind::VinsWorkflow | Kind::JpetstoreChebyshev)
    }
}

/// Sizes that a smoke run shrinks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Simulated seconds per load-test level.
    pub test_duration: f64,
    /// The experiment ids a `repro-all` iteration runs.
    pub repro_ids: &'static [&'static str],
}

impl Plan {
    /// The paper's 900 s load tests.
    pub fn full() -> Self {
        Plan {
            test_duration: mvasd_bench::TEST_DURATION,
            repro_ids: experiments::ALL,
        }
    }

    /// Shrunk load tests, and a `repro-all` cut to its cheapest
    /// experiments plus the two deviation tables, for the benchmark's own
    /// smoke tests.
    pub fn smoke() -> Self {
        Plan {
            test_duration: 400.0,
            repro_ids: &["fig1", "fig3", "table4", "table5"],
        }
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `PredictionWorkflow::design` (Chebyshev levels).
    Designer,
    /// `testbed::campaign::run_campaign`.
    Campaign,
    /// `ServiceDemandProfile::from_samples`.
    Profile,
    /// The MVASD solve (`MvasdSolver` or `PredictionWorkflow::predict`).
    Mvasd,
    /// The MVA·i baselines (`MultiserverMvaSolver`).
    Baselines,
    /// `core::accuracy` deviation reports.
    Accuracy,
    /// `ScenarioSweep::run`.
    Sweep,
    /// One `experiments::run` call.
    Repro(&'static str),
}

impl Stage {
    /// The non-repro stages, in workflow order.
    pub const LAYERS: [Stage; 7] = [
        Stage::Designer,
        Stage::Campaign,
        Stage::Profile,
        Stage::Mvasd,
        Stage::Baselines,
        Stage::Accuracy,
        Stage::Sweep,
    ];

    /// The metric prefix of the stage (`campaign`, `repro.fig1`, …).
    pub fn key(self) -> String {
        match self {
            Stage::Designer => "designer".into(),
            Stage::Campaign => "campaign".into(),
            Stage::Profile => "profile".into(),
            Stage::Mvasd => "mvasd".into(),
            Stage::Baselines => "baselines".into(),
            Stage::Accuracy => "accuracy".into(),
            Stage::Sweep => "sweep".into(),
            Stage::Repro(id) => format!("repro.{id}"),
        }
    }

    /// The benchmark's own span around the call.
    fn span(self) -> obsv::Span {
        match self {
            Stage::Designer => obsv::span("bench.designer"),
            Stage::Campaign => obsv::span("bench.campaign"),
            Stage::Profile => obsv::span("bench.profile"),
            Stage::Mvasd => obsv::span("bench.mvasd"),
            Stage::Baselines => obsv::span("bench.baselines"),
            Stage::Accuracy => obsv::span("bench.accuracy"),
            Stage::Sweep => obsv::span("bench.sweep"),
            Stage::Repro(id) => obsv::span_with("bench.repro", || id.to_string()),
        }
    }
}

/// Wall and CPU time of one stage call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTime {
    /// Which call.
    pub stage: Stage,
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) over the call.
    pub cpu_s: f64,
}

/// The stage times of one iteration.
#[derive(Debug, Default, Clone)]
pub struct Stages {
    /// Stage calls in the order they ran.
    pub times: Vec<StageTime>,
}

impl Stages {
    /// Runs `f` as `stage`, inside the benchmark's span for it.
    pub fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let _span = stage.span();
        let cpu0 = host::process_cpu_s();
        let t0 = Instant::now();
        let out = f();
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = host::process_cpu_s() - cpu0;
        self.times.push(StageTime {
            stage,
            wall_s,
            cpu_s,
        });
        out
    }

    /// Summed wall and CPU seconds of every call to `stage`.
    pub fn total(&self, stage: Stage) -> (f64, f64) {
        self.times
            .iter()
            .filter(|t| t.stage == stage)
            .fold((0.0, 0.0), |(w, c), t| (w + t.wall_s, c + t.cpu_s))
    }

    /// Summed wall seconds of every stage.
    pub fn wall_sum(&self) -> f64 {
        self.times.iter().map(|t| t.wall_s).sum()
    }
}

/// What a passed check measured on MVASD's prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Mean throughput deviation from the campaign (eq. 15), %.
    pub throughput_pct: f64,
    /// Mean cycle-time deviation from the campaign, %.
    pub cycle_pct: f64,
    /// Largest excess of X over the bottleneck asymptote at the demands
    /// in force, as a fraction (see [`checks::point_is_physical`]).
    pub saturation_excess: f64,
}

impl Verdict {
    fn new(mvasd: &DeviationReport, saturation_excess: f64) -> Self {
        Verdict {
            throughput_pct: mvasd.throughput_mean_pct,
            cycle_pct: mvasd.cycle_mean_pct,
            saturation_excess,
        }
    }
}

/// A campaign the traced run replays level by level.
pub struct ReplayTarget<'a> {
    /// The application the campaign measured.
    pub app: &'a AppModel,
    /// The configuration it ran with.
    pub cfg: &'a CampaignConfig,
    /// What it measured.
    pub campaign: &'a Campaign,
}

/// A set-up workload, ready to iterate.
pub trait Runner {
    /// Runs one iteration with campaign seed `seed`; the timed part only.
    fn iterate(&mut self, seed: u64, st: &mut Stages) -> Result<(), String>;

    /// Checks the last iteration's outputs.
    fn check(&self) -> Result<Verdict, String>;

    /// The last iteration's campaign, if the workload runs one per
    /// iteration.
    fn replay_target(&self) -> Option<ReplayTarget<'_>> {
        None
    }

    /// Layer counts only the workload can see (the sweep's statistics).
    fn layer_counts(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Runs once during set-up, untimed, so that code, allocator and
    /// thread pools are warm before the first timed iteration. The
    /// workflows run a full, checked iteration at [`reference_seed`]
    /// and return its verdict: the run's accuracy metrics.
    fn warm_up(&mut self) -> Result<Option<Verdict>, String>;
}

/// The campaign seed of the reference prediction: the harness's default
/// (`CampaignConfig::default().base_seed`), the seed of every paper
/// experiment. Its deviations repeat exactly on every run of the same code.
pub fn reference_seed() -> u64 {
    CampaignConfig::default().base_seed
}

/// Sets up `kind`: builds its models, runs its set-up campaign (if any)
/// and its warm-up. Returns the runner and the reference verdict, if the
/// workload makes one.
pub fn setup(
    kind: Kind,
    plan: Plan,
    workers: usize,
    out_dir: &Path,
) -> Result<(Box<dyn Runner>, Option<Verdict>), String> {
    let mut runner: Box<dyn Runner> = match kind {
        Kind::VinsWorkflow => Box::new(Workflow {
            app: vins::model(),
            levels: Levels::Fixed(vins::STANDARD_LEVELS.to_vec()),
            n_max: 1500,
            baseline_levels: Some(vec![1, 103, 203, 1500]),
            test_duration: plan.test_duration,
            workers,
            last: None,
        }),
        Kind::JpetstoreChebyshev => Box::new(Workflow {
            app: jpetstore::model(),
            levels: Levels::Designed(PredictionWorkflow {
                test_points: 5,
                range: jpetstore::CHEBYSHEV_RANGE,
                ..PredictionWorkflow::default()
            }),
            n_max: 300,
            baseline_levels: None,
            test_duration: plan.test_duration,
            workers,
            last: None,
        }),
        Kind::WhatifSweep => Box::new(WhatIf::new(plan.test_duration, workers, 300)?),
        Kind::ReproAll => Box::new(Repro::new(out_dir, plan.repro_ids)?),
    };
    let reference = runner.warm_up()?;
    Ok((runner, reference))
}

/// The campaign seed of iteration `i` of a run seeded with `seed`.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut state = seed ^ i.wrapping_mul(0xA076_1D64_78BD_642F);
    mvasd_numerics::rng::splitmix64(&mut state)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Where a workflow load-tests.
enum Levels {
    /// A fixed level set.
    Fixed(Vec<u64>),
    /// Step 1 of the workflow designs the levels in every iteration.
    Designed(PredictionWorkflow),
}

/// Design (optional) → campaign → fit → MVASD → MVA·i → deviations.
struct Workflow {
    app: AppModel,
    levels: Levels,
    n_max: usize,
    /// Levels whose demands feed MVA·i; `None` = every campaign level.
    baseline_levels: Option<Vec<usize>>,
    test_duration: f64,
    workers: usize,
    last: Option<WorkflowOut>,
}

struct WorkflowOut {
    cfg: CampaignConfig,
    campaign: Campaign,
    profile: ServiceDemandProfile,
    mvasd: MvaSolution,
    baselines: Vec<(ClosedNetwork, MvaSolution)>,
    /// MVASD first, then one report per baseline.
    reports: Vec<DeviationReport>,
}

impl Runner for Workflow {
    fn iterate(&mut self, seed: u64, st: &mut Stages) -> Result<(), String> {
        let levels = match &self.levels {
            Levels::Designed(wf) => st.time(Stage::Designer, || wf.design()).map_err(err)?,
            Levels::Fixed(levels) => levels.clone(),
        };
        let cfg = CampaignConfig {
            test_duration: self.test_duration,
            parallelism: self.workers,
            base_seed: seed,
        };
        let campaign = st
            .time(Stage::Campaign, || run_campaign(&self.app, &levels, &cfg))
            .map_err(err)?;
        let profile = st
            .time(Stage::Profile, || {
                ServiceDemandProfile::from_samples(
                    &campaign.to_demand_samples(),
                    InterpolationKind::CubicNotAKnot,
                    DemandAxis::Concurrency,
                )
            })
            .map_err(err)?;
        let n_max = self.n_max;
        let mvasd = st
            .time(Stage::Mvasd, || {
                MvasdSolver::new(profile.clone()).solve(n_max)
            })
            .map_err(err)?;
        let baseline_levels: Vec<usize> = match &self.baseline_levels {
            Some(ls) => ls.clone(),
            None => levels.iter().map(|&l| l as usize).collect(),
        };
        let baselines = st.time(Stage::Baselines, || {
            baseline_levels
                .iter()
                .map(|&i| {
                    let point = campaign
                        .at(i)
                        .ok_or_else(|| format!("baseline level {i} was not measured"))?;
                    let net = checks::network(
                        &campaign.stations,
                        &campaign.server_counts,
                        &point.demands,
                        campaign.think_time,
                    );
                    let sol = MultiserverMvaSolver::new(net.clone())
                        .solve(n_max)
                        .map_err(err)?;
                    Ok((net, sol))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let reports = st.time(Stage::Accuracy, || {
            let (ls, xs, cs) = (
                campaign.levels(),
                campaign.throughputs(),
                campaign.cycle_times(),
            );
            let mut reports = vec![compare_solution("MVASD", &mvasd, &ls, &xs, &cs)?];
            for (i, (_, sol)) in baseline_levels.iter().zip(&baselines) {
                reports.push(compare_solution(&format!("MVA {i}"), sol, &ls, &xs, &cs)?);
            }
            Ok::<_, mvasd_core::CoreError>(reports)
        });
        self.last = Some(WorkflowOut {
            cfg,
            campaign,
            profile,
            mvasd,
            baselines,
            reports: reports.map_err(err)?,
        });
        Ok(())
    }

    fn check(&self) -> Result<Verdict, String> {
        let out = self.last.as_ref().ok_or("no iteration ran")?;
        let (mvasd, baselines) = out.reports.split_first().ok_or("no reports")?;
        checks::within_bands(mvasd)?;
        checks::beats_baselines(mvasd, baselines)?;
        let c = &out.campaign;
        let excess = checks::series_is_physical(&out.mvasd, |n| {
            checks::network(
                &c.stations,
                &c.server_counts,
                &out.profile.demands_at(n as f64),
                c.think_time,
            )
        })?;
        for (net, sol) in &out.baselines {
            checks::static_series_is_physical(sol, net)?;
        }
        Ok(Verdict::new(mvasd, excess))
    }

    fn warm_up(&mut self) -> Result<Option<Verdict>, String> {
        self.iterate(reference_seed(), &mut Stages::default())?;
        self.check().map(Some)
    }

    fn replay_target(&self) -> Option<ReplayTarget<'_>> {
        self.last.as_ref().map(|out| ReplayTarget {
            app: &self.app,
            cfg: &out.cfg,
            campaign: &out.campaign,
        })
    }
}

/// A what-if batch: 16 models to the cap, then 16 early-exit queries that
/// reuse them, in a fresh `ScenarioSweep` per iteration.
struct WhatIf {
    campaign: Campaign,
    samples: DemandSamples,
    /// The base profile, for the physical checks.
    profile: ServiceDemandProfile,
    workflow: PredictionWorkflow,
    models: Vec<Scenario>,
    queries: Vec<Scenario>,
    cap: usize,
    workers: usize,
    last: Option<WhatIfOut>,
}

struct WhatIfOut {
    baseline: MvaSolution,
    models: SweepReport,
    queries: SweepReport,
    stats: SweepStats,
}

impl WhatIf {
    /// Measures the JPetStore samples (the set-up campaign, at the
    /// reference seed) and builds the scenario batch.
    fn new(test_duration: f64, workers: usize, cap: usize) -> Result<Self, String> {
        let cfg = CampaignConfig {
            test_duration,
            parallelism: workers,
            base_seed: reference_seed(),
        };
        let campaign =
            run_campaign(&jpetstore::model(), &jpetstore::STANDARD_LEVELS, &cfg).map_err(err)?;
        let samples = campaign.to_demand_samples();
        let workflow = PredictionWorkflow::default();
        let profile =
            ServiceDemandProfile::from_samples(&samples, workflow.interpolation, workflow.axis)
                .map_err(err)?;
        let models = what_if_models(&samples)?;
        let queries = models
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let q = Scenario {
                    label: format!("{}?", m.label),
                    ..m.clone()
                };
                if i % 2 == 0 {
                    q.until(StopCondition::SlaResponseTime { max_response: 0.5 })
                } else {
                    q.until(StopCondition::ThroughputPlateau { epsilon: 1e-3 })
                }
            })
            .collect();
        Ok(WhatIf {
            campaign,
            samples,
            profile,
            workflow,
            models,
            queries,
            cap,
            workers,
            last: None,
        })
    }

    /// The network model `m` puts in force at population `n`.
    fn network_at(&self, m: &Scenario, n: usize) -> ClosedNetwork {
        let demands: Vec<f64> = self
            .profile
            .demands_at(n as f64)
            .iter()
            .map(|d| d * m.demand_scale)
            .collect();
        checks::network(
            &self.samples.station_names,
            m.server_counts
                .as_ref()
                .unwrap_or(&self.samples.server_counts),
            &demands,
            m.think_time.unwrap_or(self.samples.think_time),
        )
    }
}

/// Sixteen capacity-planning variants of the base model: the base itself,
/// uniform demand scalings, DB-CPU core upgrades, think-time changes and
/// two combinations.
fn what_if_models(samples: &DemandSamples) -> Result<Vec<Scenario>, String> {
    let db_cpu = samples
        .station_names
        .iter()
        .position(|s| s == "db-cpu")
        .ok_or("JPetStore has a db-cpu station")?;
    let cores = |c: usize| {
        let mut counts = samples.server_counts.clone();
        counts[db_cpu] = c;
        counts
    };
    let mut models = vec![Scenario::new("baseline")];
    for s in [0.8, 0.85, 0.9, 0.95, 1.05, 1.1, 1.2] {
        models.push(Scenario::new(&format!("demand x{s}")).scale_demands(s));
    }
    for c in [20, 24, 32] {
        models.push(Scenario::new(&format!("db-cpu {c} cores")).with_server_counts(cores(c)));
    }
    for z in [0.5, 2.0, 3.0] {
        models.push(Scenario::new(&format!("think {z} s")).with_think_time(z));
    }
    models.push(
        Scenario::new("demand x0.9, db-cpu 24 cores")
            .scale_demands(0.9)
            .with_server_counts(cores(24)),
    );
    models.push(
        Scenario::new("demand x1.1, think 2 s")
            .scale_demands(1.1)
            .with_think_time(2.0),
    );
    Ok(models)
}

impl Runner for WhatIf {
    fn iterate(&mut self, _seed: u64, st: &mut Stages) -> Result<(), String> {
        let cap = self.cap;
        let baseline = st
            .time(Stage::Mvasd, || self.workflow.predict(&self.samples, cap))
            .map_err(err)?;
        let (models, queries, stats) = st
            .time(Stage::Sweep, || {
                let mut sweep = self
                    .workflow
                    .scenario_sweep(self.samples.clone())
                    .default_cap(cap)
                    .parallelism(self.workers);
                let models = sweep.run(&self.models)?;
                let queries = sweep.run(&self.queries)?;
                Ok::<_, mvasd_core::CoreError>((models, queries, sweep.stats()))
            })
            .map_err(err)?;
        self.last = Some(WhatIfOut {
            baseline,
            models,
            queries,
            stats,
        });
        Ok(())
    }

    fn check(&self) -> Result<Verdict, String> {
        let out = self.last.as_ref().ok_or("no iteration ran")?;
        let base = out
            .models
            .results
            .first()
            .ok_or("the sweep returned no results")?;
        if !checks::bit_identical(&base.solution.points, &out.baseline.points) {
            return Err("sweep baseline differs from PredictionWorkflow::predict".into());
        }
        let mut excess = 0.0f64;
        for ((m, full), query) in self
            .models
            .iter()
            .zip(&out.models.results)
            .zip(&out.queries.results)
        {
            if full.steps() != self.cap {
                return Err(format!("{} stopped at {} < cap", m.label, full.steps()));
            }
            let len = query.steps();
            if len == 0
                || !checks::bit_identical(
                    &query.solution.points,
                    &full.solution.points[..len.min(full.steps())],
                )
            {
                return Err(format!(
                    "query {} is not a prefix of its model",
                    query.label
                ));
            }
            excess = excess.max(checks::series_is_physical(&full.solution, |n| {
                self.network_at(m, n)
            })?);
        }
        let c = &self.campaign;
        let report = compare_solution(
            "MVASD",
            &out.baseline,
            &c.levels(),
            &c.throughputs(),
            &c.cycle_times(),
        )
        .map_err(err)?;
        checks::within_bands(&report)?;
        Ok(Verdict::new(&report, excess))
    }

    fn layer_counts(&self) -> Vec<(&'static str, f64)> {
        let Some(out) = &self.last else {
            return Vec::new();
        };
        let s = out.stats;
        vec![
            ("sweep.steps_computed", s.steps_computed as f64),
            ("sweep.steps_demanded", s.steps_demanded as f64),
            (
                "sweep.steps_saved_frac",
                s.steps_saved() as f64 / s.steps_demanded.max(1) as f64,
            ),
            ("sweep.cache_hits", s.cache_hits as f64),
            ("sweep.cache_misses", s.cache_misses as f64),
        ]
    }

    /// A batch cut to a cap of 30.
    fn warm_up(&mut self) -> Result<Option<Verdict>, String> {
        let full = std::mem::replace(&mut self.cap, 30);
        let res = self.iterate(0, &mut Stages::default());
        self.cap = full;
        res.map(|()| None)
    }
}

/// Every experiment of `repro all` against one fresh `Ctx`.
struct Repro {
    ids: &'static [&'static str],
    dir: PathBuf,
    warmup_dir: PathBuf,
    last: Vec<(&'static str, Result<Vec<PathBuf>, String>)>,
}

/// The cheap experiments that need no shared campaign: the warm-up.
const REPRO_WARMUP: [&str; 3] = ["fig1", "fig3", "fig13"];

impl Repro {
    fn new(out_dir: &Path, ids: &'static [&'static str]) -> Result<Self, String> {
        let dir = out_dir.join("results");
        let warmup_dir = out_dir.join("warmup-results");
        for d in [&dir, &warmup_dir] {
            std::fs::create_dir_all(d).map_err(err)?;
        }
        Ok(Repro {
            ids,
            dir,
            warmup_dir,
            last: Vec::new(),
        })
    }

    /// Reads a deviation table the experiments wrote: model names from the
    /// `.txt` rendering, figures from the `.csv` rows in the same order.
    fn table(&self, stem: &str) -> Result<Vec<DeviationReport>, String> {
        let read = |ext: &str| {
            std::fs::read_to_string(self.dir.join(format!("{stem}.{ext}")))
                .map_err(|e| format!("{stem}.{ext}: {e}"))
        };
        let (txt, csv) = (read("txt")?, read("csv")?);
        let names: Vec<String> = txt
            .lines()
            .skip_while(|l| !l.starts_with("Throughput"))
            .skip(1)
            .take_while(|l| l.starts_with("  "))
            .map(|l| {
                let mut words: Vec<&str> = l.split_whitespace().collect();
                words.truncate(words.len().saturating_sub(2));
                words.join(" ")
            })
            .collect();
        // Rows are `model_index,throughput_dev_pct,cycle_dev_pct`.
        let rows: Vec<(f64, f64)> = csv
            .lines()
            .skip(1)
            .map(|l| {
                let v: Vec<f64> = l
                    .split(',')
                    .map(|v| v.parse::<f64>().map_err(err))
                    .collect::<Result<_, String>>()?;
                match *v.as_slice() {
                    [_, x, c] => Ok((x, c)),
                    _ => Err(format!("{stem}: malformed row {l}")),
                }
            })
            .collect::<Result<_, String>>()?;
        if names.len() != rows.len() {
            return Err(format!("{stem}: model names and rows disagree"));
        }
        Ok(names
            .into_iter()
            .zip(rows)
            .map(|(model, (x, c))| DeviationReport {
                model,
                throughput_mean_pct: x,
                throughput_max_pct: x,
                cycle_mean_pct: c,
                cycle_max_pct: c,
            })
            .collect())
    }
}

impl Runner for Repro {
    fn iterate(&mut self, _seed: u64, st: &mut Stages) -> Result<(), String> {
        std::env::set_var("MVASD_RESULTS_DIR", &self.dir);
        let ctx = Ctx::new();
        self.last = self
            .ids
            .iter()
            .map(|&id| (id, st.time(Stage::Repro(id), || experiments::run(id, &ctx))))
            .collect();
        Ok(())
    }

    fn check(&self) -> Result<Verdict, String> {
        if self.last.len() != self.ids.len() {
            return Err("not every experiment ran".into());
        }
        for (id, res) in &self.last {
            res.as_ref().map_err(|e| format!("{id}: {e}"))?;
        }
        let mut sum = Verdict {
            throughput_pct: 0.0,
            cycle_pct: 0.0,
            saturation_excess: 0.0,
        };
        for stem in ["table4_vins_deviation", "table5_jpetstore_deviation"] {
            let reports = self.table(stem)?;
            let mvasd = reports
                .iter()
                .find(|r| r.model == "MVASD")
                .ok_or_else(|| format!("{stem}: no MVASD row"))?;
            let baselines: Vec<DeviationReport> = reports
                .iter()
                .filter(|r| r.model.starts_with("MVA "))
                .cloned()
                .collect();
            checks::within_bands(mvasd)?;
            checks::beats_baselines(mvasd, &baselines)?;
            sum.throughput_pct += mvasd.throughput_mean_pct / 2.0;
            sum.cycle_pct += mvasd.cycle_mean_pct / 2.0;
        }
        Ok(sum)
    }

    fn warm_up(&mut self) -> Result<Option<Verdict>, String> {
        std::env::set_var("MVASD_RESULTS_DIR", &self.warmup_dir);
        let ctx = Ctx::new();
        for id in REPRO_WARMUP {
            experiments::run(id, &ctx)?;
        }
        Ok(None)
    }
}
