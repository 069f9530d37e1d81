//! # mvasd-perfbench
//!
//! End-to-end benchmark of the MVASD workflow with per-layer attribution.
//! A run sets a workload up several times (the median is `setup_s`), then
//! iterates it in a closed loop — one client, one iteration after another
//! — for the requested number of seconds. Every iteration is checked for
//! correctness outside its timer. Untraced runs report the end-to-end
//! metrics; traced runs alternate untraced and traced iterations and
//! report the per-layer metrics of the median traced iteration, plus the
//! DES cross-check of its campaign. See `README.md` in this directory.

#![forbid(unsafe_code)]

pub mod checks;
pub mod host;
pub mod metrics;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use mvasd_bench::experiments;
use mvasd_obsv::{self as obsv, json, Snapshot};
use mvasd_testbed::grinder::{load_test, GrinderConfig};
use mvasd_testbed::monitor::{demands_from_row, UtilizationRow};

use trace::{SpanTotals, TraceRecorder};
use workloads::{derive_seed, Kind, Plan, ReplayTarget, Runner, Stage, Stages, Verdict};

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Input seed: derives every campaign seed of the run.
    pub seed: u64,
    /// Seconds of iterations to measure (at least one iteration runs).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Workload sizes.
    pub plan: Plan,
    /// Directory for result, trace and scratch files.
    pub out_dir: PathBuf,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every iteration passed its checks (and, traced, the DES cross-check).
    pub correct: bool,
    /// Iterations attempted.
    pub attempted: u64,
    /// Iterations that failed.
    pub failed: u64,
    /// `(name, value, unit)` of every metric the run reports.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Host and configuration, as a JSON object.
    pub config: String,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Report {
    /// The one-line result object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json::escape(name),
                    json::number(*value),
                    json::escape(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One iteration's measurements.
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    stages: Stages,
    outcome: Result<Verdict, String>,
    /// Per-layer metrics (traced iterations only).
    layers: Option<BTreeMap<String, f64>>,
    /// The recorder's snapshot and span rollup (traced iterations only).
    trace: Option<(Snapshot, BTreeMap<&'static str, SpanTotals>)>,
}

/// Runs one benchmark run. `process_start` is when the process began, so
/// the first set-up includes process start-up.
pub fn run(opts: &Options, process_start: Instant) -> Result<Report, String> {
    let workers = host::nproc();
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;

    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for k in 0..SETUPS {
        let t0 = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        drop(prepared.take());
        prepared = Some(workloads::setup(
            opts.kind,
            opts.plan,
            workers,
            &opts.out_dir,
        )?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (mut runner, reference) = prepared.expect("at least one set-up ran");

    let recorder = Arc::new(TraceRecorder::default());
    let mut untraced: Vec<Sample> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    let t_measure = Instant::now();
    let mut i = 0u64;
    loop {
        untraced.push(iteration(runner.as_mut(), derive_seed(opts.seed, i), None));
        i += 1;
        if opts.trace {
            let mut s = iteration(runner.as_mut(), derive_seed(opts.seed, i), Some(&recorder));
            i += 1;
            attribute(opts.kind, runner.as_ref(), &mut s, &recorder, workers);
            traced.push(s);
        }
        if t_measure.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    let all: Vec<&Sample> = untraced.iter().chain(&traced).collect();
    let attempted = all.len() as u64;
    let errors: Vec<String> = all
        .iter()
        .filter_map(|s| s.outcome.as_ref().err().cloned())
        .collect();
    let failed = errors.len() as u64;
    let walls = |v: &[Sample]| v.iter().map(|s| s.wall_s).collect::<Vec<_>>();

    let metrics = if opts.trace {
        let median_wall = metrics::median(&walls(&traced));
        let pick = traced
            .iter()
            .find(|s| s.wall_s == median_wall)
            .expect("the median is one of the samples");
        let mut layers = pick.layers.clone().expect("traced samples carry layers");
        layers.insert(
            "trace.overhead_frac".into(),
            median_wall / metrics::median(&walls(&untraced)) - 1.0,
        );
        layers.insert("error_rate".into(), failed as f64 / attempted as f64);
        if let Some((snap, rollup)) = &pick.trace {
            trace::write_outputs(&opts.out_dir.join("trace"), snap, rollup)
                .map_err(|e| e.to_string())?;
        }
        metrics::per_layer()
            .into_iter()
            .map(|m| {
                let v = layers.get(&m.name).copied().unwrap_or(0.0);
                (m.name, v, m.unit)
            })
            .collect::<Vec<_>>()
    } else {
        // The workflows' accuracy is their reference prediction's; the
        // other workloads repeat one prediction in every iteration.
        let accuracy = reference.or_else(|| {
            untraced
                .iter()
                .find_map(|s| s.outcome.as_ref().ok().copied())
        });
        let values = [
            metrics::median(&walls(&untraced)),
            metrics::median(&untraced.iter().map(|s| s.cpu_s).collect::<Vec<_>>()),
            accuracy.map_or(0.0, |v| v.throughput_pct),
            accuracy.map_or(0.0, |v| v.cycle_pct),
            metrics::median(&setups),
            host::peak_rss_mb(),
        ];
        metrics::end_to_end()
            .into_iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect()
    };

    let config = config_json(opts, workers, &setups, &untraced, &traced);
    let correct = failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    let report = Report {
        correct,
        attempted,
        failed,
        metrics,
        config,
        errors: errors.into_iter().take(5).collect(),
    };
    let record = format!(
        "{{\"config\": {}, \"errors\": [{}], \"result\": {}}}\n",
        report.config,
        report
            .errors
            .iter()
            .map(|e| format!("\"{}\"", json::escape(e)))
            .collect::<Vec<_>>()
            .join(", "),
        report.to_json()
    );
    let file = format!(
        "result-seed{}-trace{}.json",
        opts.seed,
        u8::from(opts.trace)
    );
    std::fs::write(opts.out_dir.join(file), record).map_err(|e| e.to_string())?;
    Ok(report)
}

/// Runs, then checks, one iteration; traced iterations record into
/// `recorder` and keep what it saw.
fn iteration(runner: &mut dyn Runner, seed: u64, recorder: Option<&Arc<TraceRecorder>>) -> Sample {
    let guard = recorder.map(|r| {
        r.clear();
        obsv::scoped(r.clone())
    });
    let mut stages = Stages::default();
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    let ran = catch_unwind(AssertUnwindSafe(|| runner.iterate(seed, &mut stages)));
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;
    drop(guard);
    let trace = recorder.map(|r| (r.snapshot(), r.rollup()));
    let outcome = match ran {
        Ok(Ok(())) => {
            catch_unwind(AssertUnwindSafe(|| runner.check())).unwrap_or_else(|p| Err(panic_text(p)))
        }
        Ok(Err(e)) => Err(e),
        Err(p) => Err(panic_text(p)),
    };
    Sample {
        wall_s,
        cpu_s,
        stages,
        outcome,
        layers: None,
        trace,
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    format!("panic: {msg}")
}

/// What the DES cross-check measured while replaying a campaign.
struct Replay {
    busy_s: f64,
    level_max_s: f64,
    completions: u64,
    events: u64,
    runs: u64,
}

/// Re-runs every level of the campaign through `grinder::load_test` with
/// the seeds the campaign derived, serially and timed, and requires
/// throughput and demands bit-identical to the campaign's `MeasuredPoint`s.
fn replay(target: &ReplayTarget<'_>, recorder: &Arc<TraceRecorder>) -> Result<Replay, String> {
    recorder.clear();
    let guard = obsv::scoped(recorder.clone());
    let mut r = Replay {
        busy_s: 0.0,
        level_max_s: 0.0,
        completions: 0,
        events: 0,
        runs: 0,
    };
    let c = target.campaign;
    for p in &c.points {
        let mut g = GrinderConfig::for_users(p.users, target.cfg.test_duration);
        g.seed ^= target.cfg.base_seed;
        let t0 = Instant::now();
        let res = load_test(target.app, &g).map_err(|e| e.to_string())?;
        let dt = t0.elapsed().as_secs_f64();
        r.busy_s += dt;
        r.level_max_s = r.level_max_s.max(dt);
        r.completions += res.report.system.completions;
        let row = UtilizationRow {
            users: p.users,
            throughput: res.throughput(),
            response: res.response_time(),
            utilization: res.utilizations(),
        };
        let demands = demands_from_row(&row, &c.server_counts).ok_or("replay: no completions")?;
        let same = row.throughput.to_bits() == p.throughput.to_bits()
            && demands.len() == p.demands.len()
            && demands
                .iter()
                .zip(&p.demands)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(format!(
                "DES cross-check: level {} replays differently from the campaign",
                p.users
            ));
        }
    }
    drop(guard);
    let snap = recorder.snapshot();
    r.events = snap.counter("simnet.events");
    r.runs = snap.counter("simnet.runs");
    Ok(r)
}

/// Fills a traced sample's per-layer metrics (and runs the DES cross-check
/// for workloads with a campaign). Stage times come from the benchmark's
/// own timers; counts and the repro-all layer times from the program's
/// spans and counters.
fn attribute(
    kind: Kind,
    runner: &dyn Runner,
    sample: &mut Sample,
    recorder: &Arc<TraceRecorder>,
    workers: usize,
) {
    let (snap, spans) = sample.trace.as_ref().expect("traced sample");
    let st = &sample.stages;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    for stage in Stage::LAYERS {
        m.insert(format!("{}.busy_s", stage.key()), st.total(stage).0);
    }
    for id in experiments::ALL {
        m.insert(format!("repro.{id}_s"), st.total(Stage::Repro(id)).0);
    }
    let efficiency = |cpu: f64, wall: f64| {
        if wall > 0.0 {
            cpu / (wall * workers as f64)
        } else {
            0.0
        }
    };
    let span = |name: &str| spans.get(name).cloned().unwrap_or_default();

    let (campaign_wall, campaign_cpu) = if kind == Kind::ReproAll {
        // No stage wraps repro-all's campaigns: take their spans, with
        // per-level busy time standing in for CPU (levels are single-
        // threaded and CPU-bound).
        let wall = span("campaign.run").total_s;
        m.insert("campaign.busy_s".into(), wall);
        (wall, span("campaign.level").total_s)
    } else {
        st.total(Stage::Campaign)
    };
    m.insert("campaign.cpu_s".into(), campaign_cpu);
    m.insert(
        "campaign.parallel_efficiency".into(),
        efficiency(campaign_cpu, campaign_wall),
    );
    m.insert(
        "campaign.levels".into(),
        snap.counter("campaign.levels") as f64,
    );

    let events = snap.counter("simnet.events");
    let runs = snap.counter("simnet.runs");
    let (des_busy, des_max, completions) = if kind.has_campaign() {
        let checked = match (&sample.outcome, runner.replay_target()) {
            (Ok(_), Some(target)) => catch_unwind(AssertUnwindSafe(|| replay(&target, recorder)))
                .unwrap_or_else(|p| Err(panic_text(p)))
                .and_then(|r| {
                    if (r.events, r.runs) == (events, runs) {
                        Ok(r)
                    } else {
                        Err(format!(
                            "DES cross-check: replay counted {} events in {} runs, campaign {events} in {runs}",
                            r.events, r.runs
                        ))
                    }
                }),
            (Ok(_), None) => Err("DES cross-check: no campaign to replay".into()),
            (Err(e), _) => Err(e.clone()),
        };
        match checked {
            Ok(r) => (r.busy_s, r.level_max_s, r.completions as f64),
            Err(e) => {
                sample.outcome = Err(e);
                (0.0, 0.0, 0.0)
            }
        }
    } else {
        let runs = span("simnet.run");
        (runs.total_s, runs.max_s, 0.0)
    };
    m.insert("des.busy_s".into(), des_busy);
    m.insert("des.level_max_s".into(), des_max);
    m.insert("des.completions".into(), completions);
    m.insert("des.events".into(), events as f64);
    m.insert("des.runs".into(), runs as f64);
    m.insert(
        "des.events_per_s".into(),
        if des_busy > 0.0 {
            events as f64 / des_busy
        } else {
            0.0
        },
    );

    let steps = span("mvasd.step");
    m.insert("mvasd.steps".into(), steps.count as f64);
    m.insert(
        "mvasd.us_per_step".into(),
        steps.total_s * 1e6 / steps.count.max(1) as f64,
    );
    m.insert(
        "conv.rebuilds".into(),
        snap.counter("conv.workspace.rebuild") as f64,
    );
    m.insert(
        "kernel.lse_batches".into(),
        span("kernel.lse.batch").count as f64,
    );

    let (sweep_wall, sweep_cpu) = st.total(Stage::Sweep);
    m.insert("sweep.cpu_s".into(), sweep_cpu);
    m.insert(
        "sweep.parallel_efficiency".into(),
        efficiency(sweep_cpu, sweep_wall),
    );
    for (name, v) in runner.layer_counts() {
        m.insert(name.into(), v);
    }
    let computed = m.get("sweep.steps_computed").copied().unwrap_or(0.0);
    m.insert(
        "sweep.us_per_step".into(),
        if computed > 0.0 {
            sweep_wall * 1e6 / computed
        } else {
            0.0
        },
    );

    if let Ok(v) = &sample.outcome {
        m.insert("mvasd.saturation_excess".into(), v.saturation_excess);
    }
    m.insert("unattributed_s".into(), sample.wall_s - st.wall_sum());
    m.insert("trace.iteration_s".into(), sample.wall_s);
    sample.layers = Some(m);
}

/// Host and configuration of a run, recorded beside every result.
fn config_json(
    opts: &Options,
    workers: usize,
    setups: &[f64],
    untraced: &[Sample],
    traced: &[Sample],
) -> String {
    let nums = |v: &[f64]| {
        v.iter()
            .map(|x| json::number(*x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let walls = |s: &[Sample]| s.iter().map(|x| x.wall_s).collect::<Vec<_>>();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"campaign_workers\": {workers}, \"sweep_workers\": {workers}, \
         \"test_duration_s\": {}, \"build_profile\": \"{}\", \"git_commit\": \"{}\", \
         \"setup_s\": [{}], \"untraced_iteration_s\": [{}], \"traced_iteration_s\": [{}]}}",
        opts.kind.name(),
        opts.seed,
        json::number(opts.seconds),
        opts.trace,
        host::nproc(),
        json::number(opts.plan.test_duration),
        host::build_profile(),
        json::escape(&host::git_commit(Path::new("."))),
        nums(setups),
        nums(&walls(untraced)),
        nums(&walls(traced)),
    )
}
