//! The benchmark's own contract: metric names are well formed and are the
//! ones `BENCHMARK.json` lists, and a shrunk smoke run of every workload
//! passes its correctness checks and emits every metric it declares, in
//! both the untraced and the traced mode.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use mvasd_obsv::json::{self, Json};
use mvasd_perfbench::metrics::{self, MetricSpec};
use mvasd_perfbench::workloads::{Kind, Plan};
use mvasd_perfbench::{run, Options, Report};

/// The obsv recorder and the experiments' results directory are process
/// globals: smoke runs take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` of every metric in a `BENCHMARK.json` section.
fn listed(section: &str) -> Vec<(String, String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_array)
        .expect("metric section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn catalogued(specs: Vec<MetricSpec>) -> Vec<(String, String, String)> {
    specs
        .into_iter()
        .map(|m| (m.name, m.unit.to_string(), m.better.to_string()))
        .collect()
}

#[test]
fn metric_names_are_valid_and_listed_in_benchmark_json() {
    for spec in metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer())
    {
        assert!(metrics::valid_name(&spec.name), "{}", spec.name);
    }
    assert_eq!(listed("end_to_end"), catalogued(metrics::end_to_end()));
    assert_eq!(listed("per_layer"), catalogued(metrics::per_layer()));
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads array")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(workloads, kinds);
}

fn smoke(kind: Kind, trace: bool) -> Report {
    let _turn = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("perfbench-smoke")
        .join(format!("{}-{}", kind.name(), u8::from(trace)));
    let opts = Options {
        kind,
        seed: 7,
        seconds: 0.0,
        trace,
        plan: Plan::smoke(),
        out_dir,
    };
    run(&opts, Instant::now()).expect("smoke run completes")
}

/// Runs `kind` untraced and traced; both must pass their checks and print
/// exactly the declared metrics, in the declared order and units.
fn smoke_both_modes(kind: Kind) {
    for (trace, declared) in [(false, metrics::end_to_end()), (true, metrics::per_layer())] {
        let report = smoke(kind, trace);
        assert!(
            report.correct && report.failed == 0,
            "{} trace={trace}: {:?}",
            kind.name(),
            report.errors
        );
        assert_eq!(report.attempted, if trace { 2 } else { 1 });
        let names: Vec<(&str, &str)> = report
            .metrics
            .iter()
            .map(|(n, _, u)| (n.as_str(), *u))
            .collect();
        let want: Vec<(&str, &str)> = declared.iter().map(|m| (m.name.as_str(), m.unit)).collect();
        assert_eq!(names, want, "{} trace={trace}", kind.name());
        for (name, value, _) in &report.metrics {
            assert!(value.is_finite(), "{name} = {value}");
            if !trace {
                assert!(*value > 0.0, "end-to-end metric {name} must not be 0");
            }
        }
        let line = json::parse(&report.to_json()).expect("result line is JSON");
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(line.get(key).is_some(), "result line lacks {key}");
        }
        if trace {
            let get = |n: &str| {
                report
                    .metrics
                    .iter()
                    .find(|(m, _, _)| m == n)
                    .map(|(_, v, _)| *v)
                    .expect("metric present")
            };
            let stages: f64 = report
                .metrics
                .iter()
                .filter(|(n, _, _)| {
                    (n.ends_with(".busy_s") && !n.starts_with("des.") && n != "campaign.busy_s")
                        || n.starts_with("repro.")
                })
                .map(|(_, v, _)| *v)
                .sum();
            let campaign = if kind == Kind::ReproAll {
                0.0
            } else {
                get("campaign.busy_s")
            };
            let total = stages + campaign + get("unattributed_s");
            assert!(
                (total - get("trace.iteration_s")).abs() < 1e-9,
                "stage times {total} must add up to the iteration {}",
                get("trace.iteration_s")
            );
            if kind.has_campaign() {
                assert!(get("des.runs") > 0.0 && get("des.busy_s") > 0.0);
            }
        }
    }
}

#[test]
fn vins_workflow_smoke() {
    smoke_both_modes(Kind::VinsWorkflow);
}

#[test]
fn jpetstore_chebyshev_smoke() {
    smoke_both_modes(Kind::JpetstoreChebyshev);
}

#[test]
fn whatif_sweep_smoke() {
    smoke_both_modes(Kind::WhatifSweep);
}

#[test]
fn repro_all_smoke() {
    smoke_both_modes(Kind::ReproAll);
}
