//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists exactly these (a test holds the
//! two together).

use mvasd_bench::experiments;

/// A metric's name, unit and which direction is better.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn spec(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics, printed by untraced runs.
pub fn end_to_end() -> Vec<MetricSpec> {
    vec![
        spec("time_to_prediction_s", "s", "lower"),
        spec("cpu_s_per_prediction", "s", "lower"),
        spec("throughput_dev_pct", "%", "lower"),
        spec("cycle_dev_pct", "%", "lower"),
        spec("setup_s", "s", "lower"),
        spec("peak_rss_mb", "MiB", "lower"),
    ]
}

/// The per-layer metrics, printed by traced runs.
pub fn per_layer() -> Vec<MetricSpec> {
    let mut out = vec![
        spec("campaign.busy_s", "s", "lower"),
        spec("campaign.cpu_s", "s", "lower"),
        spec("campaign.levels", "count", "lower"),
        spec("campaign.parallel_efficiency", "frac", "higher"),
        spec("des.busy_s", "s", "lower"),
        spec("des.level_max_s", "s", "lower"),
        spec("des.completions", "count", "lower"),
        spec("des.events", "count", "lower"),
        spec("des.events_per_s", "1/s", "higher"),
        spec("des.runs", "count", "lower"),
        spec("designer.busy_s", "s", "lower"),
        spec("profile.busy_s", "s", "lower"),
        spec("accuracy.busy_s", "s", "lower"),
        spec("mvasd.busy_s", "s", "lower"),
        spec("mvasd.steps", "count", "lower"),
        spec("mvasd.us_per_step", "us", "lower"),
        spec("mvasd.saturation_excess", "frac", "lower"),
        spec("conv.rebuilds", "count", "lower"),
        spec("kernel.lse_batches", "count", "lower"),
        spec("baselines.busy_s", "s", "lower"),
        spec("sweep.busy_s", "s", "lower"),
        spec("sweep.cpu_s", "s", "lower"),
        spec("sweep.parallel_efficiency", "frac", "higher"),
        spec("sweep.steps_computed", "count", "lower"),
        spec("sweep.steps_demanded", "count", "lower"),
        spec("sweep.steps_saved_frac", "frac", "higher"),
        spec("sweep.cache_hits", "count", "higher"),
        spec("sweep.cache_misses", "count", "lower"),
        spec("sweep.us_per_step", "us", "lower"),
    ];
    out.extend(
        experiments::ALL
            .iter()
            .map(|id| spec(format!("repro.{id}_s"), "s", "lower")),
    );
    out.extend([
        spec("unattributed_s", "s", "lower"),
        spec("trace.iteration_s", "s", "lower"),
        spec("trace.overhead_frac", "frac", "lower"),
        spec("error_rate", "frac", "lower"),
    ]);
    out
}

/// Median of a sample (the lower middle value for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0.0)
}

/// Whether `name` is a valid metric name: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut all: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|m| m.name)
            .collect();
        assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
        let len = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), len, "duplicate metric names");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading-dot"));
    }
}
