//! The traced run's recorder and outputs.
//!
//! [`TraceRecorder`] is the `obsv::Recorder` a traced iteration installs.
//! Counters, gauges and histograms go to an inner `obsv::Collector`. Spans
//! are rolled up by name as they close — count, total, maximum and self
//! time — and only the first [`SPANS_KEPT_PER_NAME`] of each name are kept
//! for the written trace: a `repro-all` iteration closes millions of
//! kernel spans, which a collector would hold in memory one by one.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;

use mvasd_obsv::{Collector, Recorder, Snapshot, SpanRecord};

/// Spans of one name kept for the written trace; the rest are only
/// counted in the rollup.
pub const SPANS_KEPT_PER_NAME: u64 = 20_000;

const SHARDS: usize = 8;

/// Time spent under one span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: u64,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Longest single span, seconds.
    pub max_s: f64,
    /// Summed self time (duration minus the direct children on the same
    /// thread), seconds. Spans on worker threads have no parent there, so
    /// their time counts for themselves.
    pub self_s: f64,
}

#[derive(Default)]
struct Shard {
    /// Per thread: summed durations of the closed spans at each depth not
    /// yet claimed by their parent.
    children_ns: HashMap<u64, Vec<u64>>,
    totals: BTreeMap<&'static str, (u64, u64, u64, u64)>,
}

/// Collector for counters, rolling aggregator for spans.
pub struct TraceRecorder {
    inner: Collector,
    shards: Vec<Mutex<Shard>>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder {
            inner: Collector::new(),
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }
}

impl TraceRecorder {
    fn shard(&self, thread: u64) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[thread as usize % SHARDS]
            .lock()
            .expect("no thread panics while holding a trace shard")
    }

    /// Forgets everything recorded so far.
    pub fn clear(&self) {
        self.inner.clear();
        for s in &self.shards {
            *s.lock()
                .expect("no thread panics while holding a trace shard") = Shard::default();
        }
    }

    /// The counters, gauges, histograms and kept spans.
    pub fn snapshot(&self) -> Snapshot {
        self.inner.snapshot()
    }

    /// Span totals by name.
    pub fn rollup(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in &self.shards {
            let s = s
                .lock()
                .expect("no thread panics while holding a trace shard");
            for (&name, &(count, total, max, own)) in &s.totals {
                let t = out.entry(name).or_default();
                t.count += count;
                t.total_s += total as f64 * 1e-9;
                t.max_s = t.max_s.max(max as f64 * 1e-9);
                t.self_s += own as f64 * 1e-9;
            }
        }
        out
    }
}

impl Recorder for TraceRecorder {
    fn counter(&self, name: &str, delta: u64) {
        self.inner.counter(name, delta);
    }

    fn gauge(&self, name: &str, value: f64) {
        self.inner.gauge(name, value);
    }

    fn observe(&self, name: &str, value: u64) {
        self.inner.observe(name, value);
    }

    /// Spans close innermost first on each thread, so when a span at depth
    /// `d` closes, every direct child's duration has been summed at `d + 1`.
    fn record_span(&self, span: SpanRecord) {
        let d = usize::from(span.depth);
        let keep = {
            let mut shard = self.shard(span.thread);
            let acc = shard.children_ns.entry(span.thread).or_default();
            if acc.len() < d + 2 {
                acc.resize(d + 2, 0);
            }
            let children = std::mem::take(&mut acc[d + 1]);
            acc[d] += span.dur_ns;
            let t = shard.totals.entry(span.name).or_default();
            t.0 += 1;
            t.1 += span.dur_ns;
            t.2 = t.2.max(span.dur_ns);
            t.3 += span.dur_ns.saturating_sub(children);
            t.0 <= SPANS_KEPT_PER_NAME
        };
        if keep {
            self.inner.record_span(span);
        }
    }
}

/// Renders a rollup as a text table, largest self time first.
pub fn render_rollup(rollup: &BTreeMap<&'static str, SpanTotals>) -> String {
    let mut rows: Vec<(&&str, &SpanTotals)> = rollup.iter().collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    let mut out = format!(
        "{:<28} {:>10} {:>12} {:>12} {:>12}\n",
        "span", "count", "total_s", "self_s", "max_s"
    );
    for (name, t) in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>12.6} {:>12.6} {:>12.6}",
            name, t.count, t.total_s, t.self_s, t.max_s
        );
    }
    out
}

/// Writes `trace.json` (Chrome trace of the kept spans), `snapshot.jsonl`
/// and `rollup.txt` for one traced iteration into `dir`.
pub fn write_outputs(
    dir: &Path,
    snap: &Snapshot,
    rollup: &BTreeMap<&'static str, SpanTotals>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("trace.json"), snap.to_chrome_trace())?;
    std::fs::write(dir.join("snapshot.jsonl"), snap.to_jsonl())?;
    std::fs::write(dir.join("rollup.txt"), render_rollup(rollup))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, thread: u64, depth: u16, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            label: None,
            thread,
            depth,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let rec = TraceRecorder::default();
        // Close order: innermost first, as `obsv::Span` drops.
        for s in [
            span("leaf", 1, 2, 20, 10),
            span("mid", 1, 1, 10, 50),
            span("worker", 2, 0, 5, 40),
            span("mid", 1, 1, 70, 20),
            span("outer", 1, 0, 0, 100),
        ] {
            rec.record_span(s);
        }
        let r = rec.rollup();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-15;
        assert!(close(r["outer"].self_s, 30e-9));
        assert_eq!(r["mid"].count, 2);
        assert!(close(r["mid"].self_s, 60e-9));
        assert!(close(r["mid"].max_s, 50e-9));
        assert!(close(r["leaf"].self_s, 10e-9));
        assert!(close(r["worker"].self_s, 40e-9));
        let self_sum: f64 = r.values().map(|t| t.self_s).sum();
        assert!(close(self_sum, 140e-9), "self times tile the busy time");
        assert_eq!(rec.snapshot().spans.len(), 5);
        rec.clear();
        assert!(rec.rollup().is_empty());
    }
}
