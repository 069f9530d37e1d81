//! The incremental convolution workspace: Buzen's algorithm with carried
//! state, O(total·n) log-sum-exp work per population step, and zero heap
//! allocation per step once warm.
//!
//! [`ConvWorkspace`] owns every array the recursion touches as a flat,
//! stride-indexed buffer ([`Grid`]): per-stage log factor columns, the
//! ascending prefix chain `prefix[i] = f_0 ⊛ … ⊛ f_{i−1}`, the descending
//! suffix chain `suffix[i] = f_i ⊛ … ⊛ f_{total−1}`, the per-station
//! complements `G₍₋ₖ₎ = prefix[k] ⊛ suffix[k+1]`, and the O(1)-state queue
//! accumulators for light single-server stations. One [`advance`] appends
//! exactly one cell to each live column; nothing already written is ever
//! mutated, which is what makes the incremental, snapshot/resume, and
//! rebuild paths **bit-for-bit identical** — they all execute the same
//! per-cell code in the same order.
//!
//! Per-stage work is specialized by [`StageKind`]:
//!
//! * `Zero` — zero demand: the factor column is the convolution identity,
//!   so prefix/suffix cells are plain copies.
//! * `Geo` — single-server-like (`f(j) = D^j`): the convolution with a
//!   geometric column telescopes, `(A ⊛ f)(n) = A(n) ⊕ (ln D + (A ⊛ f)(n−1))`
//!   (`⊕` = log-sum-exp), one O(1) update instead of an O(n) sweep. A light
//!   single-server station additionally skips `G₍₋ₖ₎` entirely: its queue
//!   satisfies `h(n) = D·(G(n−1) + h(n−1))`, `Q(n) = h(n)/G(n)`, carried as
//!   one log-domain scalar per population.
//! * `Exp` — infinite-server (`f(j) = D^j/j!`): full cell, with `ln j`
//!   read from a table computed once per capacity growth.
//! * `Table` — multi-server / custom rate: full cell, with `ln α(j)`
//!   precomputed per station so rebuilds never call `ln()` in the loop.
//!
//! Suffix and `G₍₋ₖ₎` maintenance is skipped wholesale when no station
//! needs the heavy marginal path. Log-sum-exp cells run on the batched
//! [`super::kernel`]: a reversed-stride add, blocked 4-lane maxima, and a
//! pruned exp-accumulate pass that skips blocks more than 46 nats below
//! the peak (the workspace carries the kernel's [`kernel::CellScratch`]
//! and sizes it alongside every other buffer). The old single-pass
//! running-maximum cell survives as [`kernel::scalar_reference`], the
//! kernel's equivalence oracle.
//!
//! Changing the demand vector ([`solve_at`]) re-runs the recursion from
//! population 0 inside the same buffers — `O(n²)` cells but **zero**
//! allocation and zero `ln()` calls beyond one `ln D` per stage — which is
//! what the quasi-static MVASD phase does at every population step.
//!
//! [`advance`]: ConvWorkspace::advance
//! [`solve_at`]: ConvWorkspace::solve_at

use super::super::loaddep::RateFunction;
use super::kernel::{self, lse2};
use super::ConvStation;
use crate::network::ClosedNetwork;
use crate::QueueingError;
use mvasd_obsv as obsv;

/// How the workspace extends one stage's factor/prefix/suffix cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageKind {
    /// Zero demand: `f = (1, 0, 0, …)`, the convolution identity.
    Zero,
    /// Single-server-like: `f(j) = D^j`, telescoping O(1) updates.
    Geo,
    /// Infinite-server: `f(j) = D^j / j!`.
    Exp,
    /// Rate-table station (multi-server or custom): `f(j) = D^j / ∏ α(i)`.
    Table,
}

/// A fixed number of equally-long `f64` rows in one flat allocation.
/// `cap` is the per-row stride; rows grow together and keep their first
/// `keep` entries on reallocation.
#[derive(Debug, Clone)]
struct Grid {
    buf: Vec<f64>,
    rows: usize,
    cap: usize,
}

impl Grid {
    fn new(rows: usize) -> Self {
        Self {
            buf: Vec::new(),
            rows,
            cap: 0,
        }
    }

    #[inline]
    fn row(&self, r: usize) -> &[f64] {
        &self.buf[r * self.cap..(r + 1) * self.cap]
    }

    #[inline]
    fn at(&self, r: usize, j: usize) -> f64 {
        self.buf[r * self.cap + j]
    }

    #[inline]
    fn set(&mut self, r: usize, j: usize, v: f64) {
        self.buf[r * self.cap + j] = v;
    }

    fn grow(&mut self, new_cap: usize, keep: usize) {
        debug_assert!(new_cap > self.cap);
        // NaN poison: any read of a never-written cell is loudly wrong.
        let mut next = vec![f64::NAN; self.rows * new_cap];
        for r in 0..self.rows {
            next[r * new_cap..r * new_cap + keep]
                .copy_from_slice(&self.buf[r * self.cap..r * self.cap + keep]);
        }
        self.buf = next;
        self.cap = new_cap;
    }

    fn bytes(&self) -> usize {
        self.buf.len() * std::mem::size_of::<f64>()
    }
}

/// Sentinel for "this station has no row in that grid".
const NO_ROW: usize = usize::MAX;

/// Incremental log-domain convolution engine. See the module docs for the
/// layout and the per-kind update rules.
///
/// Cloning snapshots the entire recursion state (a handful of `memcpy`s),
/// which is what makes solver snapshots cheap.
#[derive(Debug, Clone)]
pub struct ConvWorkspace {
    stations: Vec<ConvStation>,
    think_time: f64,
    limits: Vec<usize>,

    /// Last population evaluated (0 = fresh).
    n: usize,
    /// Per-stage extension rule (stations then think stage); recomputed on
    /// every demand change.
    kind: Vec<StageKind>,
    /// `ln D_i` per stage (`ln Z` for the think stage); `−∞` when zero.
    ln_d: Vec<f64>,
    /// Whether station `k` currently needs the `G₍₋ₖ₎` marginal path.
    heavy: Vec<bool>,
    /// Any heavy station at all? Gates the whole suffix chain.
    any_heavy: bool,

    /// Row of `ln_g_minus` for stations that can ever be heavy (else NO_ROW).
    g_row: Vec<usize>,
    /// Row of `ln_lq` for light single-server-like stations (else NO_ROW).
    lq_row: Vec<usize>,
    /// Row of `ln_rate` for rate-table stations (else NO_ROW).
    rate_row: Vec<usize>,

    /// `ln j` for `j = 1..cap` (index 0 unused), shared by all Exp stages.
    ln_int: Vec<f64>,
    /// `ln α_k(j)` per rate-table station, computed once per growth.
    ln_rate: Grid,

    /// `ln_factors[i][j] = ln f_i(j)`, stations then the think stage.
    ln_factors: Grid,
    /// `ln_prefix[i] = f_0 ⊛ … ⊛ f_{i−1}` (`ln_prefix[0]` = identity); the last
    /// row is `ln G`.
    ln_prefix: Grid,
    /// `suffix[i] = f_i ⊛ … ⊛ f_{total−1}` (`suffix[total]` = identity).
    /// Only maintained while a heavy station exists.
    suffix: Grid,
    /// `ln_g_minus[row] = ln G₍₋ₖ₎` for heavy-capable stations.
    ln_g_minus: Grid,
    /// `ln_lq[row][n] = ln Σ_{j≥1} j·D^j·G(n−j)`… telescoped: the light
    /// single-server queue numerator `h(n)`.
    ln_lq: Grid,

    // Per-population outputs, overwritten in place by `compute_outputs`.
    out_x: f64,
    out_queues: Vec<f64>,
    /// Marginal snapshots `p_k(0..limit−1 | n)`, packed back to back.
    out_marginals: Vec<f64>,
    /// Offset of station `k`'s marginal block in `out_marginals`.
    marg_off: Vec<usize>,

    /// Scratch for the batched log-sum-exp kernel, sized alongside the
    /// grids so full cells never allocate.
    cell: kernel::CellScratch,

    extend_ctr: obsv::CounterBatch,
    cells_ctr: obsv::CounterBatch,
    /// Watches `ln G` per extension (log-sum-exp dynamic range, NaN-poison
    /// trips) and counts marginal-term underflows. Locally buffered;
    /// flushed by [`flush_metrics`](Self::flush_metrics) and on drop.
    health: obsv::HealthProbe,
}

impl ConvWorkspace {
    /// Builds a workspace over a network's stations and think time.
    /// `marginal_limits[k]` requests the first `limit` marginal
    /// probabilities per population (0 = skip; missing entries = 0).
    pub fn new(net: &ClosedNetwork, marginal_limits: &[usize]) -> Result<Self, QueueingError> {
        let stations = net.stations().iter().map(ConvStation::from).collect();
        Self::from_conv(stations, net.think_time(), marginal_limits.to_vec())
    }

    pub(crate) fn from_conv(
        stations: Vec<ConvStation>,
        think_time: f64,
        mut limits: Vec<usize>,
    ) -> Result<Self, QueueingError> {
        if stations.is_empty() {
            return Err(QueueingError::EmptyNetwork);
        }
        let k_count = stations.len();
        let total = k_count + 1; // + think stage
        limits.resize(k_count, 0);

        let mut g_row = vec![NO_ROW; k_count];
        let mut lq_row = vec![NO_ROW; k_count];
        let mut rate_row = vec![NO_ROW; k_count];
        let (mut g_rows, mut lq_rows, mut rate_rows) = (0, 0, 0);
        for (k, s) in stations.iter().enumerate() {
            let table_capable = matches!(
                s.rate,
                RateFunction::MultiServer(2..) | RateFunction::Custom(_)
            );
            if table_capable {
                rate_row[k] = rate_rows;
                rate_rows += 1;
            }
            if limits[k] > 0 || table_capable {
                g_row[k] = g_rows;
                g_rows += 1;
            } else if matches!(
                s.rate,
                RateFunction::SingleServer | RateFunction::MultiServer(1)
            ) {
                lq_row[k] = lq_rows;
                lq_rows += 1;
            }
        }

        let mut marg_off = Vec::with_capacity(k_count);
        let mut off = 0usize;
        for &limit in &limits {
            marg_off.push(off);
            off += limit;
        }

        let mut ws = Self {
            stations,
            think_time,
            limits,
            n: 0,
            kind: vec![StageKind::Zero; total],
            ln_d: vec![f64::NEG_INFINITY; total],
            heavy: vec![false; k_count],
            any_heavy: false,
            g_row,
            lq_row,
            rate_row,
            ln_int: Vec::new(),
            ln_rate: Grid::new(rate_rows),
            ln_factors: Grid::new(total),
            ln_prefix: Grid::new(total + 1),
            suffix: Grid::new(total + 1),
            ln_g_minus: Grid::new(g_rows),
            ln_lq: Grid::new(lq_rows),
            out_x: 0.0,
            out_queues: vec![0.0; k_count],
            out_marginals: vec![0.0; off],
            marg_off,
            cell: kernel::CellScratch::new(),
            extend_ctr: obsv::CounterBatch::new("conv.workspace.extend", 64),
            cells_ctr: obsv::CounterBatch::new("convolution.cells", 64),
            health: obsv::HealthProbe::new("conv.lse"),
        };
        ws.refresh_kinds();
        ws.ensure_capacity(1);
        ws.reset();
        Ok(ws)
    }

    /// The model's stations (names, current demands, rates).
    pub(crate) fn stations(&self) -> &[ConvStation] {
        &self.stations
    }

    /// The model's think time.
    pub(crate) fn think_time(&self) -> f64 {
        self.think_time
    }

    /// Last population evaluated (0 = fresh).
    pub fn population(&self) -> usize {
        self.n
    }

    /// Pre-sizes every buffer for populations up to `n_max`, so no further
    /// allocation happens before the sweep passes it.
    pub fn reserve(&mut self, n_max: usize) {
        self.ensure_capacity(n_max + 1);
    }

    /// Throughput `X(n)` of the last `advance`/`solve_at`.
    pub fn throughput(&self) -> f64 {
        self.out_x
    }

    /// Mean queue lengths of the last `advance`/`solve_at`.
    pub fn queues(&self) -> &[f64] {
        &self.out_queues
    }

    /// Marginal probabilities `p_k(0..limit−1 | n)` of the last
    /// `advance`/`solve_at` (empty when the station tracks none).
    pub fn marginals_of(&self, k: usize) -> &[f64] {
        let limit = self.limits.get(k).copied().unwrap_or(0);
        let off = self.marg_off.get(k).copied().unwrap_or(0);
        &self.out_marginals[off..off + limit]
    }

    /// Flushes the batched instrumentation counters and the numeric-health
    /// probe to the recorder.
    pub fn flush_metrics(&mut self) {
        self.extend_ctr.flush();
        self.cells_ctr.flush();
        self.health.flush();
    }

    /// Re-derives the per-stage extension rules from the current demands.
    fn refresh_kinds(&mut self) {
        let total = self.stations.len() + 1;
        for (k, s) in self.stations.iter().enumerate() {
            let (kind, ld) = if s.demand <= 0.0 {
                (StageKind::Zero, f64::NEG_INFINITY)
            } else {
                let kind = match s.rate {
                    RateFunction::Delay => StageKind::Exp,
                    RateFunction::SingleServer | RateFunction::MultiServer(1) => StageKind::Geo,
                    _ => StageKind::Table,
                };
                let ln_demand = s.demand.ln();
                (kind, ln_demand)
            };
            self.kind[k] = kind;
            self.ln_d[k] = ld;
            self.heavy[k] = self.limits[k] > 0 || kind == StageKind::Table;
        }
        if self.think_time > 0.0 {
            self.kind[total - 1] = StageKind::Exp;
            self.ln_d[total - 1] = self.think_time.ln();
        } else {
            self.kind[total - 1] = StageKind::Zero;
            self.ln_d[total - 1] = f64::NEG_INFINITY;
        }
        self.any_heavy = self.heavy.iter().any(|&h| h);
    }

    /// Grows every grid so populations `0..len` fit, extending the `ln`
    /// tables for the new range. Growth is the only allocation the
    /// workspace ever performs after construction.
    fn ensure_capacity(&mut self, len: usize) {
        if len <= self.ln_factors.cap {
            return;
        }
        let new_cap = len.next_power_of_two().max(self.ln_factors.cap * 2).max(64);
        let old_cap = self.ln_factors.cap;
        let keep = (self.n + 1).min(old_cap);
        self.ln_factors.grow(new_cap, keep);
        self.ln_prefix.grow(new_cap, keep);
        self.suffix.grow(new_cap, keep);
        self.ln_g_minus.grow(new_cap, keep);
        self.ln_lq.grow(new_cap, keep);
        self.cell.ensure(new_cap);

        self.ln_int.resize(new_cap, 0.0);
        let from = old_cap.max(1);
        for j in from..new_cap {
            self.ln_int[j] = (j as f64).ln();
        }
        self.ln_rate.grow(new_cap, old_cap);
        for (k, s) in self.stations.iter().enumerate() {
            let r = self.rate_row[k];
            if r == NO_ROW {
                continue;
            }
            if old_cap == 0 {
                self.ln_rate.set(r, 0, 0.0); // j = 0 is never read
            }
            for j in from..new_cap {
                self.ln_rate.set(r, j, s.rate.rate(j).ln());
            }
        }

        if obsv::enabled() {
            let bytes = self.ln_factors.bytes()
                + self.ln_prefix.bytes()
                + self.suffix.bytes()
                + self.ln_g_minus.bytes()
                + self.ln_lq.bytes()
                + self.ln_rate.bytes()
                + self.ln_int.len() * std::mem::size_of::<f64>();
            obsv::counter("conv.workspace.alloc", 1);
            obsv::gauge("conv.workspace.bytes", bytes as f64);
        }
    }

    /// Rewinds to population 0, re-initializing only the `j = 0` cells:
    /// `f(0) = G(0) = G₍₋ₖ₎(0) = 1`, `h(0) = 0`.
    fn reset(&mut self) {
        self.n = 0;
        let total = self.stations.len() + 1;
        for i in 0..total {
            self.ln_factors.set(i, 0, 0.0);
        }
        for i in 0..=total {
            self.ln_prefix.set(i, 0, 0.0);
            self.suffix.set(i, 0, 0.0);
        }
        for r in 0..self.ln_g_minus.rows {
            self.ln_g_minus.set(r, 0, 0.0);
        }
        for r in 0..self.ln_lq.rows {
            self.ln_lq.set(r, 0, f64::NEG_INFINITY);
        }
    }

    /// Extends every live column by the cell for population `self.n + 1`.
    /// Cells are append-only, so values never depend on how far the
    /// workspace is later extended — the root of the bit-for-bit guarantee.
    // lint: no-alloc
    fn extend_one(&mut self) -> Result<(), QueueingError> {
        let m = self.n + 1;
        self.ensure_capacity(m + 1);
        let total = self.stations.len() + 1;

        for i in 0..total {
            let v = match self.kind[i] {
                StageKind::Zero => f64::NEG_INFINITY,
                StageKind::Geo => self.ln_factors.at(i, m - 1) + self.ln_d[i],
                StageKind::Exp => self.ln_factors.at(i, m - 1) + (self.ln_d[i] - self.ln_int[m]),
                StageKind::Table => {
                    let lr = self.ln_rate.at(self.rate_row[i], m);
                    self.ln_factors.at(i, m - 1) + (self.ln_d[i] - lr)
                }
            };
            self.ln_factors.set(i, m, v);
        }

        self.ln_prefix.set(0, m, f64::NEG_INFINITY); // identity
        for i in 0..total {
            let v = match self.kind[i] {
                StageKind::Zero => self.ln_prefix.at(i, m),
                StageKind::Geo => lse2(
                    self.ln_prefix.at(i, m),
                    self.ln_d[i] + self.ln_prefix.at(i + 1, m - 1),
                ),
                _ => kernel::conv_cell(
                    self.ln_prefix.row(i),
                    self.ln_factors.row(i),
                    m,
                    &mut self.cell,
                ),
            };
            self.ln_prefix.set(i + 1, m, v);
        }

        let g_m = self.ln_prefix.at(total, m);
        self.health.watch(g_m);
        if g_m == f64::NEG_INFINITY && self.ln_prefix.at(total, m - 1) != f64::NEG_INFINITY {
            return Err(QueueingError::InvalidParameter {
                what: "normalization constant vanished (all-zero demands?)",
            });
        }

        if self.any_heavy {
            self.suffix.set(total, m, f64::NEG_INFINITY); // identity
            for i in (0..total).rev() {
                let v = match self.kind[i] {
                    StageKind::Zero => self.suffix.at(i + 1, m),
                    StageKind::Geo => lse2(
                        self.suffix.at(i + 1, m),
                        self.ln_d[i] + self.suffix.at(i, m - 1),
                    ),
                    _ => kernel::conv_cell(
                        self.ln_factors.row(i),
                        self.suffix.row(i + 1),
                        m,
                        &mut self.cell,
                    ),
                };
                self.suffix.set(i, m, v);
            }
            for k in 0..self.stations.len() {
                if self.heavy[k] {
                    let v = kernel::conv_cell(
                        self.ln_prefix.row(k),
                        self.suffix.row(k + 1),
                        m,
                        &mut self.cell,
                    );
                    self.ln_g_minus.set(self.g_row[k], m, v);
                }
            }
        }

        for k in 0..self.stations.len() {
            let r = self.lq_row[k];
            if r != NO_ROW && self.kind[k] == StageKind::Geo && !self.heavy[k] {
                let v =
                    self.ln_d[k] + lse2(self.ln_lq.at(r, m - 1), self.ln_prefix.at(total, m - 1));
                self.ln_lq.set(r, m, v);
            }
        }

        self.n = m;
        self.extend_ctr.add(1);
        if obsv::enabled() {
            let heavy_count = self.heavy.iter().filter(|&&h| h).count();
            let cells = if self.any_heavy {
                2 * total + heavy_count
            } else {
                total
            };
            self.cells_ctr.add(cells as u64);
            obsv::gauge("convolution.ln_g", g_m);
        }
        Ok(())
    }

    /// Fills the output slots (`throughput`/`queues`/`marginals_of`) for
    /// population `n ≤ self.n`. Read-only over the columns; allocates
    /// nothing.
    // lint: no-alloc
    fn compute_outputs(&mut self, n: usize) {
        debug_assert!(n >= 1 && n <= self.n);
        let total = self.stations.len() + 1;
        let g_n = self.ln_prefix.at(total, n);
        let x = (self.ln_prefix.at(total, n - 1) - g_n).exp();
        self.out_x = x;
        for k in 0..self.stations.len() {
            if self.heavy[k] {
                let limit = self.limits[k];
                let off = self.marg_off[k];
                self.out_marginals[off..off + limit].fill(0.0);
                let gr = self.g_row[k];
                let mut q = 0.0;
                for j in 0..=n {
                    let lp = self.ln_factors.at(k, j) + self.ln_g_minus.at(gr, n - j) - g_n;
                    if lp > -700.0 {
                        let p = lp.exp();
                        q += j as f64 * p;
                        if j < limit {
                            self.out_marginals[off + j] = p;
                        }
                    } else if lp != f64::NEG_INFINITY {
                        // A finite marginal term too small for exp():
                        // dropped, which is safe but worth counting.
                        self.health.count_underflow();
                    }
                }
                self.out_queues[k] = q;
            } else {
                self.out_queues[k] = match self.kind[k] {
                    StageKind::Zero => 0.0,
                    // Infinite-server: Q = X·D exactly (Little).
                    StageKind::Exp => x * self.stations[k].demand,
                    StageKind::Geo => (self.ln_lq.at(self.lq_row[k], n) - g_n).exp(),
                    StageKind::Table => unreachable!("table stations are always heavy"),
                };
            }
        }
    }

    /// Advances one population and refreshes the outputs — the streaming
    /// hot path: O(total·n) cells, zero allocation once capacity is there.
    ///
    /// On error the columns are poisoned (partially extended) and the
    /// workspace must be discarded; all errors here are deterministic model
    /// errors, so a retry could not succeed anyway.
    // lint: no-alloc
    pub fn advance(&mut self) -> Result<(), QueueingError> {
        self.extend_one()?;
        self.compute_outputs(self.n);
        Ok(())
    }

    /// Evaluates population `n` under `demands` (one per station), reusing
    /// as much carried state as possible:
    ///
    /// * same demands, `n > population()` — incremental extension;
    /// * same demands, `n ≤ population()` — pure read-back, zero cells;
    /// * changed demands — in-buffer rebuild (reset + extend to `n`),
    ///   counted as `conv.workspace.rebuild`.
    ///
    /// Demand equality is bitwise: the quasi-static caller hands back the
    /// exact floats it got from the interpolator, so an epsilon would only
    /// blur the rebuild accounting.
    ///
    /// A NaN, infinite or negative demand is rejected before anything is
    /// touched, so the workspace stays usable after the error.
    pub fn solve_at(&mut self, n: usize, demands: &[f64]) -> Result<(), QueueingError> {
        if n == 0 {
            return Err(QueueingError::InvalidParameter {
                what: "population must be >= 1",
            });
        }
        if demands.len() != self.stations.len() {
            return Err(QueueingError::InvalidParameter {
                what: "demand vector length does not match the station count",
            });
        }
        if !demands.iter().all(|d| d.is_finite() && *d >= 0.0) {
            return Err(QueueingError::InvalidParameter {
                what: "demand must be finite and >= 0",
            });
        }
        let changed = self
            .stations
            .iter()
            .zip(demands)
            .any(|(s, d)| s.demand.to_bits() != d.to_bits());
        if changed {
            for (s, &d) in self.stations.iter_mut().zip(demands) {
                s.demand = d;
            }
            self.refresh_kinds();
            obsv::counter("conv.workspace.rebuild", 1);
            self.reset();
        }
        while self.n < n {
            self.extend_one()?;
        }
        self.compute_outputs(n);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::scratch;
    use super::*;
    use mvasd_numerics::propcheck::{check, Config, Gen};

    fn st(name: &str, demand: f64, rate: RateFunction) -> ConvStation {
        ConvStation {
            name: name.into(),
            demand,
            rate,
        }
    }

    fn ws_of(stations: &[ConvStation], z: f64, limits: &[usize]) -> ConvWorkspace {
        ConvWorkspace::from_conv(stations.to_vec(), z, limits.to_vec()).unwrap()
    }

    fn rel_close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
    }

    /// Workspace vs the from-scratch reference on a fixed mixed network.
    #[test]
    fn agrees_with_scratch_reference() {
        let stations = vec![
            st("cpu", 0.03, RateFunction::MultiServer(4)),
            st("disk", 0.01, RateFunction::SingleServer),
            st("lan", 0.005, RateFunction::Delay),
            st("ghost", 0.0, RateFunction::SingleServer),
        ];
        let limits = [4usize, 1, 0, 0];
        let mut ws = ws_of(&stations, 0.7, &limits);
        for n in 1..=150usize {
            ws.advance().unwrap();
            let (x, q, m) = scratch::solve_at(&stations, 0.7, n, &limits).unwrap();
            assert!(rel_close(ws.throughput(), x, 1e-12), "x at n={n}");
            for (k, &qk) in q.iter().enumerate() {
                assert!(rel_close(ws.queues()[k], qk, 1e-11), "q[{k}] at n={n}");
            }
            for (j, &mv) in m[0].iter().enumerate() {
                assert!((ws.marginals_of(0)[j] - mv).abs() <= 1e-12, "m0[{j}] n={n}");
            }
            assert!((ws.marginals_of(1)[0] - m[1][0]).abs() <= 1e-12, "m1 n={n}");
        }
    }

    /// An incrementally-extended workspace and a fresh one at each
    /// population produce bit-identical outputs (same code, same order).
    #[test]
    fn incremental_is_bitwise_identical_to_fresh() {
        let stations = vec![
            st("cpu", 0.02, RateFunction::MultiServer(16)),
            st("disk", 0.012, RateFunction::SingleServer),
            st("lan", 0.004, RateFunction::Delay),
        ];
        let mut carried = ws_of(&stations, 1.0, &[0, 0, 0]);
        for n in 1..=80usize {
            carried.advance().unwrap();
            let mut fresh = ws_of(&stations, 1.0, &[0, 0, 0]);
            for _ in 0..n {
                fresh.advance().unwrap();
            }
            assert_eq!(carried.throughput().to_bits(), fresh.throughput().to_bits());
            for k in 0..3 {
                assert_eq!(carried.queues()[k].to_bits(), fresh.queues()[k].to_bits());
            }
        }
    }

    /// Revisiting a lower population is a pure read-back of the same cells.
    #[test]
    fn decreasing_population_reads_back_identical_values() {
        let stations = vec![
            st("cpu", 0.03, RateFunction::MultiServer(4)),
            st("disk", 0.01, RateFunction::SingleServer),
        ];
        let demands = [0.03, 0.01];
        let mut ws = ws_of(&stations, 1.0, &[4, 0]);
        let mut seen: Vec<(u64, u64, u64)> = Vec::new();
        for n in 1..=60usize {
            ws.solve_at(n, &demands).unwrap();
            seen.push((
                ws.throughput().to_bits(),
                ws.queues()[0].to_bits(),
                ws.marginals_of(0)[1].to_bits(),
            ));
        }
        for n in (1..=60usize).rev() {
            ws.solve_at(n, &demands).unwrap();
            let now = (
                ws.throughput().to_bits(),
                ws.queues()[0].to_bits(),
                ws.marginals_of(0)[1].to_bits(),
            );
            assert_eq!(now, seen[n - 1], "read-back at n={n}");
        }
    }

    /// A demand change rebuilds in place; the result must be bit-identical
    /// to a fresh workspace built with the new demands.
    #[test]
    fn demand_change_rebuild_matches_fresh_workspace() {
        let base = vec![
            st("cpu", 0.02, RateFunction::MultiServer(8)),
            st("disk", 0.008, RateFunction::SingleServer),
            st("lan", 0.003, RateFunction::Delay),
        ];
        let mut ws = ws_of(&base, 0.5, &[8, 0, 0]);
        // Warm it on the original demands first.
        ws.solve_at(40, &[0.02, 0.008, 0.003]).unwrap();
        for (i, scale) in [1.1f64, 0.7, 1.0, 0.0].iter().enumerate() {
            let demands = [0.02 * scale, 0.008 * scale, 0.003 * scale];
            let n = 25 + i;
            ws.solve_at(n, &demands).unwrap();
            let mut fresh_sts = base.clone();
            for (s, &d) in fresh_sts.iter_mut().zip(&demands) {
                s.demand = d;
            }
            let mut fresh = ws_of(&fresh_sts, 0.5, &[8, 0, 0]);
            fresh.solve_at(n, &demands).unwrap();
            assert_eq!(ws.throughput().to_bits(), fresh.throughput().to_bits());
            for k in 0..3 {
                assert_eq!(ws.queues()[k].to_bits(), fresh.queues()[k].to_bits());
            }
            for j in 0..8 {
                assert_eq!(
                    ws.marginals_of(0)[j].to_bits(),
                    fresh.marginals_of(0)[j].to_bits()
                );
            }
        }
    }

    /// The light single-server path (telescoped queue accumulator, no
    /// G₍₋ₖ₎) agrees with the closed-form machine-repair model.
    #[test]
    fn light_single_server_matches_machine_repair() {
        let stations = vec![st("s", 0.25, RateFunction::SingleServer)];
        let mut ws = ws_of(&stations, 1.0, &[0]);
        for n in 1..=200usize {
            ws.advance().unwrap();
            let (xe, qe) = mvasd_numerics::erlang::machine_repair(n, 1, 0.25, 1.0).unwrap();
            assert!(rel_close(ws.throughput(), xe, 1e-9), "x at n={n}");
            assert!(rel_close(ws.queues()[0], qe, 1e-8), "q at n={n}");
        }
    }

    /// Satellite 2: incremental-workspace `solve_at` ≡ from-scratch
    /// `solve_at` to 1e-12 across random mixed networks with random
    /// marginal limits, under a random schedule of population jumps
    /// (up, down, and demand changes) against ONE reused workspace.
    #[test]
    fn propcheck_workspace_equals_scratch_on_random_networks() {
        check(
            "propcheck_workspace_equals_scratch_on_random_networks",
            &Config::default().cases(24),
            |g: &mut Gen| {
                let k_count = g.usize_in(1, 4);
                let mut stations = Vec::new();
                let mut limits = Vec::new();
                for i in 0..k_count {
                    let rate = match g.usize_in(0, 3) {
                        0 => RateFunction::SingleServer,
                        1 => RateFunction::MultiServer(g.usize_in(2, 8)),
                        2 => RateFunction::Delay,
                        _ => {
                            let len = g.usize_in(1, 4);
                            RateFunction::Custom(
                                (0..len)
                                    .map(|j| 1.0 + j as f64 * g.f64_in(0.1, 1.0))
                                    .collect(),
                            )
                        }
                    };
                    let limit = match &rate {
                        RateFunction::MultiServer(c) if g.bool() => *c,
                        _ => {
                            if g.bool() {
                                g.usize_in(0, 3)
                            } else {
                                0
                            }
                        }
                    };
                    stations.push(st(&format!("s{i}"), g.f64_in(0.001, 0.2), rate));
                    limits.push(limit);
                }
                let z = g.f64_in(0.0, 2.0);
                if z <= 0.0 && stations.iter().all(|s| s.demand <= 0.0) {
                    return;
                }
                let mut ws = ConvWorkspace::from_conv(stations.clone(), z, limits.clone())
                    .expect("valid network");

                // A random walk of population requests over one workspace:
                // increasing, decreasing, and demand-perturbed steps.
                let mut demands: Vec<f64> = stations.iter().map(|s| s.demand).collect();
                for _ in 0..g.usize_in(3, 8) {
                    if g.bool() {
                        let k = g.usize_in(0, k_count - 1);
                        demands[k] = g.f64_in(0.001, 0.2);
                    }
                    let n = g.usize_in(1, 40);
                    ws.solve_at(n, &demands).unwrap();

                    let mut ref_sts = stations.clone();
                    for (s, &d) in ref_sts.iter_mut().zip(&demands) {
                        s.demand = d;
                    }
                    let (x, q, m) = scratch::solve_at(&ref_sts, z, n, &limits).unwrap();
                    assert!(
                        rel_close(ws.throughput(), x, 1e-12),
                        "x: {} vs {x} at n={n}",
                        ws.throughput()
                    );
                    for k in 0..k_count {
                        assert!(
                            rel_close(ws.queues()[k], q[k], 1e-11),
                            "q[{k}]: {} vs {} at n={n}",
                            ws.queues()[k],
                            q[k]
                        );
                        for (j, &mv) in m[k].iter().enumerate() {
                            assert!(
                                (ws.marginals_of(k)[j] - mv).abs() <= 1e-12,
                                "marginal[{k}][{j}] at n={n}"
                            );
                        }
                    }
                }
            },
        );
    }

    #[test]
    fn growth_preserves_carried_columns() {
        let stations = vec![
            st("cpu", 0.05, RateFunction::MultiServer(4)),
            st("disk", 0.02, RateFunction::SingleServer),
        ];
        // Tiny initial capacity (64), then force several regrowths.
        let mut ws = ws_of(&stations, 1.0, &[4, 0]);
        let mut fresh = ws_of(&stations, 1.0, &[4, 0]);
        fresh.reserve(600);
        for _ in 0..600 {
            ws.advance().unwrap();
            fresh.advance().unwrap();
        }
        assert_eq!(ws.throughput().to_bits(), fresh.throughput().to_bits());
        assert_eq!(ws.queues()[0].to_bits(), fresh.queues()[0].to_bits());
        assert_eq!(ws.queues()[1].to_bits(), fresh.queues()[1].to_bits());
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(matches!(
            ConvWorkspace::from_conv(Vec::new(), 1.0, Vec::new()),
            Err(QueueingError::EmptyNetwork)
        ));
        let stations = vec![st("s", 0.1, RateFunction::SingleServer)];
        let mut ws = ws_of(&stations, 1.0, &[0]);
        assert!(ws.solve_at(0, &[0.1]).is_err());
        assert!(ws.solve_at(5, &[0.1, 0.2]).is_err());
        assert!(ws.solve_at(5, &[0.1]).is_ok());
    }

    #[test]
    fn public_face_builds_from_a_network() {
        use crate::network::Station;
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 4, 1.0, 0.02),
                Station::load_dependent("fes", 1.0, 0.1, vec![1.0, 1.8, 2.4]),
            ],
            1.0,
        )
        .unwrap();
        let mut public = ConvWorkspace::new(&net, &[4]).unwrap();
        let stations = [
            st("cpu", 0.02, RateFunction::MultiServer(4)),
            st("fes", 0.1, RateFunction::Custom(vec![1.0, 1.8, 2.4])),
        ];
        let mut internal = ws_of(&stations, 1.0, &[4, 0]);
        for _ in 0..40 {
            public.advance().unwrap();
            internal.advance().unwrap();
            assert_eq!(
                public.throughput().to_bits(),
                internal.throughput().to_bits()
            );
            assert_eq!(public.marginals_of(0), internal.marginals_of(0));
            assert!(public.marginals_of(1).is_empty());
        }
    }

    /// Hostile demands are rejected, not evaluated: NaN and ∞ used to
    /// yield X = NaN and a negative demand was silently read as zero.
    #[test]
    fn solve_at_rejects_non_finite_and_negative_demands() {
        let stations = [
            st("cpu", 0.02, RateFunction::MultiServer(4)),
            st("disk", 0.012, RateFunction::SingleServer),
            st("lan", 0.004, RateFunction::Delay),
        ];
        let good = [0.02, 0.012, 0.004];
        let mut ws = ws_of(&stations, 1.0, &[0, 0, 0]);
        ws.solve_at(5, &good).unwrap();
        let x5 = ws.throughput();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.1] {
            for k in 0..3 {
                let mut demands = good;
                demands[k] = bad;
                let err = ws.solve_at(5, &demands).unwrap_err();
                assert!(
                    matches!(err, QueueingError::InvalidParameter { .. }),
                    "{bad} at {k}: {err:?}"
                );
            }
        }
        // The rejected calls touched nothing: the carried state still
        // serves the good demands, bit for bit.
        ws.solve_at(5, &good).unwrap();
        assert_eq!(ws.throughput().to_bits(), x5.to_bits());
        ws.solve_at(6, &good).unwrap();
        let mut fresh = ws_of(&stations, 1.0, &[0, 0, 0]);
        fresh.solve_at(6, &good).unwrap();
        assert_eq!(ws.throughput().to_bits(), fresh.throughput().to_bits());
    }

    #[test]
    fn emits_workspace_metrics() {
        let _guard = mvasd_obsv_test_lock();
        let collector = std::sync::Arc::new(obsv::Collector::new());
        let scope = obsv::scoped(collector.clone());
        let stations = vec![st("s", 0.1, RateFunction::SingleServer)];
        let mut ws = ws_of(&stations, 1.0, &[0]);
        for _ in 0..10 {
            ws.advance().unwrap();
        }
        ws.solve_at(5, &[0.2]).unwrap();
        ws.flush_metrics();
        let snap = collector.snapshot();
        drop(scope);
        // 10 incremental advances + 5 rebuild extensions.
        assert_eq!(snap.counter("conv.workspace.extend"), 15);
        assert_eq!(snap.counter("conv.workspace.rebuild"), 1);
        assert!(snap.counter("conv.workspace.alloc") >= 1);
        assert!(snap.gauge("conv.workspace.bytes").unwrap_or(0.0) > 0.0);
        // Numeric-health probe: one ln G watched per extension, no NaN
        // reads, and a nonzero log-sum-exp envelope.
        assert_eq!(snap.counter("health.conv.lse.samples"), 15);
        assert_eq!(snap.counter("health.conv.lse.nan_poison"), 0);
        let lo = snap.gauge("health.conv.lse.lo").expect("lse lo");
        let hi = snap.gauge("health.conv.lse.hi").expect("lse hi");
        let range = snap.gauge("health.conv.lse.range").expect("lse range");
        assert!(hi >= lo);
        assert!((range - (hi - lo)).abs() < 1e-12);
        assert!(range > 0.0);
    }

    /// Serializes against other tests touching the global recorder.
    fn mvasd_obsv_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }
}
