//! The incremental convolution workspace: Buzen's algorithm with carried
//! state, O(knee) log-sum-exp work per cell, and zero heap allocation per
//! step once warm.
//!
//! Two exact identities keep every cell short.
//!
//! * **Poisson head.** Think time and every delay station whose marginals
//!   are not tracked convolve into one Poisson column,
//!   `ln h(m) = m·ln Z_tot − ln m!` with `Z_tot = Z + Σ D_delay`, extended
//!   as `h(m) = h(m−1) + (ln Z_tot − ln m)`. Every chain starts from it.
//! * **Knee telescope.** A queueing or rate-table station's factor column
//!   `f(j) = D^j / ∏ α(i)` is geometric past its knee `c` (`1` for a single
//!   server, `C` for `C` servers, the table length for a rate table), with
//!   ratio `r = D/α(c)`. So one convolution cell splits into a window and
//!   a carried tail, `(A ⊛ f)(m) = W(m) ⊕ T(m)` (`⊕` = log-sum-exp):
//!
//!   ```text
//!   W(m) = ⊕_{j<c} A(m−j) + ln f(j)                  (≤ c terms)
//!   T(m) = ln r + (T(m−1) ⊕ (A(m−c) + ln f(c−1)))     (one term, m ≥ c)
//!   ```
//!
//!   `W` runs on the batched [`kernel::conv_cell`] over a `c`-long slice.
//!   For `c = 1`, `T(m) = ln r + (A ⊛ f)(m−1)`: the single-server
//!   telescope. A delay station with tracked marginals is a stage with an
//!   unbounded knee: its window is the whole column.
//!
//! Stations take one of four roles per demand vector. Zero-demand stations
//! are left out (the convolution identity). Untracked delay stations join
//! the head. A single server is **light**: a knee-1 stage on the shared
//! chain, whose queue is the O(1)-state accumulator
//! `h(n) = D·(G(n−1) + h(n−1))`, `Q(n) = h(n)/G(n)`, and whose tracked
//! marginals are read off `G` as `p(j|n) = P(Q ≥ j | n)·(1 − U(n−j))`,
//! so tracking one never changes the plan. A rate-table station, or a
//! delay station with tracked marginals, is **heavy**: it needs its
//! complement `G₍₋ₖ₎`, the network without it.
//!
//! The chain runs head → light stages, then an all-but-one divide and
//! conquer over the heavy stages: a node holding the convolution of
//! everything outside its range convolves one half into the column the
//! other half recurses on, until one station is left, whose column is its
//! `G₍₋ₖ₎`. That is `H·⌈log₂ H⌉` cells for `H` heavy stations, and
//! `G = G₍₋ₖ₎ ⊛ f_k` is one more. A heavy station's queue
//! `Σ_j j·f(j)·G₍₋ₖ₎(n−j) / G(n)` splits at the knee the same way: the
//! window terms `j < c` are read at output time, the tail
//! `V(m) = c·f(c)·G₍₋ₖ₎(m−c) + r·(V(m−1) + T(m−1))` is carried. So a
//! population step costs `O(Σ c)` whatever the population.
//!
//! Every cell rule is planned once per demand vector into flat buffers
//! sized at construction; [`Grid`] holds the factor columns, the
//! convolution columns and the queue numerators. One [`advance`]
//! appends exactly one cell to each live column; nothing already written is
//! ever mutated, which is what makes the incremental, snapshot/resume and
//! rebuild paths **bit-for-bit identical** — they all execute the same
//! per-cell code in the same order.
//!
//! Changing the demand vector ([`solve_at`]) re-runs the recursion from
//! population 0 inside the same buffers: `O(n)` cells of `O(knee)` each,
//! zero allocation and one `ln D` per station. That is what the
//! quasi-static MVASD phase does at every population step.
//!
//! [`advance`]: ConvWorkspace::advance
//! [`solve_at`]: ConvWorkspace::solve_at

use super::super::loaddep::RateFunction;
use super::super::schedule::check_demands;
use super::kernel::{self, lse2};
use super::ConvStation;
use crate::network::ClosedNetwork;
use crate::QueueingError;
use mvasd_obsv as obsv;

/// How a station enters the convolution for the current demand vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Zero demand: the convolution identity, left out of every chain.
    Zero,
    /// Untracked delay station: merged into the Poisson head.
    Head,
    /// Single server: a knee-1 stage on the shared chain.
    Light,
    /// Rate-table or tracked delay station: gets its own `G₍₋ₖ₎` column.
    Heavy,
}

/// One planned cell rule: column `src` convolved with station `stage`'s
/// factor column. Op `i` writes column `i + 1` (column 0 is the head).
#[derive(Debug, Clone, Copy, Default)]
struct Op {
    src: usize,
    stage: usize,
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

/// The knee of a delay stage: its factor column never turns geometric.
const UNBOUNDED: usize = usize::MAX;

/// Knee `c` of a rate model: `f(j+1) = f(j)·D/α(c)` for every `j ≥ c`.
fn knee(rate: &RateFunction) -> usize {
    match rate {
        RateFunction::SingleServer => 1,
        RateFunction::MultiServer(c) => *c,
        RateFunction::Custom(t) => t.len(),
        RateFunction::Delay => UNBOUNDED,
    }
}

/// Whether a rate model is a rate table (multi-server or custom).
fn is_rate_table(rate: &RateFunction) -> bool {
    matches!(
        rate,
        RateFunction::MultiServer(2..) | RateFunction::Custom(_)
    )
}

/// Whether a station needs its own complement `G₍₋ₖ₎` (the heavy role):
/// a rate table, or a delay station with tracked marginals.
fn is_heavy(rate: &RateFunction, limit: usize) -> bool {
    is_rate_table(rate) || (*rate == RateFunction::Delay && limit > 0)
}

/// Cells the all-but-one divide and conquer plans for `h` heavy stages.
fn tree_ops(h: usize) -> usize {
    if h <= 1 {
        0
    } else {
        h + tree_ops(h / 2) + tree_ops(h - h / 2)
    }
}

/// Incremental log-domain convolution engine. See the module docs for the
/// Poisson head, the knee telescope and the all-but-one plan.
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
    /// Knee per station ([`UNBOUNDED`] for delay stations).
    knee: Vec<usize>,
    /// `ln t(j)` of every custom rate table, packed back to back; the
    /// other rate models read `ln α(j)` off `ln_int`.
    ln_table: Vec<f64>,
    /// Offset of station `k`'s block in `ln_table`.
    table_off: Vec<usize>,
    /// `ln α_k(c_k)`, the constant rate past the knee (`+∞` for delays).
    ln_alpha_knee: Vec<f64>,
    /// `ln j` for `j = 1..cap` (index 0 unused).
    ln_int: Vec<f64>,

    /// Per-station role; recomputed on every demand change.
    role: Vec<Role>,
    /// `ln D_k` (`−∞` when zero).
    ln_d: Vec<f64>,
    /// `ln r_k = ln D_k − ln α_k(c_k)`, the geometric ratio past the knee.
    ln_r: Vec<f64>,
    /// `ln Z_tot` of the Poisson head; `−∞` when there is nothing to merge.
    ln_z: f64,

    /// The planned cell rules, run in order at every population; only the
    /// first `op_count` are live. Sized for the worst case at construction.
    ops: Vec<Op>,
    op_count: usize,
    /// Heavy stations of the current plan (first `heavy_count` entries).
    heavy_list: Vec<usize>,
    heavy_count: usize,
    /// Column holding `ln G`.
    g_col: usize,
    /// Column holding `ln G₍₋ₖ₎` per heavy station (else `NO_ROW`).
    gm_col: Vec<usize>,
    /// Row of `ln_qnum` for single-server and rate-table stations (else
    /// `NO_ROW`).
    q_row: Vec<usize>,

    /// `ln_factors[k][j] = ln f_k(j)` for every station.
    ln_factors: Grid,
    /// Convolution columns: row 0 is the Poisson head, row `i + 1` is
    /// written by op `i`.
    ln_cols: Grid,
    /// `T(m)` of the last extension, per column (see the module docs).
    tail: Vec<f64>,
    /// Queue numerators `Σ_j j·f_k(j)·G₍₋ₖ₎(n−j)`, telescoped: for a light
    /// station the whole of it, `h(n) = D·(G(n−1) + h(n−1))`; for a rate
    /// table its geometric tail `V(n)`, the terms `j ≥ c`.
    ln_qnum: Grid,
    /// `T` of `G₍₋ₖ₎ ⊛ f_k` at the last extension, per rate-table station:
    /// the tail `V` telescopes over it.
    gm_tail: Vec<f64>,

    // Per-population outputs, overwritten in place by `compute_outputs`.
    out_x: f64,
    out_queues: Vec<f64>,
    /// Marginal snapshots `p_k(0..limit−1 | n)`, packed back to back.
    out_marginals: Vec<f64>,
    /// Offset of station `k`'s marginal block in `out_marginals`.
    marg_off: Vec<usize>,

    /// Scratch for the batched log-sum-exp kernel, sized alongside the
    /// grids so window cells never allocate.
    cell: kernel::CellScratch,
    /// Log-sum-exp terms evaluated since construction: window lengths plus
    /// one per tail update. A host-independent cost measure.
    terms: u64,

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
        limits.resize(k_count, 0);

        let mut knees = Vec::with_capacity(k_count);
        let mut ln_table = Vec::new();
        let mut table_off = Vec::with_capacity(k_count);
        let mut ln_alpha_knee = Vec::with_capacity(k_count);
        let mut q_row = vec![NO_ROW; k_count];
        let (mut q_rows, mut light_cap, mut heavy_cap) = (0, 0, 0);
        for (k, s) in stations.iter().enumerate() {
            let c = knee(&s.rate);
            knees.push(c);
            table_off.push(ln_table.len());
            if let RateFunction::Custom(t) = &s.rate {
                for &rate in t {
                    let ln_rate = rate.ln();
                    ln_table.push(ln_rate);
                }
            }
            // A delay's rate never levels off: r = D/∞ = 0 past its knee.
            let rate_c = match c {
                UNBOUNDED => f64::INFINITY,
                c => s.rate.rate(c),
            };
            let ln_rate_c = rate_c.ln();
            ln_alpha_knee.push(ln_rate_c);
            if is_heavy(&s.rate, limits[k]) {
                heavy_cap += 1;
            } else if c == 1 {
                light_cap += 1;
            }
            if is_rate_table(&s.rate) || c == 1 {
                q_row[k] = q_rows;
                q_rows += 1;
            }
        }
        let max_ops = light_cap + tree_ops(heavy_cap) + usize::from(heavy_cap > 0);

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
            knee: knees,
            ln_table,
            table_off,
            ln_alpha_knee,
            ln_int: Vec::new(),
            role: vec![Role::Zero; k_count],
            ln_d: vec![f64::NEG_INFINITY; k_count],
            ln_r: vec![f64::NEG_INFINITY; k_count],
            ln_z: f64::NEG_INFINITY,
            ops: vec![Op::default(); max_ops],
            op_count: 0,
            heavy_list: vec![0; heavy_cap],
            heavy_count: 0,
            g_col: 0,
            gm_col: vec![NO_ROW; k_count],
            q_row,
            ln_factors: Grid::new(k_count),
            ln_cols: Grid::new(max_ops + 1),
            tail: vec![f64::NEG_INFINITY; max_ops + 1],
            ln_qnum: Grid::new(q_rows),
            gm_tail: vec![f64::NEG_INFINITY; k_count],
            out_x: 0.0,
            out_queues: vec![0.0; k_count],
            out_marginals: vec![0.0; off],
            marg_off,
            cell: kernel::CellScratch::new(),
            terms: 0,
            extend_ctr: obsv::CounterBatch::new("conv.workspace.extend", 64),
            cells_ctr: obsv::CounterBatch::new("convolution.cells", 64),
            health: obsv::HealthProbe::new("conv.lse"),
        };
        ws.refresh_roles();
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

    /// Log-sum-exp terms evaluated since construction.
    #[cfg(test)]
    fn terms(&self) -> u64 {
        self.terms
    }

    /// Flushes the batched instrumentation counters and the numeric-health
    /// probe to the recorder.
    pub fn flush_metrics(&mut self) {
        self.extend_ctr.flush();
        self.cells_ctr.flush();
        self.health.flush();
    }

    /// `ln α_k(j)` for `1 ≤ j < cap`.
    #[inline]
    fn ln_alpha_at(&self, k: usize, j: usize) -> f64 {
        match &self.stations[k].rate {
            RateFunction::SingleServer => 0.0,
            RateFunction::MultiServer(c) => self.ln_int[j.min(*c)],
            RateFunction::Delay => self.ln_int[j],
            RateFunction::Custom(t) => self.ln_table[self.table_off[k] + j.min(t.len()) - 1],
        }
    }

    /// Re-derives every station's role, the head and the cell plan from
    /// the current demands.
    // lint: no-alloc
    fn refresh_roles(&mut self) {
        let mut z_tot = self.think_time;
        for k in 0..self.stations.len() {
            let s = &self.stations[k];
            let role = if s.demand <= 0.0 {
                Role::Zero
            } else if is_heavy(&s.rate, self.limits[k]) {
                Role::Heavy
            } else if self.knee[k] == UNBOUNDED {
                Role::Head
            } else {
                Role::Light
            };
            let ln_demand = s.demand.ln();
            if role == Role::Head {
                z_tot += s.demand;
            }
            self.role[k] = role;
            self.ln_d[k] = ln_demand;
            self.ln_r[k] = ln_demand - self.ln_alpha_knee[k];
        }
        // ln 0 = −∞: nothing to merge leaves the identity head.
        let ln_z_tot = z_tot.ln();
        self.ln_z = ln_z_tot;
        self.plan();
    }

    /// Plans the cell rules: head → light stages, then the all-but-one
    /// tree over the heavy stages, then `G`.
    // lint: no-alloc
    fn plan(&mut self) {
        self.op_count = 0;
        self.heavy_count = 0;
        self.gm_col.fill(NO_ROW);
        let mut col = 0;
        for k in 0..self.stations.len() {
            match self.role[k] {
                Role::Light => col = self.push_op(col, k),
                Role::Heavy => {
                    self.heavy_list[self.heavy_count] = k;
                    self.heavy_count += 1;
                }
                Role::Zero | Role::Head => {}
            }
        }
        self.g_col = match self.heavy_count {
            0 => col,
            h => {
                self.split(col, 0, h);
                let last = self.heavy_list[h - 1];
                self.push_op(self.gm_col[last], last)
            }
        };
    }

    /// Plans `heavy_list[lo..hi]`'s complements from `col`, the convolution
    /// of everything outside that range: each half is convolved into the
    /// column the other half recurses on.
    // lint: no-alloc
    fn split(&mut self, col: usize, lo: usize, hi: usize) {
        if hi - lo == 1 {
            self.gm_col[self.heavy_list[lo]] = col;
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let mut left = col;
        for i in mid..hi {
            left = self.push_op(left, self.heavy_list[i]);
        }
        self.split(left, lo, mid);
        let mut right = col;
        for i in lo..mid {
            right = self.push_op(right, self.heavy_list[i]);
        }
        self.split(right, mid, hi);
    }

    /// Appends the op `src ⊛ f_stage` and returns the column it writes.
    // lint: no-alloc
    fn push_op(&mut self, src: usize, stage: usize) -> usize {
        self.ops[self.op_count] = Op { src, stage };
        self.op_count += 1;
        self.op_count
    }

    /// Grows every grid so populations `0..len` fit, extending the `ln j`
    /// table for the new range. Growth is the only allocation the
    /// workspace ever performs after construction.
    fn ensure_capacity(&mut self, len: usize) {
        if len <= self.ln_cols.cap {
            return;
        }
        let new_cap = len.next_power_of_two().max(self.ln_cols.cap * 2).max(64);
        let old_cap = self.ln_cols.cap;
        let keep = (self.n + 1).min(old_cap);
        self.ln_factors.grow(new_cap, keep);
        self.ln_cols.grow(new_cap, keep);
        self.ln_qnum.grow(new_cap, keep);
        self.cell.ensure(new_cap);

        self.ln_int.resize(new_cap, 0.0);
        for j in old_cap.max(1)..new_cap {
            self.ln_int[j] = (j as f64).ln();
        }

        if obsv::enabled() {
            let bytes = self.ln_factors.bytes()
                + self.ln_cols.bytes()
                + self.ln_qnum.bytes()
                + (self.ln_int.len() + self.ln_table.len()) * std::mem::size_of::<f64>();
            obsv::counter("conv.workspace.alloc", 1);
            obsv::gauge("conv.workspace.bytes", bytes as f64);
        }
    }

    /// Rewinds to population 0, re-initializing only the `j = 0` cells:
    /// `f(0) = G(0) = G₍₋ₖ₎(0) = 1`, `h(0) = 0`, and empty tails.
    // lint: no-alloc
    fn reset(&mut self) {
        self.n = 0;
        for k in 0..self.ln_factors.rows {
            self.ln_factors.set(k, 0, 0.0);
        }
        for r in 0..self.ln_cols.rows {
            self.ln_cols.set(r, 0, 0.0);
        }
        self.tail.fill(f64::NEG_INFINITY);
        self.gm_tail.fill(f64::NEG_INFINITY);
        for r in 0..self.ln_qnum.rows {
            self.ln_qnum.set(r, 0, f64::NEG_INFINITY);
        }
    }

    /// One knee-telescoped cell: column `dst` at population `m`.
    // lint: no-alloc
    fn run_op(&mut self, op: Op, dst: usize, m: usize) {
        let Op { src, stage } = op;
        let c = self.knee[stage];
        let w = c.min(m + 1);
        let a = self.ln_cols.row(src);
        let f = self.ln_factors.row(stage);
        // ln f(0) = 0: a one-term window is the source cell itself.
        let window = if w == 1 {
            a[m]
        } else {
            kernel::conv_cell(&f[..w], &a[m + 1 - w..=m], w - 1, &mut self.cell)
        };
        let tail = if m < c {
            f64::NEG_INFINITY
        } else if c == 1 {
            // T(m−1) ⊕ A(m−1) is the previous cell itself.
            self.ln_r[stage] + self.ln_cols.at(dst, m - 1)
        } else {
            self.ln_r[stage] + lse2(self.tail[dst], a[m - c] + f[c - 1])
        };
        self.terms += w as u64 + u64::from(m >= c);
        self.tail[dst] = tail;
        self.ln_cols.set(dst, m, lse2(window, tail));
    }

    /// Extends every live column by the cell for population `self.n + 1`.
    /// Cells are append-only, so values never depend on how far the
    /// workspace is later extended — the root of the bit-for-bit guarantee.
    // lint: no-alloc
    fn extend_one(&mut self) -> Result<(), QueueingError> {
        let m = self.n + 1;
        self.ensure_capacity(m + 1);

        for k in 0..self.stations.len() {
            if matches!(self.role[k], Role::Light | Role::Heavy) {
                let v = self.ln_factors.at(k, m - 1) + (self.ln_d[k] - self.ln_alpha_at(k, m));
                self.ln_factors.set(k, m, v);
            }
        }
        let head = self.ln_cols.at(0, m - 1) + (self.ln_z - self.ln_int[m]);
        self.ln_cols.set(0, m, head);
        for i in 0..self.op_count {
            self.run_op(self.ops[i], i + 1, m);
        }

        let g_m = self.ln_cols.at(self.g_col, m);
        self.health.watch(g_m);
        if g_m == f64::NEG_INFINITY && self.ln_cols.at(self.g_col, m - 1) != f64::NEG_INFINITY {
            return Err(QueueingError::InvalidParameter {
                what: "normalization constant vanished (all-zero demands?)",
            });
        }

        let g_prev = self.ln_cols.at(self.g_col, m - 1);
        for k in 0..self.stations.len() {
            let r = self.q_row[k];
            match self.role[k] {
                Role::Light => {
                    let v = self.ln_d[k] + lse2(self.ln_qnum.at(r, m - 1), g_prev);
                    self.ln_qnum.set(r, m, v);
                }
                Role::Heavy if r != NO_ROW => self.extend_queue_tail(k, r, m),
                _ => {}
            }
        }

        self.n = m;
        self.extend_ctr.add(1);
        if obsv::enabled() {
            self.cells_ctr.add(self.op_count as u64);
            obsv::gauge("convolution.ln_g", g_m);
        }
        Ok(())
    }

    /// Extends a rate-table station's queue-numerator tail
    /// `V(m) = Σ_{j=c}^{m} j·f(j)·B(m−j)` over its complement `B = G₍₋ₖ₎`:
    /// `V(m) = c·f(c)·B(m−c) + r·(V(m−1) + T_B(m−1))`, where `T_B` is the
    /// knee tail of `B ⊛ f`, itself telescoped alongside.
    // lint: no-alloc
    fn extend_queue_tail(&mut self, k: usize, r: usize, m: usize) {
        let c = self.knee[k];
        if m < c {
            self.ln_qnum.set(r, m, f64::NEG_INFINITY);
            return;
        }
        let b = self.ln_cols.at(self.gm_col[k], m - c);
        let ln_r = self.ln_r[k];
        let t_prev = self.gm_tail[k];
        let head = self.ln_int[c] + self.ln_factors.at(k, c) + b;
        let v = lse2(head, ln_r + lse2(self.ln_qnum.at(r, m - 1), t_prev));
        self.gm_tail[k] = ln_r + lse2(t_prev, b + self.ln_factors.at(k, c - 1));
        self.terms += 2;
        self.ln_qnum.set(r, m, v);
    }

    /// Fills the output slots (`throughput`/`queues`/`marginals_of`) for
    /// population `n ≤ self.n`. Read-only over the columns; allocates
    /// nothing.
    // lint: no-alloc
    fn compute_outputs(&mut self, n: usize) {
        debug_assert!(n >= 1 && n <= self.n);
        let g_n = self.ln_cols.at(self.g_col, n);
        let x = (self.ln_cols.at(self.g_col, n - 1) - g_n).exp();
        self.out_x = x;
        for k in 0..self.stations.len() {
            let limit = self.limits[k];
            let off = self.marg_off[k];
            self.out_queues[k] = match self.role[k] {
                Role::Zero => {
                    // Nobody ever visits: all mass at j = 0.
                    self.out_marginals[off..off + limit].fill(0.0);
                    if limit > 0 {
                        self.out_marginals[off] = 1.0;
                    }
                    0.0
                }
                // Infinite-server: Q = X·D exactly (Little).
                Role::Head => x * self.stations[k].demand,
                Role::Light => {
                    // p(j|n) = P(Q ≥ j | n)·(1 − U(n−j)): both factors
                    // are probabilities read off G, so the one
                    // subtraction costs absolute, not relative, accuracy.
                    self.out_marginals[off..off + limit].fill(0.0);
                    for j in 0..limit.min(n + 1) {
                        let ln_at_least =
                            self.ln_factors.at(k, j) + self.ln_cols.at(self.g_col, n - j) - g_n;
                        let ln_busy = if j == n {
                            f64::NEG_INFINITY
                        } else {
                            self.ln_d[k] + self.ln_cols.at(self.g_col, n - j - 1)
                                - self.ln_cols.at(self.g_col, n - j)
                        };
                        self.out_marginals[off + j] = ln_at_least.exp() * -ln_busy.exp_m1();
                    }
                    (self.ln_qnum.at(self.q_row[k], n) - g_n).exp()
                }
                Role::Heavy => {
                    // p(j|n) = f(j)·G₍₋ₖ₎(n−j)/G(n) over the window j < c
                    // (and the tracked j < limit); the tail j ≥ c of the
                    // queue sum is the carried V(n).
                    self.out_marginals[off..off + limit].fill(0.0);
                    let gm = self.gm_col[k];
                    let c = self.knee[k];
                    let upto = match self.q_row[k] {
                        NO_ROW => limit,
                        _ => limit.max(c),
                    };
                    let mut q = 0.0;
                    for j in 0..upto.min(n + 1) {
                        let lp = self.ln_factors.at(k, j) + self.ln_cols.at(gm, n - j) - g_n;
                        if lp > -700.0 {
                            let p = lp.exp();
                            if j < c {
                                q += j as f64 * p;
                            }
                            if j < limit {
                                self.out_marginals[off + j] = p;
                            }
                        } else if lp != f64::NEG_INFINITY {
                            // A finite marginal term too small for exp():
                            // dropped, which is safe but worth counting.
                            self.health.count_underflow();
                        }
                    }
                    match self.q_row[k] {
                        // A tracked delay station: Q = X·D exactly.
                        NO_ROW => x * self.stations[k].demand,
                        r => q + (self.ln_qnum.at(r, n) - g_n).exp(),
                    }
                }
            };
        }
    }

    /// Advances one population and refreshes the outputs — the streaming
    /// hot path: one cell per planned op, zero allocation once capacity is
    /// there.
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
    /// touched (the rule every recursion applies to its schedule), so the
    /// workspace stays usable after the error.
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
        check_demands(demands)?;
        let changed = self
            .stations
            .iter()
            .zip(demands)
            .any(|(s, d)| s.demand.to_bits() != d.to_bits());
        if changed {
            for (s, &d) in self.stations.iter_mut().zip(demands) {
                s.demand = d;
            }
            self.refresh_roles();
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

    /// Draws one station of the oracle suite's mix and its marginal limit.
    fn gen_station(g: &mut Gen, i: usize) -> (ConvStation, usize) {
        let rate = match g.usize_in(0, 3) {
            0 => RateFunction::SingleServer,
            1 => RateFunction::MultiServer(g.usize_in(2, 32)),
            2 => RateFunction::Delay,
            _ => {
                let len = g.usize_in(1, 8);
                let monotone = g.bool();
                RateFunction::Custom(
                    (0..len)
                        .map(|j| {
                            if monotone {
                                1.0 + j as f64 * g.f64_in(0.1, 1.0)
                            } else {
                                g.f64_in(0.2, 4.0)
                            }
                        })
                        .collect(),
                )
            }
        };
        let demand = if g.usize_in(0, 5) == 0 {
            0.0
        } else {
            g.f64_in(0.001, 0.2)
        };
        let limit = match &rate {
            RateFunction::MultiServer(c) if g.bool() => *c,
            RateFunction::Custom(t) if g.bool() => t.len(),
            _ if g.usize_in(0, 3) == 0 => g.usize_in(1, 3),
            _ => 0,
        };
        (st(&format!("s{i}"), demand, rate), limit)
    }

    /// The knee rule and the Poisson head against the from-scratch oracle:
    /// random mixes of single servers, 2..=32 servers, rate tables of
    /// length 1..=8 (some non-monotone), delay and zero-demand stations,
    /// checked at populations below, at and past every knee up to 400.
    #[test]
    fn propcheck_knee_rule_matches_reference() {
        check(
            "propcheck_knee_rule_matches_reference",
            &Config::default().cases(32),
            |g: &mut Gen| {
                let k_count = g.usize_in(1, 6);
                let (stations, limits): (Vec<_>, Vec<_>) =
                    (0..k_count).map(|i| gen_station(g, i)).unzip();
                let z = if g.bool() { 0.0 } else { g.f64_in(1e-3, 3.0) };
                if z <= 0.0 && stations.iter().all(|s| s.demand <= 0.0) {
                    return;
                }
                let n_max = g.usize_in(1, 400);
                let mut probes = vec![1, n_max, g.usize_in(1, n_max)];
                for s in &stations {
                    let c = knee(&s.rate);
                    if c != UNBOUNDED {
                        probes.extend(
                            [c - 1, c, c + 1]
                                .into_iter()
                                .filter(|&m| m >= 1 && m <= n_max),
                        );
                    }
                }
                let mut ws = ws_of(&stations, z, &limits);
                ws.reserve(n_max);
                for n in 1..=n_max {
                    ws.advance().unwrap();
                    if !probes.contains(&n) {
                        continue;
                    }
                    let (x, q, m) = scratch::solve_at(&stations, z, n, &limits).unwrap();
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
                                "marginal[{k}][{j}]: {} vs {mv} at n={n}",
                                ws.marginals_of(k)[j]
                            );
                        }
                    }
                }
            },
        );
    }

    /// Incremental, fresh and rebuilt workspaces agree bit for bit on a
    /// network that exercises every stage rule: a knee-16 and a knee-3
    /// (rate table) stage, a single server, and two delay stations merged
    /// into the think-time head.
    #[test]
    fn incremental_fresh_and_rebuild_are_bitwise_identical_with_head_merge() {
        let stations = vec![
            st("cpu", 0.02, RateFunction::MultiServer(16)),
            st("fes", 0.05, RateFunction::Custom(vec![1.0, 1.7, 2.2])),
            st("disk", 0.012, RateFunction::SingleServer),
            st("lan", 0.004, RateFunction::Delay),
            st("wan", 0.03, RateFunction::Delay),
        ];
        let limits = [16, 3, 1, 0, 0];
        let demands: Vec<f64> = stations.iter().map(|s| s.demand).collect();
        let other: Vec<f64> = demands.iter().map(|d| d * 1.3).collect();
        let bits = |ws: &ConvWorkspace| {
            let mut v = vec![ws.throughput().to_bits()];
            v.extend(ws.queues().iter().map(|q| q.to_bits()));
            for k in 0..stations.len() {
                v.extend(ws.marginals_of(k).iter().map(|p| p.to_bits()));
            }
            v
        };
        let mut carried = ws_of(&stations, 0.8, &limits);
        let mut rebuilt = ws_of(&stations, 0.8, &limits);
        for n in 1..=90usize {
            carried.advance().unwrap();
            let mut fresh = ws_of(&stations, 0.8, &limits);
            fresh.solve_at(n, &demands).unwrap();
            // Away to other demands and back: two in-place rebuilds.
            rebuilt.solve_at(n, &other).unwrap();
            rebuilt.solve_at(n, &demands).unwrap();
            assert_eq!(bits(&carried), bits(&fresh), "fresh at n={n}");
            assert_eq!(bits(&carried), bits(&rebuilt), "rebuild at n={n}");
        }
    }

    /// Host-independent cost: on the JPetStore shape (three 16-core CPUs,
    /// nine single servers) a rebuild is linear in the population, and one
    /// incremental step costs the same at any depth.
    #[test]
    fn rebuild_cost_is_linear_and_steps_are_flat() {
        let mut stations = Vec::new();
        for (tier, cpu) in [("load", 0.006), ("app", 0.035), ("db", 0.135)] {
            stations.push(st(
                &format!("{tier}-cpu"),
                cpu,
                RateFunction::MultiServer(16),
            ));
            for (dev, d) in [("disk", 0.008), ("tx", 0.002), ("rx", 0.0015)] {
                stations.push(st(&format!("{tier}-{dev}"), d, RateFunction::SingleServer));
            }
        }
        let demands: Vec<f64> = stations.iter().map(|s| s.demand).collect();
        let other: Vec<f64> = demands.iter().map(|d| d * 1.01).collect();
        let rebuild_terms = |n: usize| {
            let mut ws = ws_of(&stations, 1.0, &[]);
            ws.solve_at(1, &demands).unwrap();
            let before = ws.terms();
            ws.solve_at(n, &other).unwrap();
            ws.terms() - before
        };
        let (t1, t2) = (rebuild_terms(150), rebuild_terms(300));
        assert!(
            t2 as f64 <= 2.2 * t1 as f64,
            "rebuild to 300 cost {t2} terms, to 150 {t1}"
        );
        let mut ws = ws_of(&stations, 1.0, &[]);
        let mut step_terms = Vec::new();
        for n in 1..=1200usize {
            let before = ws.terms();
            ws.advance().unwrap();
            if n == 100 || n == 1200 {
                step_terms.push(ws.terms() - before);
            }
        }
        assert_eq!(step_terms[0], step_terms[1], "step cost grew with n");
    }

    /// A station with more servers than customers never queues: it is a
    /// delay station at every population below its knee, and its knee
    /// costs nothing up front.
    #[test]
    fn server_count_beyond_the_population_is_a_delay() {
        let big = [
            st("cpu", 0.02, RateFunction::MultiServer(1 << 40)),
            st("disk", 0.01, RateFunction::SingleServer),
        ];
        let delay = [
            st("cpu", 0.02, RateFunction::Delay),
            st("disk", 0.01, RateFunction::SingleServer),
        ];
        let mut a = ws_of(&big, 0.5, &[2, 0]);
        let mut b = ws_of(&delay, 0.5, &[2, 0]);
        for n in 1..=200usize {
            a.advance().unwrap();
            b.advance().unwrap();
            assert!(
                rel_close(a.throughput(), b.throughput(), 1e-12),
                "x at n={n}"
            );
            assert!(rel_close(a.queues()[0], b.queues()[0], 1e-11), "q at n={n}");
            for j in 0..2 {
                assert!((a.marginals_of(0)[j] - b.marginals_of(0)[j]).abs() <= 1e-12);
            }
        }
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
