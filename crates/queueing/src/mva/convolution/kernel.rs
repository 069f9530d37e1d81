//! Batched log-sum-exp convolution kernel: the inner loop of Buzen's
//! algorithm, restructured for autovectorization and `exp`-call pruning.
//! The workspace runs it over the knee window of a stage (at most `c`
//! terms, see [`super::ConvWorkspace`]); `benches/lse_kernel.rs` times it on
//! whole columns against [`scalar_reference`].
//!
//! One convolution cell is `c(n) = ln Σ_j exp(a(j) + b(n−j))`. The
//! historical implementation ([`scalar_reference`], kept verbatim as the
//! equivalence oracle) fuses max-tracking and accumulation into a single
//! serial pass whose running-maximum rescale makes every iteration depend
//! on the last — LLVM cannot vectorize it, and it calls libm `exp` once
//! per element no matter how negligible the term.
//!
//! [`conv_cell`] splits the cell into three data-parallel passes over a
//! scratch buffer ([`CellScratch`]):
//!
//! 1. **Add** — copy `b(0..=n)` reversed into `brev` so the sum is a pure
//!    elementwise `t[j] = a[j] + brev[j]` sweep (unit stride, FMA-able).
//! 2. **Max** — per-[`CHUNK`] block maxima with a 4-lane manually unrolled
//!    reduction (stable Rust, no `std::simd`, no `unsafe`), folded into
//!    the global maximum `m`. `−∞` needs no per-element branch: it simply
//!    never wins a `max`. NaN *would* be silently dropped by `f64::max`,
//!    so each block also keeps a running sum — any NaN summand poisons it
//!    — and a NaN block sum marks the block maximum NaN (see pass 3).
//! 3. **Exp + accumulate** — `acc += Σ exp(t[j] − m)`, 4-lane unrolled,
//!    visiting **only** blocks whose maximum reaches `m + `[`CUT`]. A
//!    skipped block contributes at most `CHUNK · e^CUT ≈ 1.8e-19` to an
//!    accumulator that is ≥ 1 (the maximum term itself is `e^0`), i.e.
//!    under `0.002 ulp` per block and under `eps/2` total for any `n ≤
//!    100 000 — far beyond any population this suite sweeps. Because
//!    log-domain convolution columns of queueing networks are sharply
//!    peaked (log-concave in `j`), most blocks prune, and with them the
//!    libm `exp` calls that dominate the scalar cell's runtime. A NaN
//!    block maximum fails `max < cut` and is therefore *never* pruned, so
//!    NaN poison always reaches the accumulator. `exp(−∞ − m) = 0`, so
//!    `−∞` entries inside kept blocks need no branch either.
//!
//! ## Equivalence contract (property-tested against [`scalar_reference`])
//!
//! * All-`−∞` rows: bit-exact (`−∞`), and NaN anywhere yields NaN.
//! * Adversarial dynamic ranges (operands spread over hundreds of nats,
//!   `−∞` holes): within **2 ulp** at the dominant-term scale
//!   `max(|result|, |m|, 1)` — both algorithms are then dominated by a few
//!   terms and compute them identically.
//! * Flat rows (thousands of same-magnitude terms): within
//!   `(2 + √len) ulp` at the same scale. The allowance is the *oracle's*
//!   own summation noise: two correct reductions of `len` rounded terms
//!   legitimately drift apart by `O(√len · eps)`, and no fixed small bound
//!   can separate them. The kernel's 4-lane partial sums make it the more
//!   accurate side of that comparison.
//!
//! The dominant-term scale (rather than `|result|` alone) is deliberate:
//! when `m` and `ln acc` cancel, neither algorithm resolves the result
//! below the rounding of `m` itself, so measuring ulps at `|result|`
//! would demand precision the inputs do not carry.

use mvasd_obsv as obsv;

/// Pruning threshold in nats below the global maximum: blocks whose
/// maximum is under `m + CUT` are skipped in the exp pass. `e^{−46} ≈
/// 1.05e-20`; see the module docs for the resulting error budget.
pub const CUT: f64 = -46.0;

/// Elements per pruning block in passes 2 and 3. A multiple of the 4-lane
/// unroll; small enough that peaked columns prune most blocks, large
/// enough that the per-block bookkeeping stays negligible.
pub const CHUNK: usize = 16;

/// `ceil(n / d)` without `usize::div_ceil`, which postdates the workspace
/// MSRV (1.70).
#[inline]
const fn ceil_div(n: usize, d: usize) -> usize {
    (n + d - 1) / d
}

/// Reusable scratch for [`conv_cell`]: the reversed-`b` copy, the
/// elementwise sums, and the per-block maxima. Growth happens only in
/// [`ensure`](Self::ensure); a warm scratch allocates nothing per cell.
/// Cloning snapshots capacity (the contents are per-call transients).
#[derive(Debug, Clone, Default)]
pub struct CellScratch {
    brev: Vec<f64>,
    t: Vec<f64>,
    block_max: Vec<f64>,
}

impl CellScratch {
    /// An empty scratch; it grows on first use (or [`ensure`](Self::ensure)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the buffers for cells up to `len` elements, so later
    /// [`conv_cell`] calls up to that size allocate nothing.
    pub fn ensure(&mut self, len: usize) {
        if self.t.len() < len {
            self.brev.resize(len, 0.0);
            self.t.resize(len, 0.0);
            self.block_max.resize(ceil_div(len, CHUNK), 0.0);
        }
    }
}

/// One log-domain convolution cell
/// `c(n) = ln Σ_{j=0..=n} exp(a(j) + b(n−j))`, batched: reversed-stride
/// add, blocked 4-lane max, pruned 4-lane exp-accumulate (see the module
/// docs). `−∞`-safe, NaN-poison-preserving, and equivalent to
/// [`scalar_reference`] under the documented ulp contract.
// lint: no-alloc
pub fn conv_cell(a: &[f64], b: &[f64], n: usize, scratch: &mut CellScratch) -> f64 {
    let len = n + 1;
    scratch.ensure(len);
    let _span = if obsv::enabled() {
        Some(obsv::span("kernel.lse.batch"))
    } else {
        None
    };

    // Pass 1: t[j] = a[j] + b[n−j] as a unit-stride sweep over a reversed
    // copy of b.
    let brev = &mut scratch.brev[..len];
    brev.copy_from_slice(&b[..len]);
    brev.reverse();
    let t = &mut scratch.t[..len];
    for ((dst, &x), &y) in t.iter_mut().zip(&a[..len]).zip(brev.iter()) {
        *dst = x + y;
    }

    // Pass 2: blocked maxima. `f64::max` ignores NaN, so the block sum —
    // which any NaN summand poisons — stands in as the detector: a NaN
    // block records a NaN maximum.
    let t = &scratch.t[..len];
    let blocks = ceil_div(len, CHUNK);
    let block_max = &mut scratch.block_max[..blocks];
    for (bm, block) in block_max.iter_mut().zip(t.chunks(CHUNK)) {
        let (mut m0, mut m1, mut m2, mut m3) = (
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        let mut s = 0.0;
        let mut quads = block.chunks_exact(4);
        // lint: log-domain-ok four-lane pruned accumulation, re-entered via acc.ln() below
        for quad in quads.by_ref() {
            if let &[x0, x1, x2, x3] = quad {
                m0 = m0.max(x0);
                m1 = m1.max(x1);
                m2 = m2.max(x2);
                m3 = m3.max(x3);
                s += (x0 + x1) + (x2 + x3);
            }
        }
        for &x in quads.remainder() {
            m0 = m0.max(x);
            s += x;
        }
        let mx = m0.max(m1).max(m2).max(m3);
        *bm = if s.is_nan() { s } else { mx };
    }
    let mut m = f64::NEG_INFINITY;
    let mut poisoned = false;
    for &bm in block_max.iter() {
        if bm.is_nan() {
            poisoned = true;
        } else {
            m = m.max(bm);
        }
    }
    if m == f64::NEG_INFINITY {
        // All-−∞ row (exact), unless a NaN block was hiding in it.
        return if poisoned {
            f64::NAN
        } else {
            f64::NEG_INFINITY
        };
    }

    // Pass 3: accumulate exp(t − m) over blocks that can matter. The
    // comparison is written as `bm < cut → skip` so a NaN block maximum
    // (which fails every `<`) is always visited and poisons `acc`.
    let cut = m + CUT;
    let mut acc = 0.0;
    for (&bm, block) in block_max.iter().zip(t.chunks(CHUNK)) {
        if bm < cut {
            continue;
        }
        let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
        let mut quads = block.chunks_exact(4);
        // lint: log-domain-ok four-lane pruned accumulation, re-entered via acc.ln() below
        for quad in quads.by_ref() {
            if let &[x0, x1, x2, x3] = quad {
                a0 += (x0 - m).exp();
                a1 += (x1 - m).exp();
                a2 += (x2 - m).exp();
                a3 += (x3 - m).exp();
            }
        }
        let mut rest = 0.0;
        // lint: log-domain-ok pruned remainder lane, re-entered via acc.ln() below
        for &x in quads.remainder() {
            rest += (x - m).exp();
        }
        acc += ((a0 + a1) + (a2 + a3)) + rest;
    }
    m + acc.ln()
}

/// The original single-pass running-maximum cell, kept verbatim as the
/// equivalence oracle for [`conv_cell`] (and as the bench baseline): a
/// running maximum rescales the partial sum whenever a new peak appears,
/// so each operand pair is read exactly once — and every finite element
/// costs one serial libm `exp` call.
// lint: no-alloc
#[inline]
pub fn scalar_reference(a: &[f64], b: &[f64], n: usize) -> f64 {
    let mut m = f64::NEG_INFINITY;
    let mut acc = 0.0;
    for j in 0..=n {
        let t = a[j] + b[n - j];
        if t == f64::NEG_INFINITY {
            continue;
        }
        if t <= m {
            acc += (t - m).exp();
        } else {
            // First finite term lands here: 0 · e^{−∞} + 1 = 1.
            acc = acc * (m - t).exp() + 1.0;
            m = t;
        }
    }
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + acc.ln()
}

/// Log-sum-exp of two log-domain values, `−∞`-safe and subtraction-free
/// in the linear domain: `hi + ln(1 + exp(lo − hi))`. The `−∞` handling
/// is folded into the `(hi, lo)` select: after it, `hi = −∞` means both
/// operands are `−∞` (result `a + b = −∞`, or NaN if one was NaN —
/// poison preserved), and `lo = −∞` alone telescopes to `hi`.
// lint: no-alloc
#[inline]
pub fn lse2(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if hi == f64::NEG_INFINITY {
        return a + b;
    }
    if lo == f64::NEG_INFINITY {
        return hi;
    }
    hi + (lo - hi).exp().ln_1p()
}

/// The multiclass slab fill for one class: residence times
/// `res[k] = dq[k] · (1 + q_prev[k]) + dd[k]` (arrival theorem over the
/// neighbor point's queues), returning their sequential sum. Extracted
/// from the multiclass workspace token-for-token — operation order and
/// the left-to-right sum are bit-identical to the scratch oracle's, which
/// the multiclass bitwise suites lock in place.
// lint: no-alloc
#[inline]
pub fn residence_fill(dq: &[f64], dd: &[f64], q_prev: &[f64], res: &mut [f64]) -> f64 {
    let mut r_c = 0.0;
    for (((r, &dqk), &ddk), &qk) in res.iter_mut().zip(dq).zip(dd).zip(q_prev) {
        let v = dqk * (1.0 + qk) + ddk;
        *r = v;
        r_c += v;
    }
    r_c
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvasd_numerics::propcheck::{check, Config, Gen};

    /// The dominant-term scale the equivalence contract measures ulps at.
    fn dominant_scale(result: f64, m: f64) -> f64 {
        result.abs().max(m.abs()).max(1.0)
    }

    /// Exact max of the cell's summands, computed with the same pairwise
    /// adds the kernel uses.
    fn true_max(a: &[f64], b: &[f64], n: usize) -> f64 {
        let mut m = f64::NEG_INFINITY;
        for j in 0..=n {
            let t = a[j] + b[n - j];
            if !t.is_nan() {
                m = m.max(t);
            }
        }
        m
    }

    fn assert_within_ulps(a: &[f64], b: &[f64], n: usize, ulps: f64, label: &str) {
        let mut scratch = CellScratch::new();
        let batched = conv_cell(a, b, n, &mut scratch);
        let scalar = scalar_reference(a, b, n);
        if scalar == f64::NEG_INFINITY {
            assert_eq!(batched.to_bits(), scalar.to_bits(), "{label}: all-−∞ row");
            return;
        }
        let scale = dominant_scale(scalar, true_max(a, b, n));
        let tol = ulps * scale * f64::EPSILON;
        assert!(
            (batched - scalar).abs() <= tol,
            "{label}: batched {batched:?} vs scalar {scalar:?} \
             (diff {:.3e}, tol {tol:.3e}, n={n})",
            (batched - scalar).abs()
        );
    }

    #[test]
    fn lse2_handles_neg_infinity_and_denormals() {
        assert_eq!(
            lse2(f64::NEG_INFINITY, f64::NEG_INFINITY),
            f64::NEG_INFINITY
        );
        assert_eq!(lse2(3.5, f64::NEG_INFINITY), 3.5);
        assert_eq!(lse2(f64::NEG_INFINITY, -2.25), -2.25);
        // Equal operands: hi + ln_1p(exp(0)) = hi + ln 2, exactly as the
        // unfolded version gave.
        assert_eq!(lse2(1.0, 1.0), 1.0 + 1.0f64.ln_1p());
        // Denormal inputs stay finite and ordered sensibly.
        let tiny = f64::from_bits(1); // smallest positive subnormal
        let v = lse2(tiny, 0.0);
        assert!((v - std::f64::consts::LN_2).abs() < 1e-15, "{v}");
        assert_eq!(lse2(tiny, f64::NEG_INFINITY), tiny);
        // One operand far below the other telescopes to the larger.
        assert_eq!(lse2(0.0, -800.0), 0.0);
        // NaN poison propagates through every branch.
        assert!(lse2(f64::NAN, 1.0).is_nan());
        assert!(lse2(1.0, f64::NAN).is_nan());
        assert!(lse2(f64::NAN, f64::NEG_INFINITY).is_nan());
        assert!(lse2(f64::NEG_INFINITY, f64::NAN).is_nan());
    }

    #[test]
    fn all_neg_infinity_rows_are_exact() {
        let a = vec![f64::NEG_INFINITY; 100];
        let b = vec![f64::NEG_INFINITY; 100];
        let mut scratch = CellScratch::new();
        for n in [0usize, 1, 3, 15, 16, 17, 63, 99] {
            let v = conv_cell(&a, &b, n, &mut scratch);
            assert_eq!(v.to_bits(), f64::NEG_INFINITY.to_bits(), "n={n}");
            assert_eq!(scalar_reference(&a, &b, n).to_bits(), v.to_bits());
        }
    }

    /// NaN must survive even when it lands in a block the pruning pass
    /// would otherwise skip, and when the rest of the row is all −∞.
    #[test]
    fn nan_poison_is_never_pruned_away() {
        let n = 200usize;
        // Steep ramp: only the last few blocks survive pruning.
        let mut a: Vec<f64> = (0..=n).map(|j| j as f64 * 5.0).collect();
        let b = vec![0.0; n + 1];
        let mut scratch = CellScratch::new();
        assert!(conv_cell(&a, &b, n, &mut scratch).is_finite());
        a[3] = f64::NAN; // deep inside the pruned region
        assert!(conv_cell(&a, &b, n, &mut scratch).is_nan());
        assert!(scalar_reference(&a, &b, n).is_nan());
        // NaN among otherwise all-−∞ entries.
        let mut c = vec![f64::NEG_INFINITY; 64];
        c[40] = f64::NAN;
        let d = vec![f64::NEG_INFINITY; 64];
        assert!(conv_cell(&c, &d, 63, &mut scratch).is_nan());
    }

    /// Adversarial dynamic ranges: operands spread over hundreds of nats
    /// with −∞ holes. The sum is dominated by a handful of terms, and the
    /// kernel must match the oracle to 2 ulp at the dominant-term scale.
    #[test]
    fn propcheck_matches_scalar_on_wide_dynamic_ranges() {
        check(
            "kernel_wide_dynamic_ranges",
            &Config::default().cases(64),
            |g: &mut Gen| {
                let n = g.usize_in(0, 400);
                let hole_pct = g.usize_in(0, 60);
                let gen_row = |g: &mut Gen| -> Vec<f64> {
                    (0..=n)
                        .map(|_| {
                            if g.usize_in(0, 99) < hole_pct {
                                f64::NEG_INFINITY
                            } else {
                                g.f64_in(-700.0, 700.0)
                            }
                        })
                        .collect()
                };
                let a = gen_row(g);
                let b = gen_row(g);
                assert_within_ulps(&a, &b, n, 2.0, "wide");
            },
        );
    }

    /// Flat and gently-sloped rows: thousands of comparable terms. Both
    /// reductions carry O(√len · eps) summation noise, so the equivalence
    /// allowance is (2 + √len) ulp — the oracle's own drift, not the
    /// kernel's (see the module docs).
    #[test]
    fn propcheck_matches_scalar_on_flat_and_ramped_rows() {
        check(
            "kernel_flat_and_ramped_rows",
            &Config::default().cases(48),
            |g: &mut Gen| {
                let n = g.usize_in(1, 1500);
                let base = g.f64_in(-50.0, 50.0);
                let spread = g.f64_in(0.0, 2.0);
                let slope = g.f64_in(-0.5, 0.5);
                let a: Vec<f64> = (0..=n)
                    .map(|j| base + slope * j as f64 + g.f64_in(0.0, spread))
                    .collect();
                let b: Vec<f64> = (0..=n).map(|_| g.f64_in(0.0, spread)).collect();
                let ulps = 2.0 + ((n + 1) as f64).sqrt();
                assert_within_ulps(&a, &b, n, ulps, "flat");
            },
        );
    }

    /// Sharply peaked columns (the realistic shape): pruning engages and
    /// the result still matches to 2 ulp, because the pruned tail is below
    /// the accumulator's last bit by construction.
    #[test]
    fn pruned_peaked_rows_match_to_2_ulp() {
        for n in [100usize, 500, 1500] {
            for slope in [0.5f64, 2.0, 7.0] {
                let a: Vec<f64> = (0..=n).map(|j| -(j as f64) * slope).collect();
                let b: Vec<f64> = (0..=n).map(|j| -(j as f64) * 0.9 * slope).collect();
                assert_within_ulps(&a, &b, n, 2.0, "peaked");
            }
        }
    }

    #[test]
    fn residence_fill_is_bit_identical_to_the_inline_loop() {
        let k = 7usize;
        let dq: Vec<f64> = (0..k).map(|i| 0.013 * (i as f64 + 1.0)).collect();
        let dd: Vec<f64> = (0..k).map(|i| 0.002 * (i as f64)).collect();
        let q_prev: Vec<f64> = (0..k).map(|i| 1.7 / (i as f64 + 1.0)).collect();
        let mut res = vec![0.0; k];
        let sum = residence_fill(&dq, &dd, &q_prev, &mut res);
        let mut want = vec![0.0; k];
        let mut want_sum = 0.0;
        for i in 0..k {
            let r = dq[i] * (1.0 + q_prev[i]) + dd[i];
            want[i] = r;
            want_sum += r;
        }
        assert_eq!(sum.to_bits(), want_sum.to_bits());
        for i in 0..k {
            assert_eq!(res[i].to_bits(), want[i].to_bits());
        }
    }

    /// A warm scratch serves any smaller cell without touching capacity.
    #[test]
    fn scratch_reuse_across_cell_sizes() {
        let a: Vec<f64> = (0..=300).map(|j| -(j as f64) * 0.1).collect();
        let b: Vec<f64> = (0..=300).map(|j| -(j as f64) * 0.2).collect();
        let mut scratch = CellScratch::new();
        scratch.ensure(301);
        let full = conv_cell(&a, &b, 300, &mut scratch);
        for n in [0usize, 1, 15, 16, 300] {
            let v = conv_cell(&a, &b, n, &mut scratch);
            assert!(v.is_finite(), "n={n}");
            assert_eq!(scalar_reference(&a, &b, n).is_finite(), v.is_finite());
        }
        // Re-running the big cell after small ones is unaffected by stale
        // scratch contents.
        assert_eq!(
            conv_cell(&a, &b, 300, &mut scratch).to_bits(),
            full.to_bits()
        );
    }
}
