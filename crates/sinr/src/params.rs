//! SINR model parameters and the paper's derived radii and thresholds.
//!
//! The physical model (paper §2, Eq. 1): a transmission from `u` is decoded
//! at `v` iff `SINR(u,v) = (P/d(u,v)^α) / (N + Σ_w P/d(w,v)^α) ≥ β`, with
//! path-loss exponent `α > 2`, ambient noise `N`, threshold `β ≥ 1`, and
//! uniform transmit power `P`.
//!
//! Everything the algorithms need is derived here:
//! * transmission range `R_T = (P/(βN))^{1/α}`;
//! * graph radius `R_ε = (1 − ε)·R_T` and generally `R_c = (1 − c)·R_T`;
//! * Lemma 2 separation constant `t = ((α−2)/(48β(α−1)))^{1/α}`;
//! * cluster radius `r_c = min{ t/(2t+2) · R_{ε/2}, ε·R_T/4 }` (§5.1.1);
//! * clear-reception interference threshold
//!   `T_s = N · min{(2^α − 1)/2^α, (1/2)^α · β}` (Definition 4).

use std::fmt;

/// How per-channel reception is resolved by the batched resolver
/// (`ChannelResolver`) and everything routed through it.
///
/// * [`ResolveMode::Exact`] (the default) computes every
///   transmitter–listener power term and sums in transmitter order — the
///   outcome is bit-for-bit identical to the scalar reference
///   `resolve_listener`, so enabling the batched path cannot change any
///   simulation result.
/// * [`ResolveMode::Fast`] sums the near field (every transmitter within
///   the cutoff radius `R_c = cutoff_factor · R_T`) exactly and aggregates
///   the far field at grid-cell granularity: one distance computation per
///   occupied cell instead of one per transmitter. The approximation is
///   error-bounded — the resolver reports, per listener, a rigorous bound
///   on the interference error (see `ChannelResolver::resolve_with_bound`),
///   and a decode decision can only differ from `Exact` when the SINR
///   margin is smaller than that bound. The bound is finite because the
///   path-loss exponent satisfies `α > 2` (Eq. 1), which makes the
///   far-field tail integral converge; see `mca_sinr::resolve_batch`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ResolveMode {
    /// Exact summation, bitwise-identical to the scalar reference.
    #[default]
    Exact,
    /// Grid-batched near/far split with an error-bounded far field.
    Fast {
        /// Near-field cutoff radius as a multiple of the transmission
        /// range `R_T`. Must be at least 1 so every decodable transmitter
        /// (necessarily within `R_T` of its listener) is resolved exactly.
        cutoff_factor: f64,
    },
}

impl ResolveMode {
    /// The [`ResolveMode::Fast`] mode with a default cutoff of `1.5·R_T`.
    pub fn fast() -> Self {
        ResolveMode::Fast { cutoff_factor: 1.5 }
    }
}

/// Ground-truth physical parameters used by the simulation engine.
///
/// # Examples
///
/// ```
/// use mca_sinr::SinrParams;
/// let p = SinrParams::default();
/// assert!(p.transmission_range() > 0.0);
/// assert!(p.r_cluster() < p.r_eps());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinrParams {
    /// Path-loss exponent `α > 2`.
    pub alpha: f64,
    /// SINR decoding threshold `β ≥ 1`.
    pub beta: f64,
    /// Ambient noise `N > 0`.
    pub noise: f64,
    /// Uniform transmission power `P > 0`.
    pub power: f64,
    /// Communication-graph margin `ε ∈ (0, 1)`: graph edges span `R_ε`.
    pub eps: f64,
    /// Near-field clamp: received power saturates below this distance
    /// (prevents singularities when two nodes are (nearly) co-located).
    pub min_dist: f64,
    /// How the engine resolves per-channel reception (see [`ResolveMode`]).
    pub resolve: ResolveMode,
}

impl Default for SinrParams {
    /// `α = 3`, `β = 1.5`, `N = 1`, `ε = 0.5`, and `P` chosen so that
    /// `R_T = 8` distance units.
    fn default() -> Self {
        SinrParams::with_range(3.0, 1.5, 1.0, 8.0, 0.5)
    }
}

impl SinrParams {
    /// Creates parameters from explicit values.
    ///
    /// # Panics
    ///
    /// Panics unless `α > 2`, `β ≥ 1`, `N > 0`, `P > 0`, `0 < ε < 1` (and,
    /// for the default near-field clamp, [`SinrParams::peak_power`] is
    /// finite).
    pub fn new(alpha: f64, beta: f64, noise: f64, power: f64, eps: f64) -> Self {
        let p = SinrParams {
            alpha,
            beta,
            noise,
            power,
            eps,
            min_dist: 1e-6,
            resolve: ResolveMode::Exact,
        };
        p.validate();
        p
    }

    /// Returns a copy with the given [`ResolveMode`] (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if a [`ResolveMode::Fast`] cutoff factor is not finite or is
    /// below 1 — or if a field edited since construction breaks its own
    /// rule (every check of [`SinrParams::new`] runs again, so a `min_dist`
    /// too small for a finite [`SinrParams::peak_power`] stops here).
    pub fn with_resolve(mut self, resolve: ResolveMode) -> Self {
        self.resolve = resolve;
        self.validate();
        self
    }

    /// Creates parameters with `P` back-solved so the transmission range is
    /// exactly `range`: `P = β·N·range^α`.
    pub fn with_range(alpha: f64, beta: f64, noise: f64, range: f64, eps: f64) -> Self {
        assert!(range > 0.0, "range must be positive");
        SinrParams::new(alpha, beta, noise, beta * noise * range.powf(alpha), eps)
    }

    fn validate(&self) {
        assert!(self.alpha > 2.0, "alpha must exceed 2, got {}", self.alpha);
        assert!(
            self.beta >= 1.0,
            "beta must be at least 1, got {}",
            self.beta
        );
        assert!(self.noise > 0.0, "noise must be positive");
        assert!(self.power > 0.0, "power must be positive");
        assert!(
            self.eps > 0.0 && self.eps < 1.0,
            "eps must lie in (0,1), got {}",
            self.eps
        );
        assert!(
            self.min_dist > 0.0 && self.peak_power().is_finite(),
            "clamped peak power `P/min_dist^α` must be finite, got {} at min_dist {}",
            self.peak_power(),
            self.min_dist
        );
        if let ResolveMode::Fast { cutoff_factor } = self.resolve {
            assert!(
                cutoff_factor.is_finite() && cutoff_factor >= 1.0,
                "Fast cutoff_factor must be finite and at least 1, got {cutoff_factor}"
            );
        }
    }

    /// The largest power any evaluation can return: `P/min_dist^α`, what a
    /// listener reads from a transmitter at (or inside) the near-field
    /// clamp — computed by the kernel itself, so it is the value a
    /// coincident pair really produces. It must be finite: a clamp so
    /// small that `min_dist^α` underflows turns that reading into `+∞`,
    /// the listener's SINR into `∞/∞`, and the lane kernels' `pw · 0.0`
    /// mask into NaN.
    pub fn peak_power(&self) -> f64 {
        self.received_power_sq(0.0)
    }

    /// Transmission range `R_T = (P/(β·N))^{1/α}` — the maximum distance at
    /// which a transmission can be decoded in the absence of interference.
    pub fn transmission_range(&self) -> f64 {
        (self.power / (self.beta * self.noise)).powf(1.0 / self.alpha)
    }

    /// `R_c = (1 − c)·R_T` for `0 < c < 1` (paper notation `R_c`).
    pub fn r_scaled(&self, c: f64) -> f64 {
        assert!((0.0..1.0).contains(&c), "c must lie in [0,1), got {c}");
        (1.0 - c) * self.transmission_range()
    }

    /// Communication-graph radius `R_ε = (1 − ε)·R_T`.
    pub fn r_eps(&self) -> f64 {
        self.r_scaled(self.eps)
    }

    /// `R_{ε/2} = (1 − ε/2)·R_T`, the cluster-coloring separation radius.
    pub fn r_eps_half(&self) -> f64 {
        self.r_scaled(self.eps / 2.0)
    }

    /// Lemma 2 constant `t = ((α−2) / (48·β·(α−1)))^{1/α}`: transmitters
    /// mutually separated by `r₁` are decoded by all listeners within
    /// `t·r₁` (capped at `R_T/2`).
    pub fn lemma2_t(&self) -> f64 {
        ((self.alpha - 2.0) / (48.0 * self.beta * (self.alpha - 1.0))).powf(1.0 / self.alpha)
    }

    /// Cluster radius `r_c = min{ t/(2t+2) · R_{ε/2}, ε·R_T/4 }` (§5.1.1).
    pub fn r_cluster(&self) -> f64 {
        let t = self.lemma2_t();
        (t / (2.0 * t + 2.0) * self.r_eps_half()).min(self.eps * self.transmission_range() / 4.0)
    }

    /// Clear-reception interference threshold
    /// `T_s = N · min{(2^α − 1)/2^α, (1/2)^α · β}` (Definition 4).
    ///
    /// This fixed value is calibrated for the largest radius the ruling set
    /// admits (`r = R_T/2`); see [`SinrParams::clear_threshold_for`] for the
    /// radius-dependent generalization the implementation uses.
    pub fn clear_threshold(&self) -> f64 {
        let a = (2f64.powf(self.alpha) - 1.0) / 2f64.powf(self.alpha);
        let b = 0.5f64.powf(self.alpha) * self.beta;
        self.noise * a.min(b)
    }

    /// Radius-dependent clear-reception threshold
    /// `T_s(r) = min{ P/(β·r^α) − N,  P/(4r)^α }`.
    ///
    /// The two terms are exactly Definition 4's two goals, re-derived for a
    /// general radius `r`: interference at most the first term keeps a
    /// sender at distance `r` decodable; at most the second certifies that
    /// no other node within `4r` transmitted. At `r = R_T/2` the second term
    /// equals the paper's `(1/2)^α·β·N`; for the small radii used inside
    /// clusters the paper's fixed `T_s` is needlessly strict by a factor of
    /// `(R_T/2r)^α`, which would stall elections (DESIGN.md deviation #8).
    ///
    /// Returns 0 when `r ≥ R_T` (no interference level makes distance-`r`
    /// reception clear).
    pub fn clear_threshold_for(&self, r: f64) -> f64 {
        assert!(r > 0.0, "radius must be positive");
        let decode = self.power / (self.beta * r.powf(self.alpha)) - self.noise;
        let exclude = self.power / (4.0 * r).powf(self.alpha);
        decode.min(exclude).max(0.0)
    }

    /// Received power `P/d^α` at distance `d` (clamped at `min_dist`).
    #[inline]
    pub fn received_power(&self, d: f64) -> f64 {
        self.received_power_sq(d * d)
    }

    /// Received power from the *squared* distance: `P/(d²)^{α/2}` with the
    /// near-field clamp applied to `d²`.
    ///
    /// This is the canonical hot kernel: both the scalar reference
    /// (`resolve_listener`) and the batched `ChannelResolver` call it on
    /// `Point::dist_sq`, skipping the square root of `Point::dist` and
    /// using multiply-only fast paths for the integer path-loss exponents
    /// used in practice (a ~5× cheaper inner loop than `powf` for the
    /// default `α = 3`). The fast-path dispatch itself lives in one place
    /// — [`PowerKernel`] — shared by this function, the batched resolver,
    /// and the SIMD lane kernels ([`crate::lanes`]), so every resolution
    /// path is bit-for-bit identical by construction.
    #[inline]
    pub fn received_power_sq(&self, d_sq: f64) -> f64 {
        self.power_kernel().eval(d_sq)
    }

    /// The precomputed received-power kernel for these parameters: `P`,
    /// the squared near-field clamp, and the α fast path resolved once
    /// (instead of once per power evaluation). [`PowerKernel::eval`] is
    /// bitwise [`SinrParams::received_power_sq`]; batch resolvers hoist
    /// the kernel out of their per-transmitter loops.
    #[inline]
    pub fn power_kernel(&self) -> PowerKernel {
        PowerKernel {
            power: self.power,
            min_d_sq: self.min_dist * self.min_dist,
            alpha: if self.alpha == 3.0 {
                AlphaPath::Cubic
            } else if self.alpha == 4.0 {
                AlphaPath::Quartic
            } else if self.alpha == 5.0 {
                AlphaPath::Quintic
            } else if self.alpha == 6.0 {
                AlphaPath::Sextic
            } else {
                AlphaPath::General {
                    half_alpha: self.alpha / 2.0,
                }
            },
        }
    }

    /// Inverts [`SinrParams::received_power`]: the distance at which a
    /// transmitter would produce `signal` — the RSSI-based distance estimate
    /// available to listeners (paper §2, "Knowledge of Nodes").
    pub fn distance_from_power(&self, signal: f64) -> f64 {
        assert!(signal > 0.0, "signal must be positive");
        (self.power / signal).powf(1.0 / self.alpha)
    }

    /// SINR of a signal of strength `signal` against interference `interf`
    /// (sum of other received powers) plus ambient noise.
    pub fn sinr(&self, signal: f64, interf: f64) -> f64 {
        signal / (self.noise + interf)
    }

    /// Whether a signal decodes: `sinr(signal, interf) ≥ β`.
    pub fn decodes(&self, signal: f64, interf: f64) -> bool {
        self.sinr(signal, interf) >= self.beta
    }

    /// Whether `β ≥ 2^{1/α}`, the condition under which the exponential
    /// chain admits at most one successful transmission per slot
    /// (Moscibroda–Wattenhofer; paper §1 "Lower Bounds").
    pub fn chain_lower_bound_applies(&self) -> bool {
        self.beta >= 2f64.powf(1.0 / self.alpha)
    }
}

impl fmt::Display for SinrParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SINR(α={}, β={}, N={}, P={:.3}, ε={}, R_T={:.3})",
            self.alpha,
            self.beta,
            self.noise,
            self.power,
            self.eps,
            self.transmission_range()
        )
    }
}

/// Which specialization of `d^α`-from-`d²` a [`PowerKernel`] runs: the
/// multiply-only fast paths for the small integer exponents (even `α`
/// needs no square root at all), or the general `powf` form.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AlphaPath {
    /// `α = 3`: `d² · √d²`.
    Cubic,
    /// `α = 4`: `d² · d²`.
    Quartic,
    /// `α = 5`: `(d² · d²) · √d²`.
    Quintic,
    /// `α = 6`: `(d² · d²) · d²`.
    Sextic,
    /// Any other `α`: `(d²)^{α/2}` via `powf`.
    General {
        /// Precomputed `α/2`.
        half_alpha: f64,
    },
}

/// The received-power kernel `d² ↦ P/(d²)^{α/2}` with its α fast path
/// resolved ahead of time — the **single source of truth** for the
/// integer-α branches. [`SinrParams::received_power_sq`] delegates here,
/// the batched resolver hoists one kernel out of its per-transmitter
/// loops, and the lane kernels in [`crate::lanes`] evaluate it
/// [`LANE_WIDTH`](crate::lanes::LANE_WIDTH) elements at a time — all
/// computing the exact same sequence of IEEE operations per element, so
/// every path is bit-for-bit identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerKernel {
    /// Transmit power `P` (the numerator).
    power: f64,
    /// Squared near-field clamp `min_dist²`, applied to `d²` first.
    min_d_sq: f64,
    /// The specialized denominator.
    alpha: AlphaPath,
}

impl PowerKernel {
    /// Received power from the squared distance — bitwise
    /// [`SinrParams::received_power_sq`] of the parameters this kernel
    /// was derived from.
    #[inline]
    pub fn eval(&self, d_sq: f64) -> f64 {
        let d_sq = d_sq.max(self.min_d_sq);
        let denom = match self.alpha {
            AlphaPath::Cubic => d_sq * d_sq.sqrt(),
            AlphaPath::Quartic => d_sq * d_sq,
            AlphaPath::Quintic => (d_sq * d_sq) * d_sq.sqrt(),
            AlphaPath::Sextic => (d_sq * d_sq) * d_sq,
            AlphaPath::General { half_alpha } => d_sq.powf(half_alpha),
        };
        self.power / denom
    }

    /// [`PowerKernel::eval`] over an array of squared distances, with the
    /// α dispatch hoisted out of the element loop so the integer-α arms
    /// compile to straight-line max/sqrt/mul/div lane code the
    /// autovectorizer turns into packed `f64` SIMD. Element `j` of the
    /// result is bitwise `eval(d_sq[j])`: the max-clamp, square roots,
    /// multiplies, and the divide are exactly-rounded IEEE operations at
    /// any vector width, and the `powf` arm calls the same scalar libm
    /// routine per lane.
    ///
    /// `inline(always)`: this is the innermost arithmetic of every lane
    /// kernel — left as a call, the ABI boundary spills the caller's
    /// vector state to the stack per element and caps the whole batch
    /// walk at scalar/128-bit code (measured, not hypothetical).
    #[inline(always)]
    pub fn eval_lanes<const L: usize>(&self, d_sq: [f64; L]) -> [f64; L] {
        let mut c = d_sq;
        for v in &mut c {
            *v = v.max(self.min_d_sq);
        }
        let mut out = [0.0f64; L];
        match self.alpha {
            AlphaPath::Cubic => {
                for j in 0..L {
                    out[j] = self.power / (c[j] * c[j].sqrt());
                }
            }
            AlphaPath::Quartic => {
                for j in 0..L {
                    out[j] = self.power / (c[j] * c[j]);
                }
            }
            AlphaPath::Quintic => {
                for j in 0..L {
                    out[j] = self.power / ((c[j] * c[j]) * c[j].sqrt());
                }
            }
            AlphaPath::Sextic => {
                for j in 0..L {
                    out[j] = self.power / ((c[j] * c[j]) * c[j]);
                }
            }
            AlphaPath::General { half_alpha } => {
                for j in 0..L {
                    out[j] = self.power / c[j].powf(half_alpha);
                }
            }
        }
        out
    }

    /// Whether this kernel runs a multiply-only integer-α fast path (the
    /// lane arms that vectorize end to end).
    pub fn is_integer_fast_path(&self) -> bool {
        !matches!(self.alpha, AlphaPath::General { .. })
    }
}

/// An inclusive `[min, max]` interval of a physical parameter.
///
/// Nodes do not know `α`, `β`, `N` exactly — only ranges (paper §2,
/// "Knowledge of Nodes"). Conservative algorithm constants pick whichever
/// end of the interval is safe for the computation at hand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamInterval {
    /// Lower bound.
    pub min: f64,
    /// Upper bound.
    pub max: f64,
}

impl ParamInterval {
    /// An interval; panics if `min > max`.
    pub fn new(min: f64, max: f64) -> Self {
        assert!(min <= max, "interval min {min} exceeds max {max}");
        ParamInterval { min, max }
    }

    /// The degenerate interval `[v, v]`.
    pub fn exact(v: f64) -> Self {
        ParamInterval { min: v, max: v }
    }

    /// Whether `v` lies in the interval.
    pub fn contains(&self, v: f64) -> bool {
        v >= self.min && v <= self.max
    }
}

/// What a *node* knows about the physical layer: parameter intervals plus a
/// polynomial estimate of `n`.
///
/// `conservative()` produces a [`SinrParams`] whose derived radii are *safe*:
/// its transmission range lower-bounds the true one, so ranges computed from
/// it never overshoot (`α`, `β`, `N` at their maxima).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeKnowledge {
    /// Known range of the path-loss exponent.
    pub alpha: ParamInterval,
    /// Known range of the decoding threshold.
    pub beta: ParamInterval,
    /// Known range of the ambient noise.
    pub noise: ParamInterval,
    /// The (known) uniform power.
    pub power: f64,
    /// The (known) graph margin ε.
    pub eps: f64,
    /// Polynomial upper bound on the node count (`n̂ ≥ n`).
    pub n_bound: usize,
}

impl NodeKnowledge {
    /// Exact knowledge of `params`, with node-count bound `n_bound`.
    pub fn exact(params: &SinrParams, n_bound: usize) -> Self {
        NodeKnowledge {
            alpha: ParamInterval::exact(params.alpha),
            beta: ParamInterval::exact(params.beta),
            noise: ParamInterval::exact(params.noise),
            power: params.power,
            eps: params.eps,
            n_bound,
        }
    }

    /// Widens each interval by the multiplicative `slack ≥ 1` (min divided,
    /// max multiplied), modeling calibration error.
    pub fn with_slack(params: &SinrParams, n_bound: usize, slack: f64) -> Self {
        assert!(slack >= 1.0, "slack must be at least 1");
        NodeKnowledge {
            alpha: ParamInterval::new((params.alpha / slack).max(2.0 + 1e-9), params.alpha * slack),
            beta: ParamInterval::new((params.beta / slack).max(1.0), params.beta * slack),
            noise: ParamInterval::new(params.noise / slack, params.noise * slack),
            power: params.power,
            eps: params.eps,
            n_bound,
        }
    }

    /// A safe parameter set: the derived transmission range lower-bounds the
    /// true one, and the clear-reception threshold lower-bounds the true one,
    /// so clear receptions inferred by nodes are genuine.
    pub fn conservative(&self) -> SinrParams {
        SinrParams::new(
            self.alpha.max,
            self.beta.max,
            self.noise.max,
            self.power,
            self.eps,
        )
    }

    /// `ln n̂` — the factor all round counts scale with.
    pub fn ln_n(&self) -> f64 {
        (self.n_bound.max(2) as f64).ln()
    }

    /// `log₂ n̂`, rounded up, at least 1.
    pub fn log2_n(&self) -> usize {
        (usize::BITS - (self.n_bound.max(2) - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_params_are_valid() {
        let p = SinrParams::default();
        assert!((p.transmission_range() - 8.0).abs() < 1e-9);
        assert!(p.alpha > 2.0 && p.beta >= 1.0);
    }

    #[test]
    fn with_range_roundtrips() {
        let p = SinrParams::with_range(2.5, 2.0, 0.5, 10.0, 0.25);
        assert!((p.transmission_range() - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 2")]
    fn alpha_at_most_two_rejected() {
        SinrParams::new(2.0, 1.5, 1.0, 100.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "beta must be at least 1")]
    fn beta_below_one_rejected() {
        SinrParams::new(3.0, 0.9, 1.0, 100.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "eps must lie in (0,1)")]
    fn eps_out_of_range_rejected() {
        SinrParams::new(3.0, 1.5, 1.0, 100.0, 1.0);
    }

    #[test]
    fn radii_ordering() {
        // r_c < R_eps < R_{eps/2} < R_T, as the construction requires.
        let p = SinrParams::default();
        assert!(p.r_cluster() < p.r_eps());
        assert!(p.r_eps() < p.r_eps_half());
        assert!(p.r_eps_half() < p.transmission_range());
    }

    #[test]
    fn cluster_radius_satisfies_paper_caps() {
        let p = SinrParams::default();
        let t = p.lemma2_t();
        let rc = p.r_cluster();
        assert!(rc <= t / (2.0 * t + 2.0) * p.r_eps_half() + 1e-12);
        assert!(rc <= p.eps * p.transmission_range() / 4.0 + 1e-12);
    }

    #[test]
    fn decode_at_exact_range_without_interference() {
        let p = SinrParams::default();
        let rt = p.transmission_range();
        let sig = p.received_power(rt);
        assert!(p.decodes(sig, 0.0));
        let sig_far = p.received_power(rt * 1.01);
        assert!(!p.decodes(sig_far, 0.0));
    }

    #[test]
    fn clear_threshold_matches_definition_4() {
        let p = SinrParams::new(3.0, 1.5, 2.0, 1000.0, 0.5);
        let a = (2f64.powi(3) - 1.0) / 8.0; // (2^3-1)/2^3 = 7/8
        let b = 0.125 * 1.5; // (1/2)^3 * beta
        assert!((p.clear_threshold() - 2.0 * a.min(b)).abs() < 1e-12);
    }

    #[test]
    fn clear_threshold_for_matches_paper_at_half_range() {
        let p = SinrParams::default();
        let r = p.transmission_range() / 2.0;
        // Second term at r = R_T/2 equals the paper's (1/2)^α·β·N.
        let paper_term = p.noise * 0.5f64.powf(p.alpha) * p.beta;
        assert!((p.clear_threshold_for(r) - paper_term).abs() < 1e-9 * paper_term);
    }

    #[test]
    fn clear_threshold_for_shrinks_with_radius() {
        let p = SinrParams::default();
        let t1 = p.clear_threshold_for(1.0);
        let t2 = p.clear_threshold_for(2.0);
        assert!(t1 > t2, "smaller radii tolerate more interference");
        // At the transmission range, nothing is clear.
        assert_eq!(p.clear_threshold_for(p.transmission_range() * 1.01), 0.0);
    }

    #[test]
    fn clear_threshold_for_excludes_4r_transmitter() {
        let p = SinrParams::default();
        for r in [0.5, 1.0, 2.0, 3.0] {
            // A single transmitter strictly inside 4r exceeds the threshold.
            let inside = p.received_power(3.9 * r);
            assert!(inside > p.clear_threshold_for(r), "r themselves = {r}");
        }
    }

    #[test]
    fn distance_inference_inverts_power() {
        let p = SinrParams::default();
        for d in [0.5, 1.0, 3.0, 7.9] {
            let sig = p.received_power(d);
            assert!((p.distance_from_power(sig) - d).abs() < 1e-9);
        }
    }

    #[test]
    fn resolve_mode_default_and_builder() {
        let p = SinrParams::default();
        assert_eq!(p.resolve, ResolveMode::Exact);
        let f = p.with_resolve(ResolveMode::fast());
        assert!(matches!(f.resolve, ResolveMode::Fast { cutoff_factor } if cutoff_factor == 1.5));
    }

    #[test]
    #[should_panic(expected = "cutoff_factor")]
    fn fast_cutoff_below_one_rejected() {
        SinrParams::default().with_resolve(ResolveMode::Fast { cutoff_factor: 0.5 });
    }

    #[test]
    fn power_kernel_matches_powf_reference() {
        // The multiply-only integer-α fast paths must agree with the
        // direct P/d^α formula to rounding error.
        for alpha in [2.5, 3.0, 4.0, 5.0, 6.0] {
            let p = SinrParams::with_range(alpha, 1.5, 1.0, 8.0, 0.5);
            for d in [0.3, 1.0, 2.7, 7.99, 8.0, 31.0] {
                let got = p.received_power(d);
                let want = p.power / d.powf(alpha);
                assert!(
                    (got - want).abs() <= 1e-12 * want,
                    "α={alpha} d={d}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn power_sq_kernel_is_the_canonical_form() {
        let p = SinrParams::default();
        for d in [0.0, 0.5, 3.0, 8.0, 20.0] {
            assert_eq!(p.received_power(d), p.received_power_sq(d * d));
        }
    }

    #[test]
    fn power_kernel_lane_eval_is_bitwise_scalar_eval() {
        // Every α arm (integer fast paths and the powf fallback), lane
        // widths 4 and 8, including clamped (sub-min_dist) inputs.
        //
        // The inputs go through `black_box`: a `powf` on compile-time
        // constants is folded by the compiler's own `pow`, which is not
        // the runtime libm's to the last bit, and which calls get folded
        // depends on how the surrounding loop was vectorized (at the SSE2
        // baseline the lane side folded and the scalar side did not). The
        // contract is about the code production runs — nothing there is
        // a constant.
        use std::hint::black_box;
        for alpha in [2.5, 3.0, 3.7, 4.0, 5.0, 6.0] {
            let p = black_box(SinrParams::with_range(alpha, 1.5, 1.0, 8.0, 0.5));
            let k = p.power_kernel();
            assert_eq!(
                k.is_integer_fast_path(),
                alpha.fract() == 0.0 && alpha <= 6.0
            );
            let d = black_box([0.0, 1e-14, 0.25, 1.0, 7.3, 64.0, 144.0, 900.0]);
            let out8 = k.eval_lanes(d);
            for j in 0..8 {
                assert_eq!(out8[j].to_bits(), k.eval(d[j]).to_bits(), "α={alpha} j={j}");
                assert_eq!(
                    out8[j].to_bits(),
                    p.received_power_sq(d[j]).to_bits(),
                    "kernel diverged from received_power_sq at α={alpha}"
                );
            }
            let out4 = k.eval_lanes([d[0], d[3], d[5], d[7]]);
            for (j, &i) in [0usize, 3, 5, 7].iter().enumerate() {
                assert_eq!(out4[j].to_bits(), k.eval(d[i]).to_bits());
            }
        }
    }

    #[test]
    fn clamp_whose_peak_power_overflows_is_rejected() {
        let mut p = SinrParams::default();
        assert!(p.peak_power().is_finite());
        // Positive and finite, yet `min_dist² · min_dist` underflows to 0:
        // a coincident pair would read `P/0 = +∞`.
        p.min_dist = 1e-120;
        assert_eq!(p.peak_power(), f64::INFINITY);
        let rejected = std::panic::catch_unwind(|| p.with_resolve(ResolveMode::Exact));
        assert!(
            rejected.is_err(),
            "an infinite peak power must not validate"
        );
        p.min_dist = 0.0;
        assert!(std::panic::catch_unwind(|| p.with_resolve(ResolveMode::Exact)).is_err());
    }

    #[test]
    fn near_field_clamp() {
        let p = SinrParams::default();
        assert_eq!(p.received_power(0.0), p.received_power(p.min_dist));
        assert!(p.received_power(0.0).is_finite());
    }

    #[test]
    fn chain_condition() {
        // beta = 1.5 >= 2^(1/3) ≈ 1.26
        assert!(SinrParams::default().chain_lower_bound_applies());
        // beta = 1.0 < 2^(1/3)
        assert!(!SinrParams::new(3.0, 1.0, 1.0, 100.0, 0.5).chain_lower_bound_applies());
    }

    #[test]
    fn knowledge_conservative_underestimates_range() {
        let p = SinrParams::default();
        let k = NodeKnowledge::with_slack(&p, 1000, 1.2);
        let cons = k.conservative();
        assert!(cons.transmission_range() <= p.transmission_range() + 1e-9);
        assert!(k.alpha.contains(p.alpha));
        assert!(k.beta.contains(p.beta));
        assert!(k.noise.contains(p.noise));
    }

    #[test]
    fn knowledge_log_helpers() {
        let p = SinrParams::default();
        let k = NodeKnowledge::exact(&p, 1024);
        assert_eq!(k.log2_n(), 10);
        assert!((k.ln_n() - (1024f64).ln()).abs() < 1e-12);
        let k1 = NodeKnowledge::exact(&p, 1);
        assert!(k1.ln_n() > 0.0);
        assert!(k1.log2_n() >= 1);
    }

    #[test]
    #[should_panic(expected = "interval min")]
    fn inverted_interval_rejected() {
        ParamInterval::new(2.0, 1.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", SinrParams::default()).is_empty());
    }

    proptest! {
        #[test]
        fn sinr_monotone_in_interference(
            sig in 0.01..1e6f64,
            i1 in 0.0..1e6f64,
            extra in 0.0..1e6f64,
        ) {
            let p = SinrParams::default();
            // More interference never helps: decoding is monotone.
            prop_assert!(p.sinr(sig, i1) >= p.sinr(sig, i1 + extra));
            if p.decodes(sig, i1 + extra) {
                prop_assert!(p.decodes(sig, i1));
            }
        }

        #[test]
        fn received_power_monotone_in_distance(d1 in 0.01..100.0f64, d2 in 0.01..100.0f64) {
            let p = SinrParams::default();
            if d1 <= d2 {
                prop_assert!(p.received_power(d1) >= p.received_power(d2));
            }
        }

        #[test]
        fn range_solves_threshold(alpha in 2.1..6.0f64, beta in 1.0..4.0f64, noise in 0.1..10.0f64, rt in 0.5..50.0f64) {
            let p = SinrParams::with_range(alpha, beta, noise, rt, 0.5);
            let sig = p.received_power(rt);
            // At exactly R_T, SINR against noise alone equals beta.
            prop_assert!((p.sinr(sig, 0.0) - beta).abs() < 1e-6 * beta);
        }
    }
}
