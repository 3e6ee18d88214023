//! Student-t confidence intervals and the sequential stopping rule used by
//! the experiment runner (95 % CI, ≤ 2.5 % relative half-width, per §4.3 of
//! the paper).

use super::welford::Welford;
use serde::{Deserialize, Serialize};

/// Two-sided Student-t critical value `t_{1-alpha/2, df}`.
///
/// Computed from the inverse of the regularised incomplete beta function via
/// Newton iteration on the CDF, verified against the CDF, with a bracketed
/// bisection fallback for the cases Newton mishandles (the heavy tails at
/// df ≤ 2 under extreme `alpha`, where the heuristic `x *= 2` start can
/// land in a region of vanishing density and stall or overshoot).
/// Accurate to ~1e-8, far beyond what CI reporting needs.
pub fn t_critical(df: u64, alpha: f64) -> f64 {
    assert!(df >= 1, "degrees of freedom must be >= 1");
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
    let p = 1.0 - alpha / 2.0;
    // Start from the normal quantile; t is close for large df.
    let mut x = normal_quantile(p);
    if df <= 2 {
        x *= 2.0; // heavy tails need a further start
    }
    for _ in 0..60 {
        let f = t_cdf(x, df) - p;
        let fp = t_pdf(x, df);
        if fp.abs() < 1e-300 {
            break;
        }
        let step = f / fp;
        x -= step;
        if step.abs() < 1e-12 * (1.0 + x.abs()) {
            break;
        }
    }
    // Trust, but verify: Newton's answer must reproduce the target
    // probability. A non-finite iterate, a negative quantile (p ≥ 0.5 ⇒
    // t ≥ 0) or a stale residual all fall back to bisection.
    if !(x.is_finite() && x >= 0.0) || (t_cdf(x, df) - p).abs() > 1e-8 {
        x = t_quantile_bisect(p, df);
    }
    x
}

/// Monotone bisection for the upper-tail t quantile (`p >= 0.5`): brackets
/// the root by doubling, then halves the interval to convergence. Slower
/// than Newton but unconditionally convergent — the CDF is monotone.
fn t_quantile_bisect(p: f64, df: u64) -> f64 {
    debug_assert!((0.5..1.0).contains(&p));
    let mut lo = 0.0f64; // t_cdf(0) = 0.5 <= p
    let mut hi = 1.0f64;
    while t_cdf(hi, df) < p {
        lo = hi;
        hi *= 2.0;
        if hi > 1e300 {
            break; // p so close to 1 the quantile exceeds representable range
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if t_cdf(mid, df) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo) <= 1e-12 * (1.0 + lo.abs()) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Standard normal quantile (Acklam's rational approximation, |err| < 1.2e-9).
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// Student-t density with `df` degrees of freedom.
fn t_pdf(x: f64, df: u64) -> f64 {
    let v = df as f64;
    let ln_c = crate::dist::ln_gamma((v + 1.0) / 2.0)
        - crate::dist::ln_gamma(v / 2.0)
        - 0.5 * (v * std::f64::consts::PI).ln();
    (ln_c - (v + 1.0) / 2.0 * (1.0 + x * x / v).ln()).exp()
}

/// Student-t CDF via the regularised incomplete beta function.
fn t_cdf(x: f64, df: u64) -> f64 {
    let v = df as f64;
    let ib = inc_beta(v / 2.0, 0.5, v / (v + x * x));
    if x >= 0.0 {
        1.0 - 0.5 * ib
    } else {
        0.5 * ib
    }
}

/// Regularised incomplete beta I_x(a, b), continued-fraction form
/// (Numerical Recipes `betacf`).
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front =
        crate::dist::ln_gamma(a + b) - crate::dist::ln_gamma(a) - crate::dist::ln_gamma(b)
            + a * x.ln()
            + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-14;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// True when `b` is false — the `skip_serializing_if` predicate that keeps
/// the `degenerate` flag out of healthy intervals' JSON.
fn is_false(b: &bool) -> bool {
    !*b
}

/// A mean estimate with its confidence interval.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub mean: f64,
    /// Half-width of the interval at the requested level.
    pub half_width: f64,
    /// Confidence level, e.g. 0.95.
    pub level: f64,
    /// Number of observations behind the estimate.
    pub n: u64,
    /// True when the interval was built from fewer than two observations:
    /// the raw half-width is infinite (reports clamp it to `0.0`), so a
    /// `0.0` here reflects *missing data*, not a genuinely tight estimate.
    /// Serialised only when set, keeping healthy intervals' JSON unchanged.
    #[serde(default, skip_serializing_if = "is_false")]
    pub degenerate: bool,
}

impl ConfidenceInterval {
    /// Builds the interval for the accumulator at `level` (e.g. 0.95).
    /// With fewer than two observations the half-width is infinite and the
    /// interval is flagged [`degenerate`](Self::degenerate).
    pub fn from_welford(w: &Welford, level: f64) -> Self {
        let n = w.count();
        let half_width = if n < 2 {
            f64::INFINITY
        } else {
            t_critical(n - 1, 1.0 - level) * w.std_err()
        };
        ConfidenceInterval {
            mean: w.mean(),
            half_width,
            level,
            n,
            degenerate: n < 2,
        }
    }

    /// Half-width relative to the mean (infinite when the mean is 0).
    pub fn relative_error(&self) -> f64 {
        if self.mean == 0.0 {
            if self.half_width == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.half_width / self.mean.abs()
        }
    }
}

/// Sequential stopping rule: keep adding replications until the CI is tight.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StoppingRule {
    /// Confidence level (paper: 0.95).
    pub level: f64,
    /// Target relative half-width (paper: 0.025).
    pub max_relative_error: f64,
    /// Never stop before this many replications.
    pub min_replications: u64,
    /// Give up (and report the achieved precision) after this many.
    pub max_replications: u64,
}

impl Default for StoppingRule {
    fn default() -> Self {
        StoppingRule {
            level: 0.95,
            max_relative_error: 0.025,
            min_replications: 5,
            max_replications: 30,
        }
    }
}

impl StoppingRule {
    /// Returns `true` when enough replications have been accumulated.
    pub fn satisfied(&self, w: &Welford) -> bool {
        if w.count() < self.min_replications {
            return false;
        }
        if w.count() >= self.max_replications {
            return true;
        }
        ConfidenceInterval::from_welford(w, self.level).relative_error() <= self.max_relative_error
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_critical_matches_tables() {
        // Classic table values for alpha = 0.05 (two-sided).
        let cases = [
            (1, 12.706),
            (2, 4.303),
            (5, 2.571),
            (10, 2.228),
            (29, 2.045),
            (100, 1.984),
        ];
        for (df, expected) in cases {
            let got = t_critical(df, 0.05);
            assert!(
                (got - expected).abs() < 2e-3,
                "df={df}: got {got}, want {expected}"
            );
        }
    }

    #[test]
    fn t_converges_to_normal() {
        let t = t_critical(10_000, 0.05);
        assert!((t - 1.96).abs() < 5e-3, "got {t}");
    }

    #[test]
    fn t_low_df_matches_closed_forms() {
        // df = 1 (Cauchy): quantile = tan(pi * (p - 1/2)).
        // df = 2: quantile = (2p - 1) * sqrt(2 / (1 - (2p - 1)^2)).
        // These are exactly the heavy-tail cases where the Newton start is
        // heuristic; pin them across moderate and extreme alphas so the
        // bisection fallback is exercised, not just the happy path.
        for alpha in [0.2, 0.05, 0.01, 1e-4, 1e-6, 1e-8] {
            let p = 1.0 - alpha / 2.0;
            let want1 = (std::f64::consts::PI * (p - 0.5)).tan();
            let got1 = t_critical(1, alpha);
            assert!(
                (got1 - want1).abs() / want1 < 1e-6,
                "df=1 alpha={alpha}: got {got1}, want {want1}"
            );
            let u = 2.0 * p - 1.0;
            let want2 = u * (2.0 / (1.0 - u * u)).sqrt();
            let got2 = t_critical(2, alpha);
            assert!(
                (got2 - want2).abs() / want2 < 1e-6,
                "df=2 alpha={alpha}: got {got2}, want {want2}"
            );
        }
    }

    #[test]
    fn t_bisect_agrees_with_newton_everywhere() {
        // The fallback must agree with the (verified) Newton answer over
        // the whole table range, so switching paths can never shift a CI.
        for df in [1, 2, 3, 5, 10, 29, 100] {
            for alpha in [0.2, 0.05, 0.01] {
                let p = 1.0 - alpha / 2.0;
                let newton = t_critical(df, alpha);
                let bisect = t_quantile_bisect(p, df);
                assert!(
                    (newton - bisect).abs() < 1e-7 * (1.0 + newton.abs()),
                    "df={df} alpha={alpha}: newton {newton} vs bisect {bisect}"
                );
            }
        }
    }

    #[test]
    fn normal_quantile_symmetry() {
        for &p in &[0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.975] {
            let q = normal_quantile(p);
            let r = normal_quantile(1.0 - p);
            assert!((q + r).abs() < 1e-7, "p={p}: {q} vs {r}");
        }
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-5);
    }

    #[test]
    fn ci_from_samples() {
        // 10 observations with known mean/sd.
        let xs = [10.0, 12.0, 9.0, 11.0, 10.5, 9.5, 10.2, 11.8, 10.0, 10.0];
        let w: Welford = xs.iter().copied().collect();
        let ci = ConfidenceInterval::from_welford(&w, 0.95);
        assert_eq!(ci.n, 10);
        assert!((ci.mean - 10.4).abs() < 1e-9);
        // hand-computed: var = 8.18/9, se ≈ 0.30148, t(9) ≈ 2.2622 ⇒ hw ≈ 0.68200
        assert!(
            (ci.half_width - 0.68200).abs() < 2e-3,
            "hw={}",
            ci.half_width
        );
    }

    #[test]
    fn ci_degenerate_cases() {
        let w = Welford::new();
        let ci = ConfidenceInterval::from_welford(&w, 0.95);
        assert!(ci.half_width.is_infinite());
        assert!(ci.degenerate, "empty accumulator must be flagged");
        let mut w = Welford::new();
        w.push(5.0);
        let ci = ConfidenceInterval::from_welford(&w, 0.95);
        assert!(ci.half_width.is_infinite());
        assert!(ci.degenerate, "n = 1 must be flagged");
        w.push(5.0);
        let ci = ConfidenceInterval::from_welford(&w, 0.95);
        assert_eq!(ci.half_width, 0.0);
        assert_eq!(ci.relative_error(), 0.0);
        assert!(
            !ci.degenerate,
            "zero variance over n >= 2 is genuinely tight, not degenerate"
        );
    }

    #[test]
    fn degenerate_flag_serialises_only_when_set() {
        // Healthy interval: the flag stays off the wire, so pre-existing
        // JSON consumers (and byte-identical goldens) see no change.
        let xs = [1.0, 2.0, 3.0];
        let w: Welford = xs.iter().copied().collect();
        let healthy = ConfidenceInterval::from_welford(&w, 0.95);
        let json = serde_json::to_string(&healthy).unwrap();
        assert!(!json.contains("degenerate"), "{json}");
        let back: ConfidenceInterval = serde_json::from_str(&json).unwrap();
        assert!(!back.degenerate);
        // Degenerate interval: the flag rides along and round-trips.
        let mut one = Welford::new();
        one.push(5.0);
        let mut ci = ConfidenceInterval::from_welford(&one, 0.95);
        ci.half_width = 0.0; // what reportable_ci does downstream
        let json = serde_json::to_string(&ci).unwrap();
        assert!(json.contains("\"degenerate\":true"), "{json}");
        let back: ConfidenceInterval = serde_json::from_str(&json).unwrap();
        assert!(back.degenerate && back.n == 1 && back.half_width == 0.0);
    }

    #[test]
    fn stopping_rule_behaviour() {
        let rule = StoppingRule::default();
        // Identical observations: stops exactly at min_replications.
        let mut w = Welford::new();
        for i in 0..10 {
            w.push(100.0);
            let expect = (i + 1) >= 5;
            assert_eq!(rule.satisfied(&w), expect, "after {} obs", i + 1);
        }
        // Wildly noisy observations: runs to max_replications.
        let mut w = Welford::new();
        let mut x = 1.0;
        for _ in 0..30 {
            w.push(x);
            x *= -1.9;
        }
        assert!(rule.satisfied(&w), "must give up at max_replications");
        let mut w2 = Welford::new();
        w2.push(1.0);
        w2.push(1000.0);
        w2.push(-500.0);
        w2.push(2000.0);
        w2.push(-100.0);
        w2.push(4000.0);
        assert!(!rule.satisfied(&w2), "noisy short run must continue");
    }
}
