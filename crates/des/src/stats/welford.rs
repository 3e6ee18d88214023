//! Numerically stable running mean/variance (Welford's algorithm).

use serde::{de, Deserialize, Serialize, Value};

/// Streaming accumulator for count, mean, variance, min and max.
///
/// Serialisation is **journal-stable**: JSON cannot carry the empty
/// accumulator's `±inf` min/max sentinels (they degrade to `null`), so an
/// empty accumulator is written with canonical zero min/max and the
/// sentinels are restored on read. Any finite accumulator round-trips
/// bit-for-bit (the JSON writer uses shortest round-trip float formatting),
/// which the crash-safe replication journal relies on.
#[derive(Debug, Clone, Copy)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    /// Same as [`Welford::new`]: the empty accumulator, with its `±inf`
    /// min/max sentinels (a derived all-zero default would report a false
    /// min/max of 0 after the first merge skipped it).
    fn default() -> Self {
        Welford::new()
    }
}

impl Serialize for Welford {
    fn serialize_value(&self) -> Value {
        // n == 0 ⇒ min/max are the ±inf sentinels; write zeros instead so
        // the record survives JSON (which has no infinities).
        let (min, max) = if self.n == 0 {
            (0.0, 0.0)
        } else {
            (self.min, self.max)
        };
        Value::Object(vec![
            ("n".to_string(), Value::U64(self.n)),
            ("mean".to_string(), Value::F64(self.mean)),
            ("m2".to_string(), Value::F64(self.m2)),
            ("min".to_string(), Value::F64(min)),
            ("max".to_string(), Value::F64(max)),
        ])
    }
}

impl Deserialize for Welford {
    fn deserialize_value(v: &Value) -> Result<Self, de::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| de::Error::msg("expected Welford object"))?;
        let field = |name: &str| -> Result<&Value, de::Error> {
            obj.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| de::Error::msg("missing Welford field"))
        };
        let n = u64::deserialize_value(field("n")?)?;
        if n == 0 {
            return Ok(Welford::new());
        }
        let w = Welford {
            n,
            mean: f64::deserialize_value(field("mean")?)?,
            m2: f64::deserialize_value(field("m2")?)?,
            min: f64::deserialize_value(field("min")?)?,
            max: f64::deserialize_value(field("max")?)?,
        };
        if !(w.mean.is_finite() && w.m2.is_finite() && w.min.is_finite() && w.max.is_finite()) {
            return Err(de::Error::msg("non-finite Welford state"));
        }
        Ok(w)
    }
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator (Chan's parallel formula), enabling
    /// fork/join reductions across worker threads.
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl std::iter::FromIterator<f64> for Welford {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut w = Welford::new();
        for x in iter {
            w.push(x);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_naive_formulas() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let w: Welford = xs.iter().copied().collect();
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Naive unbiased variance = 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn empty_and_single() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        let mut w = Welford::new();
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.std_err(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 5.0).collect();
        let seq: Welford = xs.iter().copied().collect();
        let mut a: Welford = xs[..37].iter().copied().collect();
        let b: Welford = xs[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-10);
        assert!((a.variance() - seq.variance()).abs() < 1e-10);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs = [1.0, 2.0, 3.0];
        let mut w: Welford = xs.iter().copied().collect();
        let before = w;
        w.merge(&Welford::new());
        assert_eq!(w.count(), before.count());
        assert_eq!(w.mean(), before.mean());
        let mut e = Welford::new();
        e.merge(&before);
        assert_eq!(e.count(), 3);
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trips_bit_for_bit() {
        // The journal replays these through JSON: every bit of the state
        // must survive, including awkward shortest-round-trip floats.
        let w: Welford = [0.1, 1.0 / 3.0, 2.5e-17, 1e18, -7.25]
            .iter()
            .copied()
            .collect();
        let json = serde_json::to_string(&w).unwrap();
        let back: Welford = serde_json::from_str(&json).unwrap();
        assert_eq!(w.count(), back.count());
        assert_eq!(w.mean().to_bits(), back.mean().to_bits());
        assert_eq!(w.variance().to_bits(), back.variance().to_bits());
        assert_eq!(w.min().to_bits(), back.min().to_bits());
        assert_eq!(w.max().to_bits(), back.max().to_bits());
    }

    #[test]
    fn empty_serde_restores_sentinels() {
        // JSON cannot carry ±inf; the empty accumulator must still come
        // back canonical (min +inf / max -inf), not with null-poisoned or
        // zeroed sentinels that a later merge would surface as fake data.
        let json = serde_json::to_string(&Welford::new()).unwrap();
        assert!(!json.contains("null"), "no field degraded to null: {json}");
        let back: Welford = serde_json::from_str(&json).unwrap();
        assert_eq!(back.count(), 0);
        assert_eq!(back.min(), f64::INFINITY);
        assert_eq!(back.max(), f64::NEG_INFINITY);
        let mut merged = back;
        merged.push(5.0);
        assert_eq!(merged.min(), 5.0);
        assert_eq!(merged.max(), 5.0);
    }

    #[test]
    fn default_is_canonical_empty() {
        let d = Welford::default();
        assert_eq!(d.count(), 0);
        assert_eq!(d.min(), f64::INFINITY);
        assert_eq!(d.max(), f64::NEG_INFINITY);
    }

    #[test]
    fn stable_under_large_offset() {
        // Catastrophic cancellation check: variance of {k, k+1, k+2} is 1.
        let k = 1e9;
        let w: Welford = [k, k + 1.0, k + 2.0].iter().copied().collect();
        assert!((w.variance() - 1.0).abs() < 1e-6);
    }
}
