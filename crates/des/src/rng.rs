//! Deterministic random-number streams.
//!
//! Reproducibility requires more than a single seed: if every stochastic
//! component drew from one generator, adding a draw anywhere would perturb
//! every subsequent sample. Instead, each component gets its own *stream*,
//! derived from a master seed and a stable string label via a SplitMix64
//! mixing step. Streams are independent `StdRng` instances, so two runs with
//! the same master seed produce identical traces regardless of event
//! interleaving between components (common random numbers across policies
//! also falls out of this: the workload stream is shared, the machine
//! streams are shared, only the scheduling decisions differ).

use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 finaliser: excellent avalanche, standard seed-stretcher.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a label, used to fold stream names into the seed.
#[inline]
fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Factory for named, independent random streams under one master seed.
#[derive(Debug, Clone, Copy)]
pub struct StreamSeeder {
    master: u64,
}

impl StreamSeeder {
    /// Creates a seeder from a master seed.
    pub fn new(master: u64) -> Self {
        StreamSeeder { master }
    }

    /// Derives the 64-bit seed of the stream `label`/`index`.
    pub fn stream_seed(&self, label: &str, index: u64) -> u64 {
        let mixed = splitmix64(self.master ^ fnv1a(label));
        splitmix64(mixed ^ splitmix64(index.wrapping_add(0xA5A5_A5A5_A5A5_A5A5)))
    }

    /// Creates the RNG for stream `label`/`index`.
    ///
    /// `label` names the component ("arrivals", "machine-avail", ...);
    /// `index` distinguishes instances (machine id, replication number, ...).
    pub fn stream(&self, label: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.stream_seed(label, index))
    }

    /// A seeder for a sub-domain (e.g. one replication of an experiment),
    /// itself able to hand out streams.
    pub fn subdomain(&self, label: &str, index: u64) -> StreamSeeder {
        StreamSeeder {
            master: self.stream_seed(label, index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_inputs_same_stream() {
        let s = StreamSeeder::new(42);
        let a: Vec<u32> = s
            .stream("arrivals", 0)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u32> = s
            .stream("arrivals", 0)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_different_streams() {
        let s = StreamSeeder::new(42);
        assert_ne!(s.stream_seed("arrivals", 0), s.stream_seed("machines", 0));
        assert_ne!(s.stream_seed("arrivals", 0), s.stream_seed("arrivals", 1));
    }

    #[test]
    fn different_masters_different_streams() {
        let a = StreamSeeder::new(1).stream_seed("x", 0);
        let b = StreamSeeder::new(2).stream_seed("x", 0);
        assert_ne!(a, b);
    }

    #[test]
    fn subdomain_is_stable_and_distinct() {
        let s = StreamSeeder::new(7);
        let r0 = s.subdomain("rep", 0);
        let r0b = s.subdomain("rep", 0);
        let r1 = s.subdomain("rep", 1);
        assert_eq!(r0.stream_seed("m", 3), r0b.stream_seed("m", 3));
        assert_ne!(r0.stream_seed("m", 3), r1.stream_seed("m", 3));
        assert_ne!(r0.stream_seed("m", 3), s.stream_seed("m", 3));
    }

    #[test]
    fn splitmix_avalanche_sanity() {
        // Flipping one input bit should flip roughly half the output bits.
        let a = splitmix64(0);
        let b = splitmix64(1);
        let flipped = (a ^ b).count_ones();
        assert!(
            (16..=48).contains(&flipped),
            "poor avalanche: {flipped} bits"
        );
    }
}
