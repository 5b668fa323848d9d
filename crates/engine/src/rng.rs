//! Reproducible pseudo-random number generation.
//!
//! Every stochastic decision in the simulator (synthetic address streams,
//! compute-burst lengths) draws from a [`Xoshiro256`] generator seeded
//! deterministically from a hierarchy of identifiers via [`SplitMix64`],
//! so a run is a pure function of its configuration and seed.

/// The SplitMix64 generator, used to expand seeds.
///
/// SplitMix64 passes its output through a strong avalanche, so seeding a
/// family of generators with `base + i` still produces decorrelated
/// streams — exactly what we need for per-warp generators.
///
/// # Example
///
/// ```
/// use mcm_engine::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(1);
/// let mut b = SplitMix64::new(1);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Produces the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The xoshiro256** generator: fast, high-quality, and deterministic.
///
/// # Example
///
/// ```
/// use mcm_engine::rng::Xoshiro256;
///
/// let mut rng = Xoshiro256::seeded(&[7, 3, 1]);
/// let x = rng.next_range(100);
/// assert!(x < 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a single seed, expanded via SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256 {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Creates a generator from a hierarchy of identifiers (for example
    /// `[workload_seed, kernel, cta, warp]`), hashing them together so
    /// that adjacent identifiers produce decorrelated streams.
    pub fn seeded(parts: &[u64]) -> Self {
        Xoshiro256::new(Xoshiro256::seed_prefix(parts))
    }

    /// The hashed seed of a leading run of identifiers, so a family of
    /// generators sharing it (every warp of one kernel launch) hashes
    /// the shared part once: `seeded(&[a, b, c])` equals
    /// `new(extend_seed(seed_prefix(&[a, b]), &[c]))`.
    ///
    /// # Example
    ///
    /// ```
    /// use mcm_engine::rng::Xoshiro256;
    ///
    /// let launch = Xoshiro256::seed_prefix(&[7, 3]);
    /// let warp = Xoshiro256::extend_seed(launch, &[1]);
    /// assert_eq!(Xoshiro256::new(warp), Xoshiro256::seeded(&[7, 3, 1]));
    /// ```
    pub fn seed_prefix(parts: &[u64]) -> u64 {
        let root = SplitMix64::new(0x6D63_6D2D_6770_7573).next_u64(); // "mcm-gpus"
        Xoshiro256::extend_seed(root, parts)
    }

    /// Hashes further identifiers onto a [`seed_prefix`](Xoshiro256::seed_prefix).
    pub fn extend_seed(prefix: u64, parts: &[u64]) -> u64 {
        parts
            .iter()
            .fold(prefix, |seed, &p| SplitMix64::new(seed ^ p).next_u64())
    }

    /// Produces the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, bound)` using Lemire's multiply-shift
    /// reduction (slightly biased for astronomically large bounds, which
    /// is irrelevant for workload synthesis).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_range bound must be nonzero");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// A stable (process- and platform-independent) FNV-1a hasher for
/// deriving persistent identities — configuration fingerprints,
/// artifact-stem disambiguators. Unlike `std::hash`, the output is part
/// of the determinism contract: the same field values always hash to
/// the same 64-bit word, across runs, builds, and machines.
///
/// # Example
///
/// ```
/// use mcm_engine::rng::StableHasher;
///
/// let mut a = StableHasher::new();
/// a.write_str("MCM-GPU baseline");
/// a.write_f64(768.0);
/// let mut b = StableHasher::new();
/// b.write_str("MCM-GPU baseline");
/// b.write_f64(768.0);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// FNV-1a 64-bit offset basis.
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    /// FNV-1a 64-bit prime.
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Creates a hasher at the FNV offset basis.
    pub const fn new() -> Self {
        StableHasher {
            state: Self::OFFSET,
        }
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, byte: u8) {
        self.state = (self.state ^ u64::from(byte)).wrapping_mul(Self::PRIME);
    }

    /// Absorbs a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Absorbs a `u32` (little-endian bytes).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs an `f64` via its IEEE-754 bit pattern, so `-0.0` and
    /// `0.0` hash differently and NaN payloads are distinguished — the
    /// hash tracks representation, not numeric equality.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a string, length-prefixed so `("ab", "c")` and
    /// `("a", "bc")` hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The 64-bit digest of everything absorbed so far.
    pub const fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // Outputs should not all be equal.
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn xoshiro_reference_determinism() {
        let mut a = Xoshiro256::new(7);
        let mut b = Xoshiro256::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn seeded_hierarchies_are_decorrelated() {
        let mut a = Xoshiro256::seeded(&[1, 0, 0]);
        let mut b = Xoshiro256::seeded(&[1, 0, 1]);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn seeded_is_order_sensitive() {
        let mut a = Xoshiro256::seeded(&[1, 2]);
        let mut b = Xoshiro256::seeded(&[2, 1]);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn split_seeding_matches_seeded_at_every_split_point() {
        use mcm_testkit::prelude::*;
        check(
            "split_seeding_matches_seeded",
            &vecs(any_u64(), 0..8),
            |parts: &Vec<u64>| {
                let whole = Xoshiro256::seeded(parts);
                for split in 0..=parts.len() {
                    let (head, tail) = parts.split_at(split);
                    let seed = Xoshiro256::extend_seed(Xoshiro256::seed_prefix(head), tail);
                    assert_eq!(Xoshiro256::new(seed), whole, "split at {split}");
                }
            },
        );
    }

    #[test]
    fn next_range_respects_bound() {
        let mut rng = Xoshiro256::new(123);
        for _ in 0..10_000 {
            assert!(rng.next_range(17) < 17);
        }
        // bound 1 always yields 0
        assert_eq!(rng.next_range(1), 0);
    }

    #[test]
    fn next_f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = Xoshiro256::new(99);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Xoshiro256::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    #[should_panic(expected = "bound must be nonzero")]
    fn next_range_zero_bound_panics() {
        Xoshiro256::new(1).next_range(0);
    }

    #[test]
    fn stable_hasher_matches_fnv1a_reference() {
        // FNV-1a 64 of the empty input is the offset basis; of "a" it
        // is the published reference value.
        assert_eq!(StableHasher::new().finish(), 0xCBF2_9CE4_8422_2325);
        let mut h = StableHasher::new();
        h.write_u8(b'a');
        assert_eq!(h.finish(), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn stable_hasher_distinguishes_field_boundaries() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn stable_hasher_separates_float_bit_patterns() {
        let mut pos = StableHasher::new();
        pos.write_f64(0.0);
        let mut neg = StableHasher::new();
        neg.write_f64(-0.0);
        assert_ne!(pos.finish(), neg.finish());
    }
}
