//! Dependency-free deterministic randomness for the WebIQ workspace.
//!
//! The workspace builds in hermetic environments with no registry access,
//! so everything that used to come from the `rand` crate lives here: a
//! seedable generator ([`StdRng`], xoshiro256** seeded via SplitMix64),
//! slice helpers ([`SliceRandom`]), the workspace's one stable string
//! hash ([`Fnv64`], 64-bit FNV-1a), and a tiny property-test harness
//! ([`prop`]) that replaces `proptest` for the `tests/properties.rs`
//! suites.
//!
//! Determinism is a hard requirement: every generated corpus, dataset and
//! record store in the repository is a pure function of its seed, and the
//! parallel-acquisition determinism guarantee (DESIGN.md) builds on that.
//! The generator is fully specified here and will never change behaviour
//! underneath a seed.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::string_slice
)]

pub mod prop;

/// SplitMix64 step — used to expand a `u64` seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable deterministic generator (xoshiro256**).
///
/// Named `StdRng` so call sites read exactly as they did under the `rand`
/// crate; the algorithm is our own fixed choice, not `rand`'s.
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Seed the generator from a single `u64` (SplitMix64 expansion, the
    /// standard recommendation of the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        StdRng { s }
    }

    /// Next raw 64-bit output.
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

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            // consume a draw anyway so the stream shape is stable
            let _ = self.next_u64();
            return true;
        }
        if p <= 0.0 {
            let _ = self.next_u64();
            return false;
        }
        self.next_f64() < p
    }

    /// Uniform draw from a range (`lo..hi` or `lo..=hi`), matching the
    /// `rand::Rng::gen_range` call shape.
    pub fn gen_range<R: RandRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// A string of `len ∈ [min, max]` chars drawn uniformly from `charset`.
    pub fn gen_string(&mut self, charset: &[char], min: usize, max: usize) -> String {
        debug_assert!(!charset.is_empty() && min <= max);
        let len = self.gen_range(min..=max);
        (0..len)
            .map(|_| charset[self.gen_range(0..charset.len())])
            .collect()
    }
}

/// Ranges [`StdRng::gen_range`] can sample from.
pub trait RandRange {
    /// The element type produced.
    type Output;
    /// Draw one uniform sample.
    fn sample(self, rng: &mut StdRng) -> Self::Output;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl RandRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl RandRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64 + 1;
                if span == 0 {
                    // full-width inclusive range
                    return lo + rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

int_range!(usize, u64, u32, i32, i64);

impl RandRange for std::ops::Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

/// Slice helpers mirroring `rand::seq::SliceRandom`.
pub trait SliceRandom {
    /// Element type.
    type Item;
    /// A uniformly chosen element (`None` on an empty slice).
    fn choose<'a>(&'a self, rng: &mut StdRng) -> Option<&'a Self::Item>;
    /// `amount` distinct elements (fewer when the slice is short), in
    /// selection order.
    fn choose_multiple<'a>(
        &'a self,
        rng: &mut StdRng,
        amount: usize,
    ) -> std::vec::IntoIter<&'a Self::Item>;
    /// Fisher–Yates shuffle in place.
    fn shuffle(&mut self, rng: &mut StdRng);
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn choose<'a>(&'a self, rng: &mut StdRng) -> Option<&'a T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.gen_range(0..self.len())])
        }
    }

    fn choose_multiple<'a>(&'a self, rng: &mut StdRng, amount: usize) -> std::vec::IntoIter<&'a T> {
        let amount = amount.min(self.len());
        // partial Fisher–Yates over an index vector
        let mut idx: Vec<usize> = (0..self.len()).collect();
        for i in 0..amount {
            let j = rng.gen_range(i..idx.len());
            idx.swap(i, j);
        }
        idx[..amount]
            .iter()
            .map(|&i| &self[i])
            .collect::<Vec<_>>()
            .into_iter()
    }

    fn shuffle(&mut self, rng: &mut StdRng) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.swap(i, j);
        }
    }
}

/// Streaming 64-bit FNV-1a: the workspace's one stable hash for seed
/// derivation, fault keys, shard selection, and run fingerprints.
///
/// Unlike `std`'s `DefaultHasher` its output is fixed across platforms,
/// releases and processes, so it may feed persisted artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV offset basis (the hash of no bytes).
    #[inline]
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Fold `bytes` into the hash.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The hash of every byte written so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// The 64-bit FNV-1a hash of `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // Streaming is split-invariant.
        let mut h = Fnv64::default();
        h.write(b"foo");
        h.write(b"");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn deterministic_in_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..16).all(|_| a.next_u64() == b.next_u64());
        assert!(!same);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let x = rng.gen_range(3usize..10);
            assert!((3..10).contains(&x));
            let y = rng.gen_range(2..=4);
            assert!((2..=4).contains(&y));
            let f = rng.gen_range(-1.5f64..2.5);
            assert!((-1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(11);
        assert!((0..50).all(|_| rng.gen_bool(1.0)));
        assert!((0..50).all(|_| !rng.gen_bool(0.0)));
        let heads = (0..2000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((800..1200).contains(&heads), "{heads}");
    }

    #[test]
    fn choose_uniformish() {
        let mut rng = StdRng::seed_from_u64(13);
        let items = [1, 2, 3, 4];
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[*items.choose(&mut rng).expect("nonempty") - 1] += 1;
        }
        assert!(counts.iter().all(|&c| c > 700), "{counts:?}");
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn choose_multiple_distinct() {
        let mut rng = StdRng::seed_from_u64(17);
        let items: Vec<usize> = (0..20).collect();
        for _ in 0..100 {
            let picked: Vec<usize> = items.choose_multiple(&mut rng, 8).copied().collect();
            assert_eq!(picked.len(), 8);
            let mut sorted = picked.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 8, "duplicates in {picked:?}");
        }
        // amount beyond len is clamped
        assert_eq!(items.choose_multiple(&mut rng, 100).count(), 20);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(19);
        let mut v: Vec<usize> = (0..30).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn gen_string_respects_charset_and_len() {
        let mut rng = StdRng::seed_from_u64(23);
        let charset: Vec<char> = "abc".chars().collect();
        for _ in 0..100 {
            let s = rng.gen_string(&charset, 2, 5);
            assert!((2..=5).contains(&s.chars().count()));
            assert!(s.chars().all(|c| "abc".contains(c)));
        }
    }
}
