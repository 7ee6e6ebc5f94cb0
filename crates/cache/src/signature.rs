//! The read-set overflow signature.
//!
//! Commercial HTMs let the read set overflow the L1: when a line whose read
//! bit is set is evicted, its address is added to a Bloom-filter-like
//! signature kept at the L1 (Section II-A). Conflict checks then consult both
//! the read bits and the signature. The signature can report false positives
//! (the paper's Figure 4(d) explicitly shows the signature conservatively
//! containing both C and D after only C overflowed), which can only cause
//! unnecessary aborts, never missed conflicts.

use dhtm_types::addr::LineAddr;
use dhtm_types::config::MAX_READ_SIGNATURE_BITS;

/// A Bloom-filter read-set overflow signature.
#[derive(Debug, Clone)]
pub struct ReadSignature {
    bits: Vec<u64>,
    num_bits: usize,
    insertions: u64,
}

/// Number of hash functions used by the signature.
const NUM_HASHES: usize = 2;

impl ReadSignature {
    /// Creates an empty signature with `num_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `num_bits` is zero, not a power of two, or above
    /// [`MAX_READ_SIGNATURE_BITS`] (the bound `SystemConfig::validate`
    /// checks).
    pub fn new(num_bits: usize) -> Self {
        assert!(num_bits > 0, "signature must have at least one bit");
        assert!(
            num_bits.is_power_of_two(),
            "signature bits must be a power of two"
        );
        assert!(
            num_bits <= MAX_READ_SIGNATURE_BITS,
            "signature bits must be at most {MAX_READ_SIGNATURE_BITS}"
        );
        ReadSignature {
            bits: vec![0; num_bits.div_ceil(64)],
            num_bits,
            insertions: 0,
        }
    }

    /// Number of bits in the signature.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    fn hash(&self, line: LineAddr, which: usize) -> usize {
        // Two independent multiplicative hashes (Knuth-style constants).
        let x = line.raw().wrapping_add(which as u64 + 1);
        let h = match which {
            0 => x.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            _ => x.wrapping_mul(0xC2B2_AE3D_27D4_EB4F).rotate_left(31),
        };
        (h % self.num_bits as u64) as usize
    }

    fn set_bit(&mut self, idx: usize) {
        self.bits[idx / 64] |= 1 << (idx % 64);
    }

    fn get_bit(&self, idx: usize) -> bool {
        self.bits[idx / 64] & (1 << (idx % 64)) != 0
    }

    /// Inserts a line address into the signature.
    #[inline]
    pub fn insert(&mut self, line: LineAddr) {
        for h in 0..NUM_HASHES {
            let idx = self.hash(line, h);
            self.set_bit(idx);
        }
        self.insertions += 1;
    }

    /// Whether the signature might contain `line`. False positives are
    /// possible; false negatives are not.
    #[inline]
    pub fn maybe_contains(&self, line: LineAddr) -> bool {
        (0..NUM_HASHES).all(|h| self.get_bit(self.hash(line, h)))
    }

    /// Whether no address has been inserted since the last clear.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Clears the signature (commit or abort).
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.insertions = 0;
    }

    /// Number of insertions since the last clear.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Fraction of bits set, a proxy for the false-positive rate.
    pub fn occupancy(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        set as f64 / self.num_bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_lines_are_always_found() {
        let mut s = ReadSignature::new(256);
        for i in 0..100u64 {
            s.insert(LineAddr::new(i * 7));
        }
        for i in 0..100u64 {
            assert!(s.maybe_contains(LineAddr::new(i * 7)), "no false negatives");
        }
    }

    #[test]
    fn empty_signature_contains_nothing() {
        let s = ReadSignature::new(64);
        assert!(s.is_empty());
        for i in 0..50u64 {
            assert!(!s.maybe_contains(LineAddr::new(i)));
        }
    }

    #[test]
    fn clear_resets_state() {
        let mut s = ReadSignature::new(64);
        s.insert(LineAddr::new(3));
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.insertions(), 0);
        assert!(!s.maybe_contains(LineAddr::new(3)));
    }

    #[test]
    fn false_positive_rate_is_reasonable_when_lightly_loaded() {
        let mut s = ReadSignature::new(2048);
        for i in 0..64u64 {
            s.insert(LineAddr::new(i));
        }
        // Probe addresses never inserted; with 2048 bits and 64 entries the
        // false-positive rate should be tiny.
        let false_positives = (1000..3000u64)
            .filter(|&i| s.maybe_contains(LineAddr::new(i)))
            .count();
        assert!(
            false_positives < 40,
            "too many false positives: {false_positives}"
        );
    }

    #[test]
    fn small_signature_saturates_and_reports_occupancy() {
        let mut s = ReadSignature::new(64);
        for i in 0..200u64 {
            s.insert(LineAddr::new(i));
        }
        assert!(s.occupancy() > 0.9);
        // A saturated signature conservatively matches everything.
        assert!(s.maybe_contains(LineAddr::new(123_456)));
    }

    #[test]
    fn occupancy_bounds() {
        let mut s = ReadSignature::new(128);
        assert_eq!(s.occupancy(), 0.0);
        s.insert(LineAddr::new(1));
        assert!(s.occupancy() > 0.0 && s.occupancy() <= 1.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        ReadSignature::new(100);
    }

    #[test]
    fn the_largest_signature_builds() {
        let s = ReadSignature::new(MAX_READ_SIGNATURE_BITS);
        assert_eq!(s.num_bits(), MAX_READ_SIGNATURE_BITS);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn an_oversized_signature_panics_before_allocating() {
        ReadSignature::new(1 << 40);
    }

    #[test]
    fn no_false_negatives_at_any_load() {
        // The safety property conflict detection depends on: an inserted
        // line is reported present no matter how saturated the filter is.
        for bits in [64usize, 256, 2048] {
            let mut s = ReadSignature::new(bits);
            for i in 0..500u64 {
                s.insert(LineAddr::new(i * 13 + 5));
                for j in 0..=i {
                    assert!(
                        s.maybe_contains(LineAddr::new(j * 13 + 5)),
                        "false negative at {bits} bits after {i} inserts"
                    );
                }
            }
        }
    }

    #[test]
    fn more_bits_never_more_false_positives() {
        // Same inserted set, same probes: widening the signature must not
        // increase the false-positive count (Bloom monotonicity in m).
        let inserted: Vec<LineAddr> = (0..64u64).map(|i| LineAddr::new(i * 3)).collect();
        let fp_count = |bits: usize| {
            let mut s = ReadSignature::new(bits);
            for &l in &inserted {
                s.insert(l);
            }
            (10_000..12_000u64)
                .filter(|&i| s.maybe_contains(LineAddr::new(i)))
                .count()
        };
        let narrow = fp_count(256);
        let wide = fp_count(4096);
        assert!(wide <= narrow, "4096-bit FP {wide} vs 256-bit FP {narrow}");
    }

    #[test]
    fn false_positive_rate_near_bloom_bound() {
        // k=2 hashes, n=64 inserts, m=2048 bits: p = (1 - e^(-kn/m))^k,
        // about 0.37%. Allow a generous 4x margin for hash imperfection but
        // catch gross regressions (e.g. both hashes collapsing to one).
        let mut s = ReadSignature::new(2048);
        for i in 0..64u64 {
            s.insert(LineAddr::new(i * 17 + 3));
        }
        let probes = 20_000u64;
        let fps = (1_000_000..1_000_000 + probes)
            .filter(|&i| s.maybe_contains(LineAddr::new(i)))
            .count();
        let rate = fps as f64 / probes as f64;
        assert!(
            rate < 0.015,
            "false-positive rate {rate:.4} far above Bloom bound"
        );
    }

    #[test]
    fn insertions_counter_tracks_inserts_not_membership() {
        let mut s = ReadSignature::new(64);
        s.insert(LineAddr::new(1));
        s.insert(LineAddr::new(1)); // duplicate still counts as an insertion
        assert_eq!(s.insertions(), 2);
        s.clear();
        assert_eq!(s.insertions(), 0);
    }

    #[test]
    fn occupancy_is_monotone_under_insertion() {
        let mut s = ReadSignature::new(128);
        let mut last = s.occupancy();
        for i in 0..100u64 {
            s.insert(LineAddr::new(i * 31));
            let now = s.occupancy();
            assert!(now >= last, "occupancy decreased: {now} < {last}");
            last = now;
        }
        assert!(last <= 1.0);
    }

    #[test]
    fn hashes_are_independent_enough_to_discriminate() {
        // Inserting one line must not make every neighbouring line match:
        // with a 2048-bit filter and a single insertion, at most a handful
        // of the 64 adjacent addresses may alias.
        let mut s = ReadSignature::new(2048);
        s.insert(LineAddr::new(512));
        let neighbours_matching = (513..577u64)
            .filter(|&i| s.maybe_contains(LineAddr::new(i)))
            .count();
        assert!(
            neighbours_matching <= 2,
            "{neighbours_matching} neighbours alias"
        );
    }
}
