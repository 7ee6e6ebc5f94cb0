//! The in-place persistent data image.

use dhtm_types::addr::{Address, LineAddr, LineData, WordIndex, ZERO_LINE};

/// Initial slot count of the open-addressed line table (must be a power of
/// two). Sized so typical test/benchmark footprints never rehash.
const INITIAL_SLOTS: usize = 1 << 12;

/// splitmix64 finaliser: spreads a line number over all 64 bits so linear
/// probing sees a uniform start slot regardless of address locality.
fn hash_line(line: LineAddr) -> u64 {
    let mut z = line.raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Byte-addressable persistent memory, stored sparsely at cache-line
/// granularity.
///
/// Lines that have never been written read as zero, matching the behaviour a
/// freshly-mapped persistent heap would exhibit. Everything stored here is
/// considered durable: the contents of this structure are exactly what the
/// recovery manager sees after a crash (volatile caches are lost).
///
/// The backing store is a pre-sized open-addressed table (power-of-two
/// capacity, splitmix64-hashed keys, linear probing, no deletion — lines
/// are only ever written, never unmapped), replacing the former
/// `std::collections::HashMap`: lookups and inserts on the simulator's
/// hottest read/fill path cost one multiply-shift hash and a short probe
/// run instead of SipHash, and the table's iteration order is a pure
/// function of its contents rather than of a per-process random state.
#[derive(Debug, Clone)]
pub struct PersistentMemory {
    /// Open-addressed slots: `None` = empty, `Some((line, data))` = occupied.
    slots: Box<[Option<(LineAddr, LineData)>]>,
    /// Power-of-two mask for the probe start.
    mask: usize,
    /// Occupied slot count.
    populated: usize,
    line_writes: u64,
    word_writes: u64,
}

impl Default for PersistentMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl PersistentMemory {
    /// Creates an empty (all-zero) memory image.
    pub fn new() -> Self {
        PersistentMemory {
            slots: vec![None; INITIAL_SLOTS].into_boxed_slice(),
            mask: INITIAL_SLOTS - 1,
            populated: 0,
            line_writes: 0,
            word_writes: 0,
        }
    }

    /// The stored data for `line`, distinguishing "never written" from an
    /// explicitly written zero line (unlike [`PersistentMemory::read_line`]).
    fn get(&self, line: LineAddr) -> Option<&LineData> {
        self.slots[self.probe(line)].as_ref().map(|(_, d)| d)
    }

    /// Index of the slot holding `line`, or of the empty slot where it
    /// would be inserted.
    #[inline]
    fn probe(&self, line: LineAddr) -> usize {
        let mut i = hash_line(line) as usize & self.mask;
        loop {
            match &self.slots[i] {
                Some((l, _)) if *l == line => return i,
                None => return i,
                _ => i = (i + 1) & self.mask,
            }
        }
    }

    /// Doubles the table when the load factor crosses 7/8 (the table never
    /// deletes, so no tombstone handling is needed).
    fn grow_if_needed(&mut self) {
        if self.populated * 8 < self.slots.len() * 7 {
            return;
        }
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![None; new_cap].into_boxed_slice());
        self.mask = new_cap - 1;
        for (line, data) in old.into_vec().into_iter().flatten() {
            let i = self.probe(line);
            debug_assert!(self.slots[i].is_none());
            self.slots[i] = Some((line, data));
        }
    }

    /// Reads a full cache line. Unwritten lines read as zero.
    #[inline]
    pub fn read_line(&self, line: LineAddr) -> LineData {
        match &self.slots[self.probe(line)] {
            Some((_, data)) => *data,
            None => ZERO_LINE,
        }
    }

    /// Mutable reference to a line's stored data, materialising a zero line
    /// on first touch.
    #[inline]
    fn line_mut(&mut self, line: LineAddr) -> &mut LineData {
        self.grow_if_needed();
        let i = self.probe(line);
        if self.slots[i].is_none() {
            self.slots[i] = Some((line, ZERO_LINE));
            self.populated += 1;
        }
        &mut self.slots[i].as_mut().expect("just ensured").1
    }

    /// Writes a full cache line in place (a data write-back from the cache
    /// hierarchy or a recovery-time replay).
    #[inline]
    pub fn write_line(&mut self, line: LineAddr, data: LineData) {
        self.line_writes += 1;
        *self.line_mut(line) = data;
    }

    /// Reads one 64-bit word.
    #[inline]
    pub fn read_word(&self, addr: Address) -> u64 {
        self.read_line(addr.line())[addr.word_index().get()]
    }

    /// Writes one 64-bit word in place (used by word-granular software
    /// logging designs and by recovery when replaying word-granular records).
    pub fn write_word(&mut self, addr: Address, value: u64) {
        self.word_writes += 1;
        self.line_mut(addr.line())[addr.word_index().get()] = value;
    }

    /// Writes one word of a line identified by line + word index.
    pub fn write_line_word(&mut self, line: LineAddr, word: WordIndex, value: u64) {
        self.write_word(line.word_address(word), value);
    }

    /// Number of distinct lines that have ever been written.
    pub fn populated_lines(&self) -> usize {
        self.populated
    }

    /// Total number of full-line writes performed.
    pub fn line_write_count(&self) -> u64 {
        self.line_writes
    }

    /// Total number of word writes performed.
    pub fn word_write_count(&self) -> u64 {
        self.word_writes
    }

    /// Iterates over all populated lines (used by consistency checkers in
    /// tests). Order is table order: deterministic for a given sequence of
    /// writes (unlike the former `HashMap`'s per-process random order), but
    /// otherwise unspecified.
    pub fn iter(&self) -> impl Iterator<Item = (&LineAddr, &LineData)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(l, d)| (l, d)))
    }
}

/// Content equality (plus the write counters, as the former derive
/// compared): independent of table capacity and probe layout. Matches the
/// old `HashMap` equality exactly — an explicitly written zero line is a
/// *populated* line, so two images whose zero lines sit at different
/// addresses are unequal even though both read as zero everywhere.
impl PartialEq for PersistentMemory {
    fn eq(&self, other: &Self) -> bool {
        self.populated == other.populated
            && self.line_writes == other.line_writes
            && self.word_writes == other.word_writes
            && self.iter().all(|(l, d)| other.get(*l) == Some(d))
    }
}

impl Eq for PersistentMemory {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = PersistentMemory::new();
        assert_eq!(m.read_line(LineAddr::new(5)), ZERO_LINE);
        assert_eq!(m.read_word(Address::new(0x4008)), 0);
        assert_eq!(m.populated_lines(), 0);
    }

    #[test]
    fn line_write_read_roundtrip() {
        let mut m = PersistentMemory::new();
        let line = LineAddr::new(3);
        let data = [1, 2, 3, 4, 5, 6, 7, 8];
        m.write_line(line, data);
        assert_eq!(m.read_line(line), data);
        assert_eq!(m.populated_lines(), 1);
        assert_eq!(m.line_write_count(), 1);
    }

    #[test]
    fn word_write_updates_only_that_word() {
        let mut m = PersistentMemory::new();
        let line = LineAddr::new(7);
        m.write_line(line, [9; 8]);
        m.write_line_word(line, WordIndex::new(2), 77);
        let data = m.read_line(line);
        assert_eq!(data[2], 77);
        assert_eq!(data[0], 9);
        assert_eq!(data[7], 9);
        assert_eq!(m.word_write_count(), 1);
    }

    #[test]
    fn word_addressing_is_consistent_with_line_addressing() {
        let mut m = PersistentMemory::new();
        let addr = Address::new(64 * 12 + 8 * 5);
        m.write_word(addr, 0xdead_beef);
        assert_eq!(m.read_word(addr), 0xdead_beef);
        assert_eq!(m.read_line(LineAddr::new(12))[5], 0xdead_beef);
    }

    #[test]
    fn clone_is_a_snapshot() {
        let mut m = PersistentMemory::new();
        m.write_word(Address::new(0), 1);
        let snap = m.clone();
        m.write_word(Address::new(0), 2);
        assert_eq!(snap.read_word(Address::new(0)), 1);
        assert_eq!(m.read_word(Address::new(0)), 2);
    }

    #[test]
    fn iter_visits_all_populated_lines() {
        let mut m = PersistentMemory::new();
        for i in 0..10 {
            m.write_line(LineAddr::new(i), [i; 8]);
        }
        let mut lines: Vec<u64> = m.iter().map(|(l, _)| l.raw()).collect();
        lines.sort_unstable();
        assert_eq!(lines, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn growth_preserves_contents() {
        // Push well past the initial capacity (and its 7/8 load limit) so
        // the table rehashes several times.
        let mut m = PersistentMemory::new();
        let lines = (INITIAL_SLOTS as u64) * 4;
        for i in 0..lines {
            m.write_line(LineAddr::new(i * 17 + 3), [i; 8]);
        }
        assert_eq!(m.populated_lines(), lines as usize);
        for i in 0..lines {
            assert_eq!(m.read_line(LineAddr::new(i * 17 + 3)), [i; 8]);
        }
        assert_eq!(m.read_line(LineAddr::new(1)), ZERO_LINE);
    }

    #[test]
    fn explicit_zero_lines_at_different_addresses_are_unequal() {
        // A zero-valued write is a populated line: replaying it to the
        // wrong address must be detectable through equality, exactly as
        // the former HashMap-derived PartialEq guaranteed.
        let mut a = PersistentMemory::new();
        let mut b = PersistentMemory::new();
        a.write_line(LineAddr::new(7), ZERO_LINE);
        b.write_line(LineAddr::new(9), ZERO_LINE);
        assert_ne!(a, b);
    }

    #[test]
    fn equality_is_content_based_not_layout_based() {
        // Same content reached through different write orders (and thus
        // different probe layouts after growth) must compare equal.
        let mut a = PersistentMemory::new();
        let mut b = PersistentMemory::new();
        for i in 0..100u64 {
            a.write_line(LineAddr::new(i), [i; 8]);
        }
        for i in (0..100u64).rev() {
            b.write_line(LineAddr::new(i), [i; 8]);
        }
        assert_eq!(a, b);
        b.write_line(LineAddr::new(5), [0xff; 8]);
        assert_ne!(a, b, "content difference must break equality");
    }
}
