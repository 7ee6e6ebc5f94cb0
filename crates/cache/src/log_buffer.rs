//! The DHTM log buffer (Section III-A, "Log coalescing").
//!
//! The log buffer is a small fully-associative structure attached to the L1
//! that tracks cache-line addresses with pending redo-log writes. A store
//! inserts its line address (if absent); a log entry is only written to
//! persistent memory when an address is *evicted* from the buffer — either
//! because the buffer is full and space is needed, or because the tracked L1
//! line itself is being replaced. Eviction thus acts as a conservative
//! prediction of the last store to the line, coalescing all earlier stores to
//! that line into a single cache-line-granular log write. At transaction end
//! every address still in the buffer is drained and logged.
//!
//! This buffer is *not* LogTM's log buffer (which hides L1 port contention):
//! its sole purpose is write coalescing and last-store prediction.

use std::collections::VecDeque;

use dhtm_obs::PowHistogram;
use dhtm_types::addr::LineAddr;

/// A fully-associative FIFO buffer of cache-line addresses with pending log
/// writes.
#[derive(Debug, Clone)]
pub struct LogBuffer {
    capacity: usize,
    entries: VecDeque<LineAddr>,
    inserts: u64,
    coalesced_hits: u64,
    evictions: u64,
    peak_occupancy: usize,
    drain_sizes: PowHistogram,
}

impl LogBuffer {
    /// Creates a buffer with space for `capacity` line addresses (the paper's
    /// default is 64; Figure 6 sweeps 4–128).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "log buffer capacity must be positive");
        LogBuffer {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            inserts: 0,
            coalesced_hits: 0,
            evictions: 0,
            peak_occupancy: 0,
            drain_sizes: PowHistogram::new(),
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of tracked addresses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `line` is currently tracked.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.entries.contains(&line)
    }

    /// Records a store to `line`.
    ///
    /// Returns the address evicted to make room, if any: the caller (the L1
    /// controller) must write a redo-log entry for the evicted line at this
    /// point. If the line was already tracked the store is coalesced and
    /// nothing is returned.
    #[inline]
    pub fn record_store(&mut self, line: LineAddr) -> Option<LineAddr> {
        if self.entries.contains(&line) {
            self.coalesced_hits += 1;
            return None;
        }
        self.inserts += 1;
        let evicted = if self.entries.len() >= self.capacity {
            self.evictions += 1;
            self.entries.pop_front()
        } else {
            None
        };
        self.entries.push_back(line);
        self.peak_occupancy = self.peak_occupancy.max(self.entries.len());
        evicted
    }

    /// Removes `line` from the buffer because the corresponding L1 line is
    /// being replaced (situation (b) in Section III-A). Returns `true` if it
    /// was present — in which case the caller must log it now.
    #[inline]
    pub fn remove(&mut self, line: LineAddr) -> bool {
        if let Some(pos) = self.entries.iter().position(|&l| l == line) {
            self.entries.remove(pos);
            self.evictions += 1;
            true
        } else {
            false
        }
    }

    /// Drains every tracked address (transaction end): the caller logs each
    /// one. Addresses are returned oldest-first.
    pub fn drain(&mut self) -> Vec<LineAddr> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Drains every tracked address into `out` (cleared first), oldest-first
    /// — the allocation-free form of [`LogBuffer::drain`] for callers with a
    /// reusable scratch buffer.
    pub fn drain_into(&mut self, out: &mut Vec<LineAddr>) {
        self.evictions += self.entries.len() as u64;
        self.drain_sizes.record(self.entries.len() as u64);
        out.clear();
        out.extend(self.entries.drain(..));
    }

    /// Clears the buffer without logging (transaction abort).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of distinct line insertions.
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Number of stores that were coalesced into an existing entry.
    pub fn coalesced_hits(&self) -> u64 {
        self.coalesced_hits
    }

    /// Number of entries evicted (each corresponds to one log write, plus the
    /// drain at transaction end).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The occupancy high-water mark: the most addresses ever tracked at
    /// once (≤ capacity).
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Histogram of drain sizes: how many pending addresses each
    /// transaction-end drain flushed at once.
    pub fn drain_sizes(&self) -> &PowHistogram {
        &self.drain_sizes
    }

    /// Registers the buffer's probes under `scope` (e.g. `core3/log_buffer`).
    pub fn probes_into(&self, scope: &str, reg: &mut dhtm_obs::ProbeRegistry) {
        reg.add(&format!("{scope}/inserts"), self.inserts);
        reg.add(&format!("{scope}/coalesced_hits"), self.coalesced_hits);
        reg.add(&format!("{scope}/evictions"), self.evictions);
        reg.set(
            &format!("{scope}/peak_occupancy"),
            self.peak_occupancy as u64,
        );
        reg.merge_histogram(&format!("{scope}/drain_sizes"), &self.drain_sizes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_to_same_line_coalesce() {
        let mut b = LogBuffer::new(4);
        assert_eq!(b.record_store(LineAddr::new(1)), None);
        assert_eq!(b.record_store(LineAddr::new(1)), None);
        assert_eq!(b.record_store(LineAddr::new(1)), None);
        assert_eq!(b.len(), 1);
        assert_eq!(b.coalesced_hits(), 2);
        assert_eq!(b.inserts(), 1);
    }

    #[test]
    fn figure_2c_example_two_log_writes_for_five_stores() {
        // Single-entry buffer; stores A0=1, A1=2, A0=3, B0=1, B1=2.
        // Only the eviction of A (when B arrives) and the drain of B at
        // transaction end generate log writes: 2 writes for 5 stores.
        let mut b = LogBuffer::new(1);
        let a = LineAddr::new(0xA);
        let bb = LineAddr::new(0xB);
        let mut log_writes = 0;
        for line in [a, a, a, bb, bb] {
            if b.record_store(line).is_some() {
                log_writes += 1;
            }
        }
        log_writes += b.drain().len();
        assert_eq!(log_writes, 2);
    }

    #[test]
    fn eviction_is_fifo() {
        let mut b = LogBuffer::new(2);
        b.record_store(LineAddr::new(1));
        b.record_store(LineAddr::new(2));
        let evicted = b.record_store(LineAddr::new(3));
        assert_eq!(evicted, Some(LineAddr::new(1)));
        assert!(b.contains(LineAddr::new(2)));
        assert!(b.contains(LineAddr::new(3)));
    }

    #[test]
    fn remove_on_l1_replacement() {
        let mut b = LogBuffer::new(4);
        b.record_store(LineAddr::new(7));
        assert!(b.remove(LineAddr::new(7)));
        assert!(!b.remove(LineAddr::new(7)));
        assert!(b.is_empty());
    }

    #[test]
    fn drain_returns_all_oldest_first() {
        let mut b = LogBuffer::new(4);
        for i in 0..3u64 {
            b.record_store(LineAddr::new(i));
        }
        let drained = b.drain();
        assert_eq!(
            drained,
            vec![LineAddr::new(0), LineAddr::new(1), LineAddr::new(2)]
        );
        assert!(b.is_empty());
    }

    #[test]
    fn clear_discards_without_counting_drain_evictions() {
        let mut b = LogBuffer::new(4);
        b.record_store(LineAddr::new(1));
        let evictions_before = b.evictions();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.evictions(), evictions_before);
    }

    #[test]
    fn larger_buffer_coalesces_at_least_as_well() {
        // A reuse-heavy store stream: the number of log writes with a large
        // buffer must not exceed the number with a small buffer.
        let stream: Vec<LineAddr> = (0..200u64).map(|i| LineAddr::new(i % 16)).collect();
        let count = |cap: usize| {
            let mut b = LogBuffer::new(cap);
            let mut writes = 0;
            for &l in &stream {
                if b.record_store(l).is_some() {
                    writes += 1;
                }
            }
            writes + b.drain().len()
        };
        let small = count(4);
        let large = count(64);
        assert!(large <= small, "large {large} vs small {small}");
        // With 16 distinct lines and a 64-entry buffer, exactly 16 log writes.
        assert_eq!(large, 16);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut b = LogBuffer::new(3);
        for i in 0..100u64 {
            b.record_store(LineAddr::new(i));
            assert!(b.len() <= 3);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        LogBuffer::new(0);
    }

    #[test]
    fn one_log_write_per_line_when_buffer_fits_write_set() {
        // Last-store prediction is perfect when the buffer holds the whole
        // write set: any number of stores to k <= capacity distinct lines
        // coalesces to exactly k log writes, all at drain time.
        let mut b = LogBuffer::new(8);
        let mut log_writes = 0;
        for round in 0..50u64 {
            for line in 0..8u64 {
                if b.record_store(LineAddr::new(line)).is_some() {
                    log_writes += 1;
                }
                let _ = round;
            }
        }
        assert_eq!(log_writes, 0, "no evictions while the write set fits");
        assert_eq!(b.drain().len(), 8);
        assert_eq!(b.coalesced_hits(), 50 * 8 - 8);
    }

    #[test]
    fn evictions_counter_equals_total_log_writes() {
        // The `evictions` statistic is the number of log writes the L1
        // controller performed: capacity evictions + explicit removes +
        // the transaction-end drain. Aborts (clear) never count.
        let mut b = LogBuffer::new(2);
        let mut observed = 0u64;
        for line in [1u64, 2, 3, 4] {
            if b.record_store(LineAddr::new(line)).is_some() {
                observed += 1; // capacity evictions: lines 1 and 2
            }
        }
        assert!(b.remove(LineAddr::new(3)));
        observed += 1;
        observed += b.drain().len() as u64; // line 4
        assert_eq!(observed, 4);
        assert_eq!(b.evictions(), observed);
    }

    #[test]
    fn reinsert_after_remove_is_a_fresh_insert() {
        // After an L1 replacement logs a line, a later store to the same
        // line must start a new log entry (the earlier prediction that the
        // last store had happened was wrong, and correctness comes from
        // logging it again).
        let mut b = LogBuffer::new(4);
        b.record_store(LineAddr::new(9));
        assert!(b.remove(LineAddr::new(9)));
        assert!(!b.contains(LineAddr::new(9)));
        assert_eq!(b.record_store(LineAddr::new(9)), None);
        assert!(b.contains(LineAddr::new(9)));
        assert_eq!(b.inserts(), 2);
        assert_eq!(b.coalesced_hits(), 0);
    }

    #[test]
    fn remove_preserves_fifo_order_of_survivors() {
        let mut b = LogBuffer::new(4);
        for line in 1..=4u64 {
            b.record_store(LineAddr::new(line));
        }
        assert!(b.remove(LineAddr::new(2)));
        // Next insert evicts the oldest survivor, line 1.
        assert_eq!(b.record_store(LineAddr::new(5)), None); // room from the remove
        assert_eq!(b.record_store(LineAddr::new(6)), Some(LineAddr::new(1)));
        assert_eq!(
            b.drain(),
            vec![
                LineAddr::new(3),
                LineAddr::new(4),
                LineAddr::new(5),
                LineAddr::new(6)
            ]
        );
    }

    #[test]
    fn peak_occupancy_and_drain_sizes_are_tracked() {
        let mut b = LogBuffer::new(8);
        for i in 0..5u64 {
            b.record_store(LineAddr::new(i));
        }
        assert_eq!(b.peak_occupancy(), 5);
        b.drain_into(&mut Vec::new());
        // A second, smaller transaction does not move the high-water mark.
        b.record_store(LineAddr::new(9));
        b.drain_into(&mut Vec::new());
        assert_eq!(b.peak_occupancy(), 5);
        assert_eq!(b.drain_sizes().count(), 2);
        assert_eq!(b.drain_sizes().sum(), 6);
        assert_eq!(b.drain_sizes().max(), 5);
        // Aborts (clear) record no drain.
        b.record_store(LineAddr::new(11));
        b.clear();
        assert_eq!(b.drain_sizes().count(), 2);

        let mut reg = dhtm_obs::ProbeRegistry::new();
        b.probes_into("core0/log_buffer", &mut reg);
        assert_eq!(reg.counter("core0/log_buffer/peak_occupancy"), 5);
        assert_eq!(reg.counter("core0/log_buffer/inserts"), 7);
        assert!(reg.get("core0/log_buffer/drain_sizes").is_some());
    }

    #[test]
    fn coalescing_rate_improves_with_buffer_size_on_skewed_stream() {
        // A skewed stream (hot lines revisited often, interleaved with cold
        // misses) is where the prediction matters: a bigger buffer keeps hot
        // lines resident longer and coalesces strictly more stores.
        let stream: Vec<LineAddr> = (0..600u64)
            .map(|i| {
                if i % 3 == 0 {
                    LineAddr::new(i) // cold, never reused
                } else {
                    LineAddr::new(1_000 + i % 8) // 8 hot lines
                }
            })
            .collect();
        let hits = |cap: usize| {
            let mut b = LogBuffer::new(cap);
            for &l in &stream {
                b.record_store(l);
            }
            b.coalesced_hits()
        };
        let small = hits(2);
        let large = hits(32);
        assert!(
            large > small,
            "32-entry buffer must coalesce more than 2-entry on a skewed stream \
             (large {large} vs small {small})"
        );
    }
}
