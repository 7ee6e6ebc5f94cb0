//! The shared, bandwidth-limited memory channel.
//!
//! The paper's setup has a peak memory bandwidth of 5.3 GB/s; Section VI-D
//! shows that the gap between DHTM and a non-persistent HTM is largely a
//! bandwidth effect (Table VII sweeps 1×/2×/10× the baseline bandwidth). The
//! [`MemoryChannel`] models the bus as a single shared resource: every
//! transfer (log write, data write-back, line fill) occupies the channel for
//! `bytes / bytes_per_cycle` cycles, and transfers are serialised in the
//! order they are requested.
//!
//! # Determinism: integer fixed-point, no floating-point state
//!
//! The configured rate is an `f64` (it comes from `bandwidth / frequency`),
//! but the channel itself keeps **no floating-point state**. The rate is
//! decomposed into the exact rational `num / den` bytes per cycle that the
//! configuration *means*: the shortest decimal that round-trips the `f64`
//! (the paper's 5.3 GB/s ÷ 2 GHz is the decimal 2.65 = 53/20, which no
//! binary `f64` can represent — the `f64` is the approximation, the decimal
//! is the intent). The busy cursor is kept in integer units of `1/num`
//! cycles; in those units a transfer of `b` bytes lasts exactly `b × den`
//! units, so scheduling is pure integer addition: billions of
//! fractional-rate transfers accumulate with zero drift, an
//! exactly-integral duration (53 bytes at 2.65 B/cycle is exactly 20
//! cycles) is exactly integral, and `next_free_cycle()` and `request()`
//! can never disagree by a phantom idle cycle the way an accumulating
//! `f64` cursor can when rounding residue pushes it just past an integer.

use dhtm_types::config::{MAX_BYTES_PER_CYCLE, MIN_BYTES_PER_CYCLE};

/// A bandwidth-limited, work-conserving memory channel.
///
/// The channel keeps a cursor to the earliest instant at which a new
/// transfer can start, in integer units of `1/num` cycles (see the module
/// docs). A request made at time `now` starts at `max(now, cursor)` and
/// completes after its exact transfer time; the channel is then busy until
/// that completion. Fractional bytes-per-cycle rates are exact by
/// construction.
#[derive(Debug, Clone)]
pub struct MemoryChannel {
    /// Rate numerator: the channel moves `num / den` bytes per cycle.
    num: u128,
    /// Rate denominator (a gcd-reduced power of ten, from the decimal
    /// decomposition).
    den: u128,
    /// Earliest start instant for a new transfer, in `1/num` cycle units
    /// (`cycles = cursor / num`, exactly).
    cursor: u128,
    /// Accumulated busy time in `1/num` cycle units.
    busy: u128,
    /// Accumulated queueing delay in `1/num` cycle units: how long
    /// requests waited behind earlier transfers before starting.
    queue_delay: u128,
    total_bytes: u64,
    transfers: u64,
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Decomposes a positive finite `f64` rate into the reduced `(num, den)`
/// rational it denotes: the shortest decimal that round-trips the `f64`
/// (Rust's `Display`), read as an exact decimal fraction. 2.65 → 53/20,
/// 0.5 → 1/2, 26.5 → 53/2. Round-trips: `num as f64 / den as f64 == rate`.
fn rational_from_f64(rate: f64) -> (u128, u128) {
    // `Display` for f64 never uses scientific notation and emits the
    // shortest digit string that parses back to the same bits.
    let s = format!("{rate}");
    let (int_part, frac_part) = s.split_once('.').unwrap_or((s.as_str(), ""));
    let mut num: u128 = int_part.parse().expect("integer part of a finite f64");
    let mut den: u128 = 1;
    for c in frac_part.chars() {
        num = num * 10 + u128::from(c.to_digit(10).expect("decimal digit"));
        den *= 10;
    }
    let g = gcd(num, den);
    (num / g, den / g)
}

impl MemoryChannel {
    /// Creates a channel with the given sustained rate.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not strictly positive and finite, or
    /// lies outside `[2^-16, 2^16]` (far beyond any physical configuration;
    /// the bound keeps the integer arithmetic comfortably inside `u128`
    /// for any realistic timestamp).
    pub fn new(bytes_per_cycle: f64) -> Self {
        assert!(
            bytes_per_cycle.is_finite() && bytes_per_cycle > 0.0,
            "bytes_per_cycle must be positive, got {bytes_per_cycle}"
        );
        assert!(
            (MIN_BYTES_PER_CYCLE..=MAX_BYTES_PER_CYCLE).contains(&bytes_per_cycle),
            "bytes_per_cycle must lie within [2^-16, 2^16], got {bytes_per_cycle}"
        );
        let (num, den) = rational_from_f64(bytes_per_cycle);
        MemoryChannel {
            num,
            den,
            cursor: 0,
            busy: 0,
            queue_delay: 0,
            total_bytes: 0,
            transfers: 0,
        }
    }

    /// Creates the paper's baseline channel: 5.3 GB/s at 2 GHz = 2.65 B/cycle.
    pub fn isca18_baseline() -> Self {
        MemoryChannel::new(2.65)
    }

    /// The configured transfer rate in bytes per cycle. Derived on demand
    /// from the exact rational; for any rate whose shortest decimal fits
    /// in 15 significant digits (every physical configuration) both
    /// conversions are exact and the division is correctly rounded, so the
    /// getter reproduces the constructor argument.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Duration of a `bytes`-sized transfer in `1/num` cycle units.
    fn duration_units(&self, bytes: u64) -> u128 {
        (bytes as u128)
            .checked_mul(self.den)
            .expect("transfer size overflows the channel clock")
    }

    /// Converts a cycle count to cursor units.
    fn units_of_cycle(&self, cycle: u64) -> u128 {
        (cycle as u128)
            .checked_mul(self.num)
            .expect("timestamp overflows the channel clock")
    }

    /// Schedules a transfer of `bytes` requested at cycle `now`.
    ///
    /// Returns the cycle at which the transfer completes (i.e. the data is
    /// fully on the other side of the bus). Queueing delay caused by earlier
    /// transfers is included.
    #[inline]
    pub fn request(&mut self, now: u64, bytes: u64) -> u64 {
        let arrival = self.units_of_cycle(now);
        let start = self.cursor.max(arrival);
        let duration = self.duration_units(bytes);
        let done = start + duration;
        self.cursor = done;
        self.total_bytes += bytes;
        self.busy += duration;
        self.queue_delay += start - arrival;
        self.transfers += 1;
        done.div_ceil(self.num) as u64
    }

    /// Earliest cycle at which a new transfer could start without queueing
    /// delay. Consistent with [`MemoryChannel::request`] by construction:
    /// a request issued at exactly this cycle starts the moment it is
    /// issued (both views derive from the same exact integer cursor), and
    /// after a transfer it equals the completion cycle `request` returned.
    pub fn next_free_cycle(&self) -> u64 {
        self.cursor.div_ceil(self.num) as u64
    }

    /// Total bytes transferred so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total cycles the channel has been busy, rounded half-up (matching
    /// the rounding of the historical floating-point accumulator).
    pub fn busy_cycles(&self) -> u64 {
        ((self.busy * 2 + self.num) / (self.num * 2)) as u64
    }

    /// Number of individual transfers serviced.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total cycles requests spent queued behind earlier transfers before
    /// starting, rounded half-up like [`MemoryChannel::busy_cycles`].
    pub fn queue_delay_cycles(&self) -> u64 {
        ((self.queue_delay * 2 + self.num) / (self.num * 2)) as u64
    }

    /// Cycles the channel sat idle over `[0, horizon]`: the busy-vs-idle
    /// split of the run (saturating when rounding puts busy past the
    /// horizon).
    pub fn idle_cycles(&self, horizon: u64) -> u64 {
        horizon.saturating_sub(self.busy_cycles())
    }

    /// Registers the channel's probes under the `channel/` scope:
    /// busy-vs-idle cycles over `[0, horizon]`, accumulated queueing
    /// delay, transferred bytes and transfer count.
    pub fn probes_into(&self, horizon: u64, reg: &mut dhtm_obs::ProbeRegistry) {
        reg.add("channel/busy_cycles", self.busy_cycles());
        reg.add("channel/idle_cycles", self.idle_cycles(horizon));
        reg.add("channel/queue_delay_cycles", self.queue_delay_cycles());
        reg.add("channel/total_bytes", self.total_bytes);
        reg.add("channel/transfers", self.transfers);
    }

    /// Channel utilisation over the interval `[0, horizon]` as a fraction.
    /// (Derived output only — the state it is computed from is integral.)
    pub fn utilisation(&self, horizon: u64) -> f64 {
        if horizon == 0 {
            0.0
        } else {
            (self.busy as f64 / (self.num as f64 * horizon as f64)).min(1.0)
        }
    }
}

impl Default for MemoryChannel {
    fn default() -> Self {
        Self::isca18_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_transfer_time() {
        let mut ch = MemoryChannel::new(2.0);
        // 64 bytes at 2 B/cycle = 32 cycles, requested at time 100.
        let done = ch.request(100, 64);
        assert_eq!(done, 132);
        assert_eq!(ch.total_bytes(), 64);
        assert_eq!(ch.transfers(), 1);
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let mut ch = MemoryChannel::new(2.0);
        let d1 = ch.request(0, 64); // finishes at 32
        let d2 = ch.request(0, 64); // queued behind the first, finishes at 64
        assert_eq!(d1, 32);
        assert_eq!(d2, 64);
    }

    #[test]
    fn idle_gaps_are_not_charged() {
        let mut ch = MemoryChannel::new(2.0);
        let d1 = ch.request(0, 64);
        assert_eq!(d1, 32);
        // Next request arrives long after the channel went idle.
        let d2 = ch.request(1000, 64);
        assert_eq!(d2, 1032);
        assert_eq!(ch.busy_cycles(), 64);
    }

    #[test]
    fn fractional_rate_accumulates() {
        let mut ch = MemoryChannel::new(2.65);
        // Paper baseline: a 64-byte line takes ~24.15 cycles.
        let d = ch.request(0, 64);
        assert_eq!(d, 25); // ceiling of 24.15
        let d2 = ch.request(0, 64);
        // Two lines take ~48.3 cycles total; queuing preserved fractions.
        assert_eq!(d2, 49);
    }

    #[test]
    fn higher_bandwidth_finishes_sooner() {
        let mut base = MemoryChannel::new(2.65);
        let mut fast = MemoryChannel::new(26.5);
        let slow_done = base.request(0, 6400);
        let fast_done = fast.request(0, 6400);
        assert!(fast_done * 9 < slow_done, "{fast_done} vs {slow_done}");
    }

    #[test]
    fn utilisation_is_bounded() {
        let mut ch = MemoryChannel::new(1.0);
        ch.request(0, 100);
        assert!((ch.utilisation(200) - 0.5).abs() < 1e-9);
        assert_eq!(ch.utilisation(0), 0.0);
        assert!(ch.utilisation(50) <= 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        MemoryChannel::new(0.0);
    }

    #[test]
    #[should_panic(expected = "2^16")]
    fn absurd_rate_panics() {
        MemoryChannel::new(1.0e12);
    }

    #[test]
    fn default_is_baseline() {
        let ch = MemoryChannel::default();
        assert!((ch.bytes_per_cycle() - 2.65).abs() < 1e-12);
    }

    #[test]
    fn rate_round_trips_exactly() {
        // The rational decomposition of the f64 is lossless, so the getter
        // reproduces the constructor argument bit-for-bit.
        for rate in [2.65, 0.1, 1.0, 26.5, 0.015625, 3.0, 5.3e9 / 2.0e9] {
            let ch = MemoryChannel::new(rate);
            assert_eq!(ch.bytes_per_cycle(), rate, "rate {rate} must round-trip");
        }
    }

    /// The satellite bugfix pinned: the historical model ceiled an
    /// accumulating f64 cursor in `next_free_cycle()` while `request()`
    /// scheduled against the un-rounded cursor, so rounding residue could
    /// make the two views differ by one idle cycle at integral boundaries.
    /// Both views now derive from the same exact integer cursor.
    #[test]
    fn next_free_cycle_is_consistent_with_request_at_the_boundary() {
        // Integral-duration stream: the cursor lands exactly on a cycle
        // boundary, and next_free_cycle() must equal the completion cycle
        // request() reported — no phantom extra cycle.
        let mut ch = MemoryChannel::new(0.5);
        let done = ch.request(0, 1); // exactly 2 cycles
        assert_eq!(done, 2);
        assert_eq!(ch.next_free_cycle(), done);
        // A request issued at exactly next_free_cycle() sees zero queueing
        // delay: it completes at issue time + its own exact duration.
        let done2 = ch.request(ch.next_free_cycle(), 1);
        assert_eq!(done2, 4);
        assert_eq!(ch.next_free_cycle(), 4);

        // Decimal boundary: 53 bytes at 2.65 B/cycle (= 53/20) is exactly
        // 20 cycles. Twenty such transfers land the cursor exactly on
        // cycle 400, and both views must report exactly that — the f64
        // model could end up a rounding residue above 400 here and
        // advertise a phantom busy cycle 401.
        let mut ch = MemoryChannel::new(2.65);
        let mut last_done = 0;
        for i in 1..=20u64 {
            last_done = ch.request(0, 53);
            assert_eq!(last_done, i * 20, "integral durations stay integral");
        }
        assert_eq!(ch.next_free_cycle(), last_done);
        assert_eq!(last_done, 400);
    }

    #[test]
    fn queue_delay_counts_waiting_not_service() {
        let mut ch = MemoryChannel::new(2.0);
        // First request at an idle channel: no queueing delay.
        ch.request(0, 64); // busy until cycle 32
        assert_eq!(ch.queue_delay_cycles(), 0);
        // Second request at cycle 10 waits 22 cycles behind the first.
        ch.request(10, 64);
        assert_eq!(ch.queue_delay_cycles(), 22);
        // A request after the channel went idle adds no delay.
        ch.request(1000, 64);
        assert_eq!(ch.queue_delay_cycles(), 22);
        assert_eq!(ch.busy_cycles(), 96);
        assert_eq!(ch.idle_cycles(1032), 1032 - 96);
    }

    #[test]
    fn probes_cover_the_busy_idle_split() {
        let mut ch = MemoryChannel::new(2.0);
        ch.request(0, 64);
        ch.request(0, 64);
        let mut reg = dhtm_obs::ProbeRegistry::new();
        ch.probes_into(100, &mut reg);
        assert_eq!(reg.counter("channel/busy_cycles"), 64);
        assert_eq!(reg.counter("channel/idle_cycles"), 36);
        assert_eq!(reg.counter("channel/queue_delay_cycles"), 32);
        assert_eq!(reg.counter("channel/total_bytes"), 128);
        assert_eq!(reg.counter("channel/transfers"), 2);
    }

    #[test]
    fn rates_decompose_to_their_decimal_rational() {
        assert_eq!(rational_from_f64(2.65), (53, 20));
        assert_eq!(rational_from_f64(5.3), (53, 10));
        assert_eq!(rational_from_f64(26.5), (53, 2));
        assert_eq!(rational_from_f64(0.5), (1, 2));
        assert_eq!(rational_from_f64(2.0), (2, 1));
        assert_eq!(rational_from_f64(0.1), (1, 10));
    }

    #[test]
    fn fractional_cursor_rounds_the_same_way_in_both_views() {
        let mut ch = MemoryChannel::new(2.65);
        let done = ch.request(0, 64); // cursor at ~24.15 cycles
        assert_eq!(done, 25);
        assert_eq!(ch.next_free_cycle(), 25);
        // A request at the advertised next_free_cycle starts exactly there.
        let done2 = ch.request(25, 64);
        assert_eq!(done2, 50); // 25 + 24.15 → ceil 50
    }

    #[test]
    fn millions_of_fractional_transfers_do_not_drift() {
        // Back-to-back 64-byte transfers at the paper rate: after k
        // transfers the exact cursor is k × 64 × den units. Any drift at
        // all would eventually flip a ceil; the fixed-point cursor matches
        // the closed form exactly at every checkpoint.
        let mut ch = MemoryChannel::new(2.65);
        let (num, den) = rational_from_f64(2.65);
        let mut k: u128 = 0;
        for checkpoint in 0..64 {
            for _ in 0..10_000 {
                ch.request(0, 64);
            }
            k += 10_000;
            let exact_units = k * 64 * den;
            assert_eq!(
                u128::from(ch.next_free_cycle()),
                exact_units.div_ceil(num),
                "drift after {k} transfers (checkpoint {checkpoint})"
            );
        }
    }
}
