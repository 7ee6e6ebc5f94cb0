//! The memory system: private L1s, shared LLC/directory, persistent memory
//! and the bandwidth-limited memory channel, tied together by a MESI
//! directory protocol with forwarding.
//!
//! All protocol actions are processed atomically (no transient states) but
//! charge realistic latencies from [`LatencyConfig`]; transfers to and from
//! persistent memory additionally occupy the shared [`MemoryChannel`], which
//! is how log-write and write-back traffic contends with demand fills
//! (Section VI-D of the paper).

use dhtm_cache::l1::{L1Cache, L1Entry, StoreKind};
use dhtm_cache::llc::{DirectoryEntry, LlcCache};
use dhtm_cache::mesi::MesiState;
use dhtm_nvm::bandwidth::MemoryChannel;
use dhtm_nvm::domain::PersistentDomain;
use dhtm_types::addr::{Address, LineAddr, LineData, LINE_SIZE};
use dhtm_types::config::{LatencyConfig, SystemConfig};
use dhtm_types::ids::CoreId;

use crate::probe::{ConflictArbiter, ProbeDecision, ProbeInfo, ProbeKind};

/// Which level of the hierarchy satisfied an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Satisfied by the requesting core's L1.
    L1,
    /// Satisfied by the LLC (including upgrades and cache-to-cache forwards).
    Llc,
    /// Required a persistent-memory fill.
    Memory,
}

/// The result of a load or store access.
#[derive(Debug, Clone)]
pub struct AccessOutcome {
    /// Cycle at which the access completes.
    pub done: u64,
    /// Level that satisfied the access.
    pub hit_level: HitLevel,
    /// The access was cancelled because the arbiter resolved a conflict in
    /// favour of the holder; the requester's transaction must abort. No
    /// protocol state was changed.
    pub aborted_by_conflict: bool,
    /// The access was NACKed (LogTM-style); retry later. No state changed.
    pub nacked: bool,
    /// Holders whose transactions lost the conflict; the engine must abort
    /// them.
    pub holders_to_abort: Vec<CoreId>,
    /// A line evicted from the requester's L1 to make room for the fill. The
    /// engine decides what the eviction means (write-back, overflow, abort).
    pub evicted_victim: Option<(LineAddr, L1Entry)>,
    /// The requester re-fetched a line that it itself had overflowed to the
    /// LLC earlier in the same transaction (the directory still names it as
    /// owner). DHTM must re-mark the line as write-set (Section III-C).
    pub reread_own_overflow: bool,
}

impl AccessOutcome {
    fn new(done: u64, hit_level: HitLevel) -> Self {
        AccessOutcome {
            done,
            hit_level,
            aborted_by_conflict: false,
            nacked: false,
            holders_to_abort: Vec::new(),
            evicted_victim: None,
            reread_own_overflow: false,
        }
    }

    fn cancelled(done: u64, nacked: bool) -> Self {
        AccessOutcome {
            done,
            hit_level: HitLevel::Llc,
            aborted_by_conflict: !nacked,
            nacked,
            holders_to_abort: Vec::new(),
            evicted_victim: None,
            reread_own_overflow: false,
        }
    }

    /// Whether the access hit in the requester's L1.
    pub fn l1_hit(&self) -> bool {
        matches!(self.hit_level, HitLevel::L1)
    }

    /// Whether the access proceeded (was neither cancelled nor NACKed).
    pub fn proceeded(&self) -> bool {
        !self.aborted_by_conflict && !self.nacked
    }
}

/// Memory-system statistics (fed into the run statistics by the simulator).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Loads/stores that hit in the requesting L1.
    pub l1_hits: u64,
    /// Loads/stores that missed the requesting L1.
    pub l1_misses: u64,
    /// L1 misses satisfied by the LLC.
    pub llc_hits: u64,
    /// L1 misses that also missed the LLC.
    pub llc_misses: u64,
    /// Cache lines read from persistent memory.
    pub nvm_line_reads: u64,
    /// Cache lines written in place to persistent memory.
    pub nvm_line_writes: u64,
    /// Bytes of log traffic written to persistent memory.
    pub log_bytes: u64,
    /// Bytes of in-place data write-back traffic.
    pub data_writeback_bytes: u64,
    /// Number of probes (forwards/invalidations) delivered to remote L1s.
    pub probes: u64,
    /// Probes on which the arbiter reported a conflict (either side aborted).
    pub conflicts: u64,
    /// Lines back-invalidated from L1s because of LLC evictions.
    pub back_invalidations: u64,
    /// Times the directory walked a non-empty remote-sharer set to deliver
    /// probes (one walk may deliver several probes; see `probes`).
    pub sharer_walks: u64,
    /// L1 copies invalidated at the directory's behest: store-path
    /// invalidation probes, LLC back-invalidations and abort-path
    /// invalidations.
    pub dir_invalidations: u64,
}

/// The complete simulated memory hierarchy.
#[derive(Debug)]
pub struct MemorySystem {
    l1s: Vec<L1Cache>,
    llc: LlcCache,
    domain: PersistentDomain,
    channel: MemoryChannel,
    latency: LatencyConfig,
    stats: MemStats,
    /// Per-core flag raised when an LLC eviction discarded a speculative
    /// overflowed line owned by that core's thread (see
    /// [`MemorySystem::take_speculative_loss`]).
    speculative_loss: Vec<bool>,
}

impl MemorySystem {
    /// Builds a memory system from the system configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        MemorySystem {
            l1s: (0..cfg.num_cores).map(|_| L1Cache::new(cfg.l1)).collect(),
            llc: LlcCache::new(cfg.llc, cfg.llc_tiles),
            domain: PersistentDomain::new(
                cfg.num_cores,
                cfg.log_region_records,
                cfg.overflow_list_entries,
            ),
            channel: MemoryChannel::new(cfg.bytes_per_cycle()),
            latency: cfg.latency,
            stats: MemStats::default(),
            speculative_loss: vec![false; cfg.num_cores],
        }
    }

    /// Consumes and returns `core`'s speculative-loss flag: `true` means an
    /// LLC eviction discarded an overflowed write-set line of the in-flight
    /// transaction on that core, whose speculative data is now gone — the
    /// transaction can no longer commit and must abort (the write set
    /// exceeded what the LLC could retain).
    #[inline]
    pub fn take_speculative_loss(&mut self, core: CoreId) -> bool {
        std::mem::take(&mut self.speculative_loss[core.get()])
    }

    /// Number of cores/L1s.
    pub fn num_cores(&self) -> usize {
        self.l1s.len()
    }

    /// The latency configuration in force.
    #[inline]
    pub fn latency(&self) -> &LatencyConfig {
        &self.latency
    }

    /// Immutable access to a core's L1.
    #[inline]
    pub fn l1(&self, core: CoreId) -> &L1Cache {
        &self.l1s[core.get()]
    }

    /// Mutable access to a core's L1.
    #[inline]
    pub fn l1_mut(&mut self, core: CoreId) -> &mut L1Cache {
        &mut self.l1s[core.get()]
    }

    /// Immutable access to the LLC.
    #[inline]
    pub fn llc(&self) -> &LlcCache {
        &self.llc
    }

    /// Mutable access to the LLC.
    pub fn llc_mut(&mut self) -> &mut LlcCache {
        &mut self.llc
    }

    /// Immutable access to the persistence domain.
    #[inline]
    pub fn domain(&self) -> &PersistentDomain {
        &self.domain
    }

    /// Mutable access to the persistence domain.
    #[inline]
    pub fn domain_mut(&mut self) -> &mut PersistentDomain {
        &mut self.domain
    }

    /// Immutable access to the memory channel.
    pub fn channel(&self) -> &MemoryChannel {
        &self.channel
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    // ------------------------------------------------------------------
    // Word-level helpers (operate on data already resident in an L1).
    // ------------------------------------------------------------------

    /// Reads a word from a line resident in `core`'s L1.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident (callers must first perform a
    /// successful [`MemorySystem::load`] or [`MemorySystem::store`]).
    #[inline]
    pub fn read_word_in_l1(&self, core: CoreId, addr: Address) -> u64 {
        self.l1s[core.get()].read_word(addr.line(), addr.word_index())
    }

    /// Writes a word to a line resident in `core`'s L1 and updates the
    /// line's dirty and write bits as `kind` says, in one L1 lookup. Returns
    /// whether the write bit was already set (see [`L1Cache::store_word`]).
    ///
    /// The engines call this after [`MemorySystem::store`] and after handling
    /// its evicted victim, never before: a fatal victim aborts the
    /// transaction, and the word must not be written then.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    #[inline]
    pub fn store_word_in_l1(
        &mut self,
        core: CoreId,
        addr: Address,
        value: u64,
        kind: StoreKind,
    ) -> bool {
        self.l1s[core.get()].store_word(addr.line(), addr.word_index(), value, kind)
    }

    // ------------------------------------------------------------------
    // Persistent-memory traffic helpers.
    // ------------------------------------------------------------------

    /// Sends `bytes` of log traffic to persistent memory, returning the cycle
    /// at which the data is durable (transfer + NVM write latency).
    #[inline]
    pub fn persist_log_bytes(&mut self, now: u64, bytes: u64) -> u64 {
        self.stats.log_bytes += bytes;
        let transferred = self.channel.request(now, bytes);
        transferred + self.latency.nvm_write
    }

    /// Writes a full line in place to persistent memory (data write-back),
    /// returning the durability point.
    #[inline]
    pub fn persist_data_line(&mut self, now: u64, line: LineAddr, data: LineData) -> u64 {
        self.stats.data_writeback_bytes += LINE_SIZE as u64;
        self.stats.nvm_line_writes += 1;
        self.domain.write_line(line, data);
        let transferred = self.channel.request(now, LINE_SIZE as u64);
        transferred + self.latency.nvm_write
    }

    fn fetch_line_from_memory(&mut self, now: u64, line: LineAddr) -> (LineData, u64) {
        self.stats.nvm_line_reads += 1;
        let data = self.domain.read_line(line);
        let transferred = self.channel.request(now, LINE_SIZE as u64);
        (data, transferred + self.latency.nvm_read)
    }

    // ------------------------------------------------------------------
    // Probes.
    // ------------------------------------------------------------------

    fn probe_info(
        &self,
        requester: CoreId,
        holder: CoreId,
        line: LineAddr,
        kind: ProbeKind,
    ) -> ProbeInfo {
        let entry = self.l1s[holder.get()].entry(line);
        ProbeInfo {
            requester,
            holder,
            line,
            kind,
            holder_has_line: entry.is_some(),
            holder_write_bit: entry.is_some_and(|e| e.write_bit),
            holder_read_bit: entry.is_some_and(|e| e.read_bit),
            holder_dirty: entry.is_some_and(|e| e.dirty),
        }
    }

    // ------------------------------------------------------------------
    // LLC fill / eviction.
    // ------------------------------------------------------------------

    /// Ensures `line` is present in the LLC, filling from memory if needed.
    /// Returns the completion time and whether the fill missed the LLC.
    fn ensure_llc_line(&mut self, now: u64, line: LineAddr) -> (u64, bool) {
        // One probe records the hit or the miss.
        if self.llc.access(line).is_some() {
            return (now, false);
        }
        let (data, done) = self.fetch_line_from_memory(now, line);
        let victim = self
            .llc
            .insert(line, DirectoryEntry::new(MesiState::Invalid, data));
        if let Some((vline, ventry)) = victim {
            self.handle_llc_eviction(now, vline, ventry);
        }
        (done, true)
    }

    fn handle_llc_eviction(&mut self, now: u64, line: LineAddr, entry: DirectoryEntry) {
        // Back-invalidate any L1 copies (inclusive hierarchy).
        for core in 0..self.l1s.len() {
            if entry.is_sharer(CoreId::new(core)) && self.l1s[core].invalidate(line).is_some() {
                self.stats.back_invalidations += 1;
                self.stats.dir_invalidations += 1;
            }
        }
        if entry.dirty {
            // A dirty line recorded in an overflow list holds *speculative*
            // data of an in-flight redo-logged transaction (DHTM's L1→LLC
            // write-set overflow). Writing it in place would put uncommitted
            // data in persistent memory, which redo logging forbids — the
            // copy is discarded instead, and the owning transaction is
            // flagged to abort (write set exceeded what the LLC could
            // retain).
            if let Some(owner) = self.domain.speculative_overflow_owner(line) {
                if owner.get() < self.speculative_loss.len() {
                    self.speculative_loss[owner.get()] = true;
                }
                return;
            }
            self.stats.data_writeback_bytes += LINE_SIZE as u64;
            self.stats.nvm_line_writes += 1;
            self.domain.write_line(line, entry.data);
            self.channel.request(now, LINE_SIZE as u64);
        }
    }

    // ------------------------------------------------------------------
    // Loads.
    // ------------------------------------------------------------------

    /// Performs a load of `line` on behalf of `core`.
    ///
    /// On success the line is resident and readable in `core`'s L1 (the entry
    /// carries whatever read/write bits it had before; newly filled lines
    /// have both bits clear — setting the read bit is the engine's job).
    #[inline]
    pub fn load(
        &mut self,
        core: CoreId,
        line: LineAddr,
        now: u64,
        arbiter: &mut dyn ConflictArbiter,
    ) -> AccessOutcome {
        let l1_latency = self.latency.l1_hit;
        // One probe of the requester's L1 touches LRU and records the L1's
        // own hit or miss, whatever the line's state.
        if self.l1s[core.get()]
            .access(line)
            .is_some_and(|e| e.state.can_read())
        {
            self.stats.l1_hits += 1;
            return AccessOutcome::new(now + l1_latency, HitLevel::L1);
        }
        self.stats.l1_misses += 1;

        let mut latency = l1_latency + self.latency.llc_hit;
        let (fill_done, llc_missed) = self.ensure_llc_line(now, line);
        let mut done = (now + latency).max(fill_done);
        let mut hit_level = if llc_missed {
            HitLevel::Memory
        } else {
            HitLevel::Llc
        };
        if llc_missed {
            self.stats.llc_misses += 1;
        } else {
            self.stats.llc_hits += 1;
        }

        let mut outcome_holders = Vec::new();
        let mut reread_own_overflow = false;

        // Directory action.
        let entry = *self.llc.entry(line).expect("line just ensured in LLC");
        let new_l1_state;
        match entry.state {
            MesiState::Invalid => {
                // No L1 holds the line: grant Exclusive.
                let e = self.llc.entry_mut(line).expect("present");
                e.state = MesiState::Exclusive;
                e.clear_sharers();
                e.add_sharer(core);
                new_l1_state = MesiState::Exclusive;
            }
            MesiState::Shared => {
                let e = self.llc.entry_mut(line).expect("present");
                e.add_sharer(core);
                new_l1_state = MesiState::Shared;
            }
            MesiState::Exclusive | MesiState::Modified => {
                if entry.is_sharer(core) {
                    // The requester itself is the stale owner: it re-reads a
                    // line it overflowed earlier in this transaction.
                    reread_own_overflow = true;
                    new_l1_state = MesiState::Modified;
                } else if entry.sharer_count() == 0 {
                    // Ownerless exclusive state (the previous owner dropped
                    // its copy without a write-back notification): grant the
                    // line afresh.
                    let e = self.llc.entry_mut(line).expect("present");
                    e.state = MesiState::Exclusive;
                    e.add_sharer(core);
                    new_l1_state = MesiState::Exclusive;
                } else {
                    // Forward to the owner.
                    let owner = entry.first_sharer().expect("owned line has an owner");
                    let probe = self.probe_info(core, owner, line, ProbeKind::FwdGetS);
                    self.stats.probes += 1;
                    self.stats.sharer_walks += 1;
                    let decision = arbiter.decide(&probe);
                    match decision {
                        ProbeDecision::Nack => {
                            self.stats.conflicts += 1;
                            return AccessOutcome::cancelled(now + latency, true);
                        }
                        ProbeDecision::AbortRequester => {
                            self.stats.conflicts += 1;
                            return AccessOutcome::cancelled(now + latency, false);
                        }
                        ProbeDecision::Proceed | ProbeDecision::AbortHolder => {
                            let holder_aborts = decision == ProbeDecision::AbortHolder;
                            if holder_aborts {
                                self.stats.conflicts += 1;
                                outcome_holders.push(owner);
                            }
                            latency += self.latency.coherence_hop;
                            done = done.max(now + latency);
                            // The owner (if it still has the line) supplies
                            // the data and downgrades to Shared — unless the
                            // owner is being *aborted*: its dirty copy is
                            // speculative state that the abort discards, so
                            // it must never reach the LLC (and from there,
                            // persistent memory). The requester then reads
                            // the pre-transactional LLC/memory copy.
                            if let Some(owner_entry) = self.l1s[owner.get()].entry_mut(line) {
                                let owner_data = owner_entry.data;
                                let owner_dirty = owner_entry.dirty && !holder_aborts;
                                owner_entry.state = MesiState::Shared;
                                owner_entry.dirty = false;
                                let e = self.llc.entry_mut(line).expect("present");
                                if owner_dirty {
                                    e.data = owner_data;
                                    e.dirty = true;
                                }
                                e.state = MesiState::Shared;
                                e.add_sharer(core);
                            } else {
                                // Stale owner (overflowed or silently evicted
                                // line): the LLC copy is current.
                                let e = self.llc.entry_mut(line).expect("present");
                                e.remove_sharer(owner);
                                e.state = MesiState::Shared;
                                e.add_sharer(core);
                            }
                            new_l1_state = MesiState::Shared;
                            hit_level = HitLevel::Llc;
                        }
                    }
                }
            }
        }

        // Fill the requester's L1.
        let fill_data = self.llc.entry(line).expect("present").data;
        let victim = self.l1s[core.get()].insert(line, L1Entry::new(new_l1_state, fill_data));

        let mut outcome = AccessOutcome::new(done.max(now + latency), hit_level);
        outcome.holders_to_abort = outcome_holders;
        outcome.evicted_victim = victim;
        outcome.reread_own_overflow = reread_own_overflow;
        outcome
    }

    // ------------------------------------------------------------------
    // Stores.
    // ------------------------------------------------------------------

    /// Obtains write permission for `line` on behalf of `core` (the paper's
    /// GetM/upgrade). On success the line is resident and writable in
    /// `core`'s L1; the engine then writes the word, and sets the write bit,
    /// with [`MemorySystem::store_word_in_l1`].
    #[inline]
    pub fn store(
        &mut self,
        core: CoreId,
        line: LineAddr,
        now: u64,
        arbiter: &mut dyn ConflictArbiter,
    ) -> AccessOutcome {
        let l1_latency = self.latency.l1_hit;
        // One probe of the requester's L1, as in `load`.
        let l1_state = match self.l1s[core.get()].access(line) {
            Some(entry) if entry.state.can_write() => {
                self.stats.l1_hits += 1;
                // E -> M transition is silent. The directory is written even
                // when the L1 line was already Modified: a core re-reading a
                // line it overflowed gets it Modified while the directory
                // may still say Exclusive.
                entry.state = MesiState::Modified;
                if let Some(dir) = self.llc.entry_mut(line) {
                    dir.state = MesiState::Modified;
                }
                return AccessOutcome::new(now + l1_latency, HitLevel::L1);
            }
            entry => entry.map(|e| e.state),
        };

        let had_shared_copy = l1_state.is_some_and(MesiState::can_read);
        if had_shared_copy {
            // Upgrade: the L1 access itself is a hit, but the directory must
            // invalidate the other sharers.
            self.stats.l1_hits += 1;
        } else {
            self.stats.l1_misses += 1;
        }

        let mut latency = l1_latency + self.latency.llc_hit;
        let (fill_done, llc_missed) = self.ensure_llc_line(now, line);
        let mut done = (now + latency).max(fill_done);
        let hit_level = if llc_missed {
            self.stats.llc_misses += 1;
            HitLevel::Memory
        } else {
            self.stats.llc_hits += 1;
            // Upgrades are classified as LLC hits (see `HitLevel::Llc`).
            HitLevel::Llc
        };

        let mut holders_to_abort = Vec::new();
        let mut reread_own_overflow = false;

        let entry = *self.llc.entry(line).expect("line ensured");
        // Every remote holder that must be probed, as a bitmask — the probe
        // loops below walk it lowest-core-first (the `sharers_iter` order)
        // without allocating.
        let remote_mask = {
            let mut m = entry.sharers;
            if core.get() < 64 {
                m &= !(1u64 << core.get());
            }
            m
        };

        if entry.state.is_exclusive_like() && entry.is_sharer(core) && !had_shared_copy {
            // Requester is the stale owner re-writing a line it overflowed.
            reread_own_overflow = true;
        }

        // First pass: collect decisions without mutating anything. A
        // decision is one of four cases, so a bitmask per case replaces the
        // former per-access `Vec<(CoreId, ProbeDecision)>`.
        let mut abort_holder_mask = 0u64;
        let mut saw_nack = false;
        let mut saw_abort_requester = false;
        if remote_mask != 0 {
            self.stats.sharer_walks += 1;
        }
        let mut mask = remote_mask;
        while mask != 0 {
            let holder = CoreId::new(mask.trailing_zeros() as usize);
            mask &= mask - 1;
            let kind = if entry.state.is_exclusive_like() {
                ProbeKind::FwdGetM
            } else {
                ProbeKind::Invalidate
            };
            let probe = self.probe_info(core, holder, line, kind);
            self.stats.probes += 1;
            match arbiter.decide(&probe) {
                ProbeDecision::Nack => saw_nack = true,
                ProbeDecision::AbortRequester => saw_abort_requester = true,
                ProbeDecision::AbortHolder => abort_holder_mask |= 1u64 << holder.get(),
                ProbeDecision::Proceed => {}
            }
        }
        if saw_nack {
            self.stats.conflicts += 1;
            return AccessOutcome::cancelled(now + latency, true);
        }
        if saw_abort_requester {
            self.stats.conflicts += 1;
            return AccessOutcome::cancelled(now + latency, false);
        }

        // Second pass: apply the protocol actions.
        if remote_mask != 0 {
            latency += self.latency.coherence_hop;
            done = done.max(now + latency);
        }
        let mut mask = remote_mask;
        while mask != 0 {
            let holder = CoreId::new(mask.trailing_zeros() as usize);
            mask &= mask - 1;
            let holder_aborts = abort_holder_mask & (1u64 << holder.get()) != 0;
            if holder_aborts {
                self.stats.conflicts += 1;
                holders_to_abort.push(holder);
            }
            if let Some(holder_entry) = self.l1s[holder.get()].invalidate(line) {
                self.stats.dir_invalidations += 1;
                // A dirty remote copy supplies the latest data — unless the
                // holder is being aborted: its dirty copy is speculative
                // state the abort discards, and forwarding it would let
                // uncommitted data reach the LLC (and persistent memory).
                if holder_entry.dirty && !holder_aborts {
                    let e = self.llc.entry_mut(line).expect("present");
                    e.data = holder_entry.data;
                    e.dirty = true;
                }
            }
            let e = self.llc.entry_mut(line).expect("present");
            e.remove_sharer(holder);
        }

        // Directory now grants Modified to the requester.
        {
            let e = self.llc.entry_mut(line).expect("present");
            e.state = MesiState::Modified;
            if !reread_own_overflow {
                e.clear_sharers();
            }
            e.add_sharer(core);
        }

        // Fill or upgrade the requester's L1.
        let mut victim = None;
        let fill_data = self.llc.entry(line).expect("present").data;
        if let Some(own) = self.l1s[core.get()].entry_mut(line) {
            own.state = MesiState::Modified;
        } else {
            victim =
                self.l1s[core.get()].insert(line, L1Entry::new(MesiState::Modified, fill_data));
        }

        let mut outcome = AccessOutcome::new(
            done.max(now + latency),
            if had_shared_copy {
                HitLevel::Llc
            } else {
                hit_level
            },
        );
        outcome.holders_to_abort = holders_to_abort;
        outcome.evicted_victim = victim;
        outcome.reread_own_overflow = reread_own_overflow;
        outcome
    }

    // ------------------------------------------------------------------
    // Eviction / write-back helpers used by the transaction engines.
    // ------------------------------------------------------------------

    /// Handles the eviction of a non-transactional victim from `core`'s L1:
    /// dirty data is written back to the LLC (directory updated precisely);
    /// clean lines notify the directory so it stays precise. Returns the
    /// completion time.
    #[inline]
    pub fn evict_nontransactional(
        &mut self,
        core: CoreId,
        line: LineAddr,
        entry: &L1Entry,
        now: u64,
    ) -> u64 {
        if entry.dirty {
            self.writeback_to_llc(core, line, entry.data, now, false)
        } else {
            self.notify_clean_eviction(core, line);
            now
        }
    }

    /// Writes `data` back to the LLC on behalf of `core`.
    ///
    /// With `keep_owner` = `false` this is a normal PutM: the directory
    /// removes the core from the sharer vector and the line becomes unowned.
    /// With `keep_owner` = `true` the directory state and sharer vector are
    /// left untouched — the "sticky" state DHTM uses when a transactional
    /// write-set line overflows (Section III-C): the LLC data is updated and
    /// marked dirty, but the line still appears to be owned by the core so
    /// conflicting requests keep getting forwarded there.
    #[inline]
    pub fn writeback_to_llc(
        &mut self,
        core: CoreId,
        line: LineAddr,
        data: LineData,
        now: u64,
        keep_owner: bool,
    ) -> u64 {
        let (done, _) = self.ensure_llc_line(now, line);
        let e = self.llc.entry_mut(line).expect("ensured");
        e.data = data;
        e.dirty = true;
        if !keep_owner {
            e.remove_sharer(core);
            if e.sharer_count() == 0 {
                e.state = MesiState::Invalid;
            }
        }
        done.max(now) + self.latency.llc_hit
    }

    /// Notifies the directory that `core` dropped its clean copy of `line`
    /// (a PutS/PutE), keeping the sharer vector precise.
    #[inline]
    pub fn notify_clean_eviction(&mut self, core: CoreId, line: LineAddr) {
        if let Some(e) = self.llc.entry_mut(line) {
            e.remove_sharer(core);
            if e.sharer_count() == 0 {
                e.state = MesiState::Invalid;
            }
        }
    }

    /// Write-back of a committed line from `core`'s L1 to the LLC *and* in
    /// place to persistent memory (the commit-completion path of Figure 4f).
    /// The L1 line's dirty flag is cleared but the line stays resident.
    /// Returns the durability point, or `None` if the line is no longer in
    /// the L1 (e.g. it was forwarded to another core after commit).
    pub fn l1_writeback_line_to_memory(
        &mut self,
        core: CoreId,
        line: LineAddr,
        now: u64,
    ) -> Option<u64> {
        let entry = self.l1s[core.get()].entry_mut(line)?;
        let data = entry.data;
        entry.dirty = false;
        // Update the LLC copy (if present) so the hierarchy stays coherent.
        if let Some(e) = self.llc.entry_mut(line) {
            e.data = data;
            e.dirty = false;
        }
        Some(self.persist_data_line(now, line, data))
    }

    /// Composes the in-place image of `line` from the current persistent
    /// copy overlaid with the word values in `values` (word address →
    /// value), refreshes any cached copies (left clean), and persists the
    /// composed line. This is the write-aside commit path shared by SO and
    /// the sdTM/DHTM fallbacks: the durable log carried the stores, the
    /// cache was kept clean, so the line may have left the hierarchy at any
    /// point and must be re-materialised from the engine's write-aside set.
    /// Returns the durability point.
    pub fn persist_composed_line(
        &mut self,
        core: CoreId,
        line: LineAddr,
        values: &std::collections::BTreeMap<Address, u64>,
        now: u64,
    ) -> u64 {
        let mut data = self.domain.read_line(line);
        for (w, slot) in data.iter_mut().enumerate() {
            let addr = line.word_address(dhtm_types::addr::WordIndex::new(w));
            if let Some(&v) = values.get(&addr) {
                *slot = v;
            }
        }
        if let Some(e) = self.l1s[core.get()].entry_mut(line) {
            e.data = data;
            e.dirty = false;
        }
        if let Some(e) = self.llc.entry_mut(line) {
            e.data = data;
            e.dirty = false;
        }
        self.persist_data_line(now, line, data)
    }

    /// Write-back of an overflowed line from the LLC in place to persistent
    /// memory (commit-completion for overflowed lines). The directory entry
    /// is cleaned: dirty bit cleared, sharer vector cleared, state Invalid.
    /// Returns the durability point, or `None` if the line is not in the LLC.
    pub fn llc_writeback_line_to_memory(&mut self, line: LineAddr, now: u64) -> Option<u64> {
        let entry = self.llc.entry_mut(line)?;
        let data = entry.data;
        entry.dirty = false;
        entry.clear_sharers();
        entry.state = MesiState::Invalid;
        Some(self.persist_data_line(now, line, data))
    }

    /// Invalidates an overflowed line in the LLC (abort-completion,
    /// Figure 4h): the speculative data is discarded and the directory entry
    /// cleared. Returns `true` if the line was present.
    #[inline]
    pub fn invalidate_llc_line(&mut self, line: LineAddr) -> bool {
        self.llc.invalidate(line).is_some()
    }

    /// Invalidates a line in `core`'s L1 (abort path), informing the
    /// directory. Returns the removed entry.
    #[inline]
    pub fn invalidate_l1_line(&mut self, core: CoreId, line: LineAddr) -> Option<L1Entry> {
        let removed = self.l1s[core.get()].invalidate(line);
        if removed.is_some() {
            self.stats.dir_invalidations += 1;
            self.notify_clean_eviction(core, line);
        }
        removed
    }

    /// Registers the whole hierarchy's counters into `reg`: per-core L1s
    /// (`coreN/l1/...`), the LLC, the directory/coherence counters, the
    /// persistence domain and the memory channel (whose busy/idle split needs
    /// the run's end-of-run `horizon` cycle).
    pub fn probes_into(&self, horizon: u64, reg: &mut dhtm_obs::ProbeRegistry) {
        for (i, l1) in self.l1s.iter().enumerate() {
            reg.add(&format!("core{i}/l1/hits"), l1.hits());
            reg.add(&format!("core{i}/l1/misses"), l1.misses());
            reg.add(&format!("core{i}/l1/evictions"), l1.evictions());
        }
        reg.add("llc/hits", self.llc.hits());
        reg.add("llc/misses", self.llc.misses());
        reg.add("llc/evictions", self.llc.evictions());
        reg.add("dir/probes", self.stats.probes);
        reg.add("dir/conflicts", self.stats.conflicts);
        reg.add("dir/sharer_walks", self.stats.sharer_walks);
        reg.add("dir/invalidations", self.stats.dir_invalidations);
        reg.add("dir/back_invalidations", self.stats.back_invalidations);
        reg.add("mem/nvm_line_reads", self.stats.nvm_line_reads);
        reg.add("mem/nvm_line_writes", self.stats.nvm_line_writes);
        reg.add("mem/log_bytes", self.stats.log_bytes);
        reg.add("mem/data_writeback_bytes", self.stats.data_writeback_bytes);
        self.domain.probes_into(reg);
        self.channel.probes_into(horizon, reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoConflicts;
    use dhtm_types::config::SystemConfig;

    fn memsys() -> MemorySystem {
        MemorySystem::new(&SystemConfig::small_test())
    }

    fn c(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn probes_cover_every_hierarchy_level() {
        let mut m = memsys();
        let mut arb = NoConflicts;
        let line = LineAddr::new(100);
        // Core 1 reads the line, then core 0 writes it: the store walks the
        // remote sharer set and invalidates core 1's copy.
        m.load(c(1), line, 0, &mut arb);
        m.store(c(0), line, 10, &mut arb);
        let mut reg = dhtm_obs::ProbeRegistry::new();
        m.probes_into(1000, &mut reg);
        assert_eq!(reg.counter("core1/l1/misses"), 1);
        assert_eq!(reg.counter("dir/sharer_walks"), 1);
        assert_eq!(reg.counter("dir/invalidations"), 1);
        assert_eq!(reg.counter("dir/probes"), m.stats().probes);
        assert_eq!(reg.counter("mem/nvm_line_reads"), 1);
        assert!(reg.get("channel/idle_cycles").is_some());
        assert!(reg.get("domain/mutations").is_some());
    }

    #[test]
    fn cold_load_misses_to_memory_then_hits() {
        let mut m = memsys();
        let mut arb = NoConflicts;
        let line = LineAddr::new(100);
        let out = m.load(c(0), line, 0, &mut arb);
        assert!(out.proceeded());
        assert_eq!(out.hit_level, HitLevel::Memory);
        assert!(out.done >= m.latency().nvm_read);
        // Second access hits in L1 with the short latency.
        let out2 = m.load(c(0), line, out.done, &mut arb);
        assert!(out2.l1_hit());
        assert_eq!(out2.done, out.done + m.latency().l1_hit);
    }

    #[test]
    fn load_grants_exclusive_to_sole_reader() {
        let mut m = memsys();
        let mut arb = NoConflicts;
        let line = LineAddr::new(5);
        m.load(c(0), line, 0, &mut arb);
        assert_eq!(m.l1(c(0)).entry(line).unwrap().state, MesiState::Exclusive);
        let dir = m.llc().entry(line).unwrap();
        assert_eq!(dir.state, MesiState::Exclusive);
        assert!(dir.is_sharer(c(0)));
    }

    #[test]
    fn second_reader_downgrades_owner_to_shared() {
        let mut m = memsys();
        let mut arb = NoConflicts;
        let line = LineAddr::new(5);
        m.load(c(0), line, 0, &mut arb);
        let out = m.load(c(1), line, 100, &mut arb);
        assert!(out.proceeded());
        assert_eq!(m.l1(c(0)).entry(line).unwrap().state, MesiState::Shared);
        assert_eq!(m.l1(c(1)).entry(line).unwrap().state, MesiState::Shared);
        let dir = m.llc().entry(line).unwrap();
        assert_eq!(dir.state, MesiState::Shared);
        assert!(dir.is_sharer(c(0)) && dir.is_sharer(c(1)));
    }

    #[test]
    fn store_invalidates_other_sharers() {
        let mut m = memsys();
        let mut arb = NoConflicts;
        let line = LineAddr::new(9);
        m.load(c(0), line, 0, &mut arb);
        m.load(c(1), line, 50, &mut arb);
        let out = m.store(c(2), line, 100, &mut arb);
        assert!(out.proceeded());
        assert!(m.l1(c(0)).entry(line).is_none());
        assert!(m.l1(c(1)).entry(line).is_none());
        assert_eq!(m.l1(c(2)).entry(line).unwrap().state, MesiState::Modified);
        let dir = m.llc().entry(line).unwrap();
        assert_eq!(dir.state, MesiState::Modified);
        assert_eq!(dir.sharer_count(), 1);
        assert!(dir.is_sharer(c(2)));
    }

    #[test]
    fn store_then_remote_load_forwards_dirty_data() {
        let mut m = memsys();
        let mut arb = NoConflicts;
        let addr = Address::new(64 * 9);
        let line = addr.line();
        let out = m.store(c(0), line, 0, &mut arb);
        assert!(out.proceeded());
        m.store_word_in_l1(c(0), addr, 1234, StoreKind::Plain);
        let out2 = m.load(c(1), line, 200, &mut arb);
        assert!(out2.proceeded());
        assert_eq!(m.read_word_in_l1(c(1), addr), 1234);
        // Dirty data was pulled into the LLC.
        assert!(m.llc().entry(line).unwrap().dirty);
    }

    #[test]
    fn upgrade_from_shared_hits_l1_but_probes_sharers() {
        let mut m = memsys();
        let mut arb = NoConflicts;
        let line = LineAddr::new(3);
        m.load(c(0), line, 0, &mut arb);
        m.load(c(1), line, 10, &mut arb);
        let probes_before = m.stats().probes;
        let out = m.store(c(0), line, 20, &mut arb);
        assert!(out.proceeded());
        assert!(m.stats().probes > probes_before);
        assert_eq!(m.l1(c(0)).entry(line).unwrap().state, MesiState::Modified);
        assert!(m.l1(c(1)).entry(line).is_none());
    }

    #[test]
    fn abort_requester_decision_cancels_access() {
        struct AlwaysAbortRequester;
        impl ConflictArbiter for AlwaysAbortRequester {
            fn decide(&mut self, _p: &ProbeInfo) -> ProbeDecision {
                ProbeDecision::AbortRequester
            }
        }
        let mut m = memsys();
        let mut noc = NoConflicts;
        let line = LineAddr::new(3);
        m.store(c(0), line, 0, &mut noc);
        let mut arb = AlwaysAbortRequester;
        let out = m.store(c(1), line, 100, &mut arb);
        assert!(out.aborted_by_conflict);
        assert!(!out.proceeded());
        // Holder's copy is untouched.
        assert_eq!(m.l1(c(0)).entry(line).unwrap().state, MesiState::Modified);
        assert!(m.l1(c(1)).entry(line).is_none());
    }

    #[test]
    fn abort_holder_decision_proceeds_and_reports_holder() {
        struct AlwaysAbortHolder;
        impl ConflictArbiter for AlwaysAbortHolder {
            fn decide(&mut self, _p: &ProbeInfo) -> ProbeDecision {
                ProbeDecision::AbortHolder
            }
        }
        let mut m = memsys();
        let mut noc = NoConflicts;
        let line = LineAddr::new(3);
        m.store(c(0), line, 0, &mut noc);
        let mut arb = AlwaysAbortHolder;
        let out = m.store(c(1), line, 100, &mut arb);
        assert!(out.proceeded());
        assert_eq!(out.holders_to_abort, vec![c(0)]);
        assert_eq!(m.l1(c(1)).entry(line).unwrap().state, MesiState::Modified);
    }

    #[test]
    fn nack_decision_cancels_without_abort() {
        struct AlwaysNack;
        impl ConflictArbiter for AlwaysNack {
            fn decide(&mut self, _p: &ProbeInfo) -> ProbeDecision {
                ProbeDecision::Nack
            }
        }
        let mut m = memsys();
        let mut noc = NoConflicts;
        let line = LineAddr::new(3);
        m.store(c(0), line, 0, &mut noc);
        let mut arb = AlwaysNack;
        let out = m.load(c(1), line, 100, &mut arb);
        assert!(out.nacked);
        assert!(!out.aborted_by_conflict);
    }

    #[test]
    fn sticky_overflow_keeps_forwarding_to_owner() {
        // Core 0 writes a line, the line overflows to the LLC keeping the
        // directory owner unchanged; a later remote access must still probe
        // core 0 and see that the line is absent from its L1.
        struct Recorder(Vec<ProbeInfo>);
        impl ConflictArbiter for Recorder {
            fn decide(&mut self, p: &ProbeInfo) -> ProbeDecision {
                self.0.push(*p);
                ProbeDecision::Proceed
            }
        }
        let mut m = memsys();
        let mut noc = NoConflicts;
        let addr = Address::new(64 * 77);
        let line = addr.line();
        m.store(c(0), line, 0, &mut noc);
        m.store_word_in_l1(c(0), addr, 55, StoreKind::Plain);
        // Simulate the overflow: write back keeping the owner sticky, then
        // drop the line from the L1 silently.
        let entry = *m.l1(c(0)).entry(line).unwrap();
        m.writeback_to_llc(c(0), line, entry.data, 10, true);
        m.l1_mut(c(0)).invalidate(line);

        let mut rec = Recorder(Vec::new());
        let out = m.load(c(1), line, 100, &mut rec);
        assert!(out.proceeded());
        assert_eq!(rec.0.len(), 1);
        let p = &rec.0[0];
        assert_eq!(p.holder, c(0));
        assert!(!p.holder_has_line, "stale directory state detected");
        // The requester still gets the overflowed (latest) data from the LLC.
        assert_eq!(m.read_word_in_l1(c(1), addr), 55);
    }

    #[test]
    fn reread_own_overflowed_line_is_flagged() {
        let mut m = memsys();
        let mut noc = NoConflicts;
        let addr = Address::new(64 * 33);
        let line = addr.line();
        m.store(c(0), line, 0, &mut noc);
        m.store_word_in_l1(c(0), addr, 7, StoreKind::Plain);
        let entry = *m.l1(c(0)).entry(line).unwrap();
        m.writeback_to_llc(c(0), line, entry.data, 10, true);
        m.l1_mut(c(0)).invalidate(line);

        let out = m.load(c(0), line, 100, &mut noc);
        assert!(out.proceeded());
        assert!(out.reread_own_overflow);
        assert_eq!(m.read_word_in_l1(c(0), addr), 7);
        // Directory still shows core 0 as the owner.
        let dir = m.llc().entry(line).unwrap();
        assert!(dir.is_sharer(c(0)));
        assert!(dir.state.is_exclusive_like());
    }

    #[test]
    fn writeback_to_llc_without_keep_owner_releases_ownership() {
        let mut m = memsys();
        let mut noc = NoConflicts;
        let line = LineAddr::new(21);
        m.store(c(0), line, 0, &mut noc);
        let entry = *m.l1(c(0)).entry(line).unwrap();
        m.l1_mut(c(0)).invalidate(line);
        m.writeback_to_llc(c(0), line, entry.data, 10, false);
        let dir = m.llc().entry(line).unwrap();
        assert_eq!(dir.sharer_count(), 0);
        assert_eq!(dir.state, MesiState::Invalid);
        assert!(dir.dirty);
    }

    #[test]
    fn l1_writeback_to_memory_persists_data() {
        let mut m = memsys();
        let mut noc = NoConflicts;
        let addr = Address::new(64 * 8);
        let line = addr.line();
        m.store(c(0), line, 0, &mut noc);
        m.store_word_in_l1(c(0), addr, 42, StoreKind::Plain);
        let done = m.l1_writeback_line_to_memory(c(0), line, 100).unwrap();
        assert!(done > 100);
        assert_eq!(m.domain().read_line(line)[0], 42);
        assert!(!m.l1(c(0)).entry(line).unwrap().dirty);
    }

    #[test]
    fn llc_writeback_to_memory_cleans_directory() {
        let mut m = memsys();
        let mut noc = NoConflicts;
        let addr = Address::new(64 * 8);
        let line = addr.line();
        m.store(c(0), line, 0, &mut noc);
        m.store_word_in_l1(c(0), addr, 13, StoreKind::Plain);
        let entry = *m.l1(c(0)).entry(line).unwrap();
        m.writeback_to_llc(c(0), line, entry.data, 5, true);
        m.l1_mut(c(0)).invalidate(line);
        let done = m.llc_writeback_line_to_memory(line, 50).unwrap();
        assert!(done > 50);
        assert_eq!(m.domain().read_line(line)[0], 13);
        let dir = m.llc().entry(line).unwrap();
        assert!(!dir.dirty);
        assert_eq!(dir.sharer_count(), 0);
        assert_eq!(dir.state, MesiState::Invalid);
    }

    #[test]
    fn persist_log_bytes_charges_channel_and_latency() {
        let mut m = memsys();
        let done = m.persist_log_bytes(0, 72);
        assert!(done >= m.latency().nvm_write);
        assert_eq!(m.stats().log_bytes, 72);
        assert!(m.channel().total_bytes() >= 72);
    }

    #[test]
    fn notify_clean_eviction_keeps_directory_precise() {
        let mut m = memsys();
        let mut noc = NoConflicts;
        let line = LineAddr::new(70);
        m.load(c(0), line, 0, &mut noc);
        m.load(c(1), line, 10, &mut noc);
        m.l1_mut(c(0)).invalidate(line);
        m.notify_clean_eviction(c(0), line);
        let dir = m.llc().entry(line).unwrap();
        assert!(!dir.is_sharer(c(0)));
        assert!(dir.is_sharer(c(1)));
        // Last sharer leaving empties the directory entry.
        m.l1_mut(c(1)).invalidate(line);
        m.notify_clean_eviction(c(1), line);
        assert_eq!(m.llc().entry(line).unwrap().state, MesiState::Invalid);
    }

    #[test]
    fn statistics_accumulate() {
        let mut m = memsys();
        let mut noc = NoConflicts;
        for i in 0..20u64 {
            m.load(c(0), LineAddr::new(i), i * 10, &mut noc);
        }
        assert_eq!(m.stats().l1_misses, 20);
        assert_eq!(m.stats().nvm_line_reads, 20);
        for i in 0..20u64 {
            m.load(c(0), LineAddr::new(i), 1000 + i * 10, &mut noc);
        }
        assert_eq!(m.stats().l1_hits, 20);
    }
}
