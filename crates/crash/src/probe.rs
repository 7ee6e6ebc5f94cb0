//! Profiling a cell: one fully observed, journaled run that records the
//! commit timeline against the durable-mutation clock, and the crash images
//! rebuilt from it.
//!
//! Every crash experiment simulates its cell exactly once.
//! [`profile_cell`] streams the [`dhtm_sim::driver::SimulationSession`]'s
//! events through a [`ProfileRecorder`] — an ordinary
//! [`dhtm_sim::observer::SimObserver`] — recording for every commit the
//! span of the durable-mutation clock its commit step occupied and the
//! word writes it made durable. The persistent domain journals every
//! counted mutation of the same run
//! ([`dhtm_nvm::domain::PersistentDomain::start_journal`]), so the crash
//! image at any point is the post-setup base image replayed through the
//! journal up to that point ([`ProfiledRun::replay`]): the images and the
//! timeline come from one execution and index each other exactly. Engines
//! are built through the engine registry via the scenario exec layer
//! ([`CrashCell::resolved`]), the same construction path the experiment
//! harness uses.

use dhtm_nvm::domain::{DurableMutation, PersistentDomain};
use dhtm_sim::driver::{SimulationResult, Simulator};
use dhtm_sim::observer::{SimObserver, StepContext};
use dhtm_sim::workload::{Transaction, TxOp};
use dhtm_types::addr::Address;
use dhtm_types::policy::DesignKind;

use crate::matrix::CrashCell;

/// One commit observed by the profile run, positioned on the
/// durable-mutation clock.
#[derive(Debug, Clone)]
pub struct CommitEvent {
    /// Commit order (0-based).
    pub index: usize,
    /// The simulated cycle at which the commit step was processed (the
    /// event's pop time) — the basis for cycle-denominated crash points.
    pub step_time: u64,
    /// Mutation-clock value when the commit step started.
    pub step_start_mutations: u64,
    /// Mutation-clock value when the commit step finished.
    pub step_end_mutations: u64,
    /// The word writes the transaction made, in program order.
    pub writes: Vec<(Address, u64)>,
}

/// The observed timeline of one cell's run.
#[derive(Debug)]
pub struct RunProfile {
    /// The design that ran.
    pub design: DesignKind,
    /// The durable image right after workload setup (the state every crash
    /// image grows from).
    pub base: PersistentDomain,
    /// Every commit in commit order.
    pub commits: Vec<CommitEvent>,
    /// Every word address written by any transaction the driver ever
    /// started — the address universe the oracles check — sorted
    /// ascending, without duplicates.
    pub tracked: Vec<Address>,
    /// Final value of the durable-mutation clock.
    pub total_mutations: u64,
    /// The completed run's result (same numbers an unprofiled run yields).
    pub result: SimulationResult,
}

impl RunProfile {
    /// Number of commits whose commit step finished at or before crash
    /// point `point` — the committed prefix `k` the recovered state must
    /// reflect.
    pub fn committed_before(&self, point: u64) -> usize {
        self.commits
            .iter()
            .take_while(|c| c.step_end_mutations <= point)
            .count()
    }

    /// The commit whose commit step *contains* `point`, if any: the crash
    /// interrupted that commit mid-flight, so recovery may legitimately
    /// resolve it either way (the log decides).
    pub fn ambiguous_commit(&self, point: u64) -> Option<&CommitEvent> {
        self.commits
            .iter()
            .find(|c| c.step_start_mutations < point && point < c.step_end_mutations)
    }
}

/// The word writes of a transaction, in program order.
pub fn word_writes(tx: &Transaction) -> Vec<(Address, u64)> {
    writes_of(tx).collect()
}

fn writes_of(tx: &Transaction) -> impl Iterator<Item = (Address, u64)> + '_ {
    tx.ops.iter().filter_map(|op| match *op {
        TxOp::Write(addr, value) => Some((addr, value)),
        _ => None,
    })
}

/// The profile plus the per-step spans `(pop_time, start_mutations,
/// end_mutations)` of every step that advanced the mutation clock, and the
/// run's durable-mutation journal.
#[derive(Debug)]
pub struct ProfiledRun {
    /// The commit/tracking timeline.
    pub profile: RunProfile,
    /// `(pop_time, start, end)` for every mutation-advancing step.
    pub step_spans: Vec<(u64, u64, u64)>,
    /// Every counted mutation of the run: entry `i` moves the clock from
    /// `i` to `i + 1`.
    pub journal: Vec<DurableMutation>,
}

impl ProfiledRun {
    /// Crash images of this run, rebuilt from `profile.base` by replaying
    /// the journal.
    pub fn replay(&self) -> Replay<'_> {
        Replay {
            image: self.profile.base.crash_snapshot(),
            journal: &self.journal,
        }
    }

    /// Translates a cycle-denominated crash point ("power fails at cycle
    /// `c`") to the mutation clock: the durable state at cycle `c` is the
    /// state after the last mutating step processed before `c`.
    pub fn cycle_to_mutation_point(&self, cycle: u64) -> u64 {
        self.step_spans
            .iter()
            .take_while(|&&(t, _, _)| t < cycle)
            .last()
            .map(|&(_, _, end)| end)
            .unwrap_or(0)
    }
}

/// A cursor over a run's crash images: the base image advanced through the
/// journal, one counted mutation at a time, so images are produced lazily
/// and in ascending order.
#[derive(Debug)]
pub struct Replay<'a> {
    image: PersistentDomain,
    journal: &'a [DurableMutation],
}

impl Replay<'_> {
    /// The crash image at `point`: exactly the first `point` counted
    /// mutations durable. A point past the end of the run is clamped to the
    /// final clock value, which the image's
    /// [`PersistentDomain::mutation_count`] reports.
    ///
    /// # Panics
    ///
    /// Panics if `point` lies below the image's current clock value (points
    /// must be requested in ascending order).
    pub fn image_at(&mut self, point: u64) -> &PersistentDomain {
        let from = self.image.mutation_count();
        let to = point.min(self.journal.len() as u64);
        assert!(
            to >= from,
            "crash images must be requested in ascending order"
        );
        for mutation in &self.journal[from as usize..to as usize] {
            self.image.apply(mutation);
        }
        &self.image
    }
}

/// The crash subsystem's streaming profiler: a [`SimObserver`] that
/// records the commit timeline (mutation-clock spans + word writes), the
/// tracked address universe and every mutation-advancing step span.
#[derive(Debug, Default)]
pub struct ProfileRecorder {
    commits: Vec<CommitEvent>,
    /// Written word addresses of every started transaction, repeats
    /// included; [`profile_cell`] sorts and dedups them once.
    tracked: Vec<Address>,
    step_spans: Vec<(u64, u64, u64)>,
}

impl SimObserver for ProfileRecorder {
    fn on_begin(&mut self, _ctx: &StepContext<'_>, tx: &Transaction) {
        self.tracked.extend(writes_of(tx).map(|(addr, _)| addr));
    }

    fn on_durable_tick(&mut self, ctx: &StepContext<'_>) {
        self.step_spans
            .push((ctx.now, ctx.mutations_before, ctx.mutations_after));
    }

    fn on_commit(&mut self, ctx: &StepContext<'_>, tx: &Transaction) {
        self.commits.push(CommitEvent {
            index: self.commits.len(),
            step_time: ctx.now,
            step_start_mutations: ctx.mutations_before,
            step_end_mutations: ctx.mutations_after,
            writes: word_writes(tx),
        });
    }
}

/// Runs `cell` once with full observation and the domain's journal on,
/// producing its timeline and the journal its crash images replay.
pub fn profile_cell(cell: &CrashCell) -> ProfiledRun {
    let resolved = cell.resolved();
    let (mut machine, mut engine, mut workload, limits) = resolved.components();
    machine.mem.domain_mut().start_journal();
    let sim = Simulator::new();
    let mut session = sim.start(&mut machine, &mut engine, workload.as_mut(), &limits);

    let base = session.domain().crash_snapshot();
    let mut recorder = ProfileRecorder::default();
    session.run_to_completion_with(&mut recorder);

    let total_mutations = session.domain().mutation_count();
    let result = session.into_result();
    let journal = machine.mem.domain_mut().take_journal();
    debug_assert_eq!(journal.len() as u64, total_mutations);
    let mut tracked = recorder.tracked;
    tracked.sort_unstable();
    tracked.dedup();
    ProfiledRun {
        profile: RunProfile {
            design: cell.design,
            base,
            commits: recorder.commits,
            tracked,
            total_mutations,
            result,
        },
        step_spans: recorder.step_spans,
        journal,
    }
}

/// Simulates `cell` once and returns the crash images at `points` as
/// `(point, image)` pairs in ascending order, replayed from the run's
/// journal: duplicate points are dropped, and points past the end of the
/// run are clamped to the final clock value.
pub fn capture_cell(cell: &CrashCell, points: &[u64]) -> Vec<(u64, PersistentDomain)> {
    let run = profile_cell(cell);
    let mut points = points.to_vec();
    points.sort_unstable();
    points.dedup();
    let mut replay = run.replay();
    points
        .into_iter()
        .map(|p| {
            let image = replay.image_at(p);
            (image.mutation_count(), image.crash_snapshot())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtm_types::config::SystemConfig;

    fn cell(design: DesignKind) -> CrashCell {
        CrashCell {
            design,
            workload: "hash".to_string(),
            config: SystemConfig::small_test(),
            config_name: "small".to_string(),
            commits: 8,
            seed: 0x15CA_2018,
        }
    }

    #[test]
    fn profile_records_every_commit_with_monotone_spans() {
        let run = profile_cell(&cell(DesignKind::Dhtm));
        let p = &run.profile;
        assert_eq!(p.commits.len(), 8);
        assert!(p.total_mutations > 0);
        for pair in p.commits.windows(2) {
            assert!(pair[0].step_end_mutations <= pair[1].step_start_mutations);
        }
        for c in &p.commits {
            assert!(c.step_start_mutations < c.step_end_mutations);
            assert!(!c.writes.is_empty(), "hash transactions write");
        }
        assert!(!p.tracked.is_empty());
        assert_eq!(p.result.stats.committed, 8);
    }

    #[test]
    fn profile_is_deterministic() {
        let a = profile_cell(&cell(DesignKind::Dhtm));
        let b = profile_cell(&cell(DesignKind::Dhtm));
        assert_eq!(a.profile.total_mutations, b.profile.total_mutations);
        assert_eq!(a.profile.commits.len(), b.profile.commits.len());
        assert_eq!(a.step_spans, b.step_spans);
    }

    #[test]
    fn captures_align_with_the_profiled_timeline() {
        let run = profile_cell(&cell(DesignKind::Dhtm));
        let p = &run.profile;
        // Capture right before the 3rd commit's step and right after it.
        let c = &p.commits[2];
        let points = [c.step_start_mutations, c.step_end_mutations];
        let captures = capture_cell(&cell(DesignKind::Dhtm), &points);
        assert_eq!(captures.len(), 2);
        assert_eq!(captures[0].1.mutation_count(), c.step_start_mutations);
        assert_eq!(captures[1].1.mutation_count(), c.step_end_mutations);
        assert_eq!(p.committed_before(c.step_start_mutations), 2);
        assert_eq!(p.committed_before(c.step_end_mutations), 3);
    }

    #[test]
    fn images_cover_point_zero_duplicates_and_the_past_the_end_clamp() {
        let run = profile_cell(&cell(DesignKind::Dhtm));
        let total = run.profile.total_mutations;
        let points = [total / 2, 0, total / 3, total / 2, total + 7, total + 100];
        let images = capture_cell(&cell(DesignKind::Dhtm), &points);
        let points: Vec<u64> = images.iter().map(|(p, _)| *p).collect();
        assert_eq!(points, [0, total / 3, total / 2, total, total]);
        for (point, image) in &images {
            assert_eq!(image.mutation_count(), *point);
        }
        assert!(images[0].1 == run.profile.base, "point 0 is the base image");
        assert!(images[3].1 == images[4].1);
        assert!(images[2].1 != images[3].1);
        assert!(*run.replay().image_at(total / 3) == images[1].1);
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn replay_refuses_a_point_below_the_last_one() {
        let run = profile_cell(&cell(DesignKind::Dhtm));
        let mut replay = run.replay();
        replay.image_at(10);
        replay.image_at(9);
    }

    #[test]
    fn committed_before_and_ambiguity() {
        let run = profile_cell(&cell(DesignKind::SoftwareOnly));
        let p = &run.profile;
        let c = &p.commits[0];
        let mid = (c.step_start_mutations + c.step_end_mutations) / 2;
        if mid > c.step_start_mutations {
            assert!(p.ambiguous_commit(mid).is_some());
        }
        assert!(p.ambiguous_commit(c.step_end_mutations).is_none());
        assert_eq!(p.committed_before(0), 0);
        assert_eq!(p.committed_before(p.total_mutations), p.commits.len());
    }
}
