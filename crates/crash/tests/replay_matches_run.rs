//! Crash images are rebuilt from the profile run's durable-mutation
//! journal. This checks the rebuilt images against an independent,
//! unjournaled run of the same cell: for
//! every design × {hash, queue}, the replayed image after each
//! clock-advancing step equals the live domain at that step, and the image
//! at (and past) the end of the run equals the run's final domain.

use dhtm_crash::{profile_cell, CrashCell, Replay};
use dhtm_nvm::domain::PersistentDomain;
use dhtm_sim::driver::Simulator;
use dhtm_sim::observer::{SimObserver, StepContext};
use dhtm_types::config::SystemConfig;
use dhtm_types::policy::DesignKind;

fn cell(design: DesignKind, workload: &str) -> CrashCell {
    CrashCell {
        design,
        workload: workload.to_string(),
        config: SystemConfig::small_test(),
        config_name: "small".to_string(),
        commits: 12,
        seed: 0x15CA_2018,
    }
}

/// Clones the live domain after every clock-advancing step and compares it
/// with the replayed image at the same clock value.
struct CompareReplay<'a> {
    replay: Replay<'a>,
    ticks: u64,
}

impl SimObserver for CompareReplay<'_> {
    fn on_durable_tick(&mut self, ctx: &StepContext<'_>) {
        let live: PersistentDomain = ctx.domain.crash_snapshot();
        let image = self.replay.image_at(ctx.mutations_after);
        assert_eq!(image.mutation_count(), ctx.mutations_after);
        assert!(
            *image == live,
            "replayed image differs from the run at clock {}",
            ctx.mutations_after
        );
        self.ticks += 1;
    }
}

#[test]
fn replayed_images_equal_the_run_for_every_design_and_workload() {
    for workload in ["hash", "queue"] {
        for design in DesignKind::ALL {
            let cell = cell(design, workload);
            let profiled = profile_cell(&cell);
            let total = profiled.profile.total_mutations;
            assert_eq!(profiled.journal.len() as u64, total);

            let (mut machine, mut engine, mut workload_box, limits) = cell.resolved().components();
            let mut observer = CompareReplay {
                replay: profiled.replay(),
                ticks: 0,
            };
            let sim = Simulator::new();
            let mut session = sim.start(&mut machine, &mut engine, workload_box.as_mut(), &limits);
            assert!(
                *session.domain() == profiled.profile.base,
                "{design}/{workload}: base image differs from the run's start"
            );
            session.run_to_completion_with(&mut observer);
            let stats = session.into_result().stats;
            assert_eq!(stats, profiled.profile.result.stats, "{design}/{workload}");
            if design.is_durable() {
                assert!(observer.ticks > 0, "{design}/{workload}: nothing durable");
            }

            let end = machine.mem.domain();
            assert_eq!(end.mutation_count(), total);
            let mut replay = profiled.replay();
            for point in [total, total + 1, total + 1_000] {
                let image = replay.image_at(point);
                assert_eq!(image.mutation_count(), total);
                assert_eq!(image.memory(), end.memory(), "{design}/{workload}");
                for t in 0..end.threads() {
                    let t = dhtm_types::ids::ThreadId::new(t);
                    assert_eq!(image.log(t), end.log(t), "{design}/{workload}");
                    assert_eq!(
                        image.overflow_list(t),
                        end.overflow_list(t),
                        "{design}/{workload}"
                    );
                }
                assert!(*image == *end);
            }
        }
    }
}
