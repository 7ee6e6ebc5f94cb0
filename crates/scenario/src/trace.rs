//! An NDJSON trace recorder over the [`SimObserver`] interface.
//!
//! [`TraceRecorder`] turns the driver's semantic event stream into
//! [`dhtm_obs::TraceEvent`]s inside a bounded [`dhtm_obs::TraceWriter`]
//! ring, and [`TraceRecorder::finish`] appends the end-of-run component
//! probes plus a `run_end` summary event. Like every observer, recording a
//! run leaves it bit-identical to an unobserved run; the trace is pure
//! output.

use dhtm_obs::{ProbeRegistry, TraceEvent, TraceWriter};
use dhtm_sim::observer::{SimObserver, StepContext};
use dhtm_types::stats::{AbortReason, RunStats};

/// A [`SimObserver`] that records every semantic event of one run (cell) as
/// trace events, oldest dropped first when the ring bound is hit.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    cell: String,
    writer: TraceWriter,
}

impl TraceRecorder {
    /// A recorder for the run labelled `cell`, with the default ring bound.
    pub fn new(cell: impl Into<String>) -> Self {
        TraceRecorder {
            cell: cell.into(),
            writer: TraceWriter::default(),
        }
    }

    /// A recorder retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(cell: impl Into<String>, capacity: usize) -> Self {
        TraceRecorder {
            cell: cell.into(),
            writer: TraceWriter::with_capacity(capacity),
        }
    }

    /// The cell label this recorder stamps on every event.
    pub fn cell(&self) -> &str {
        &self.cell
    }

    /// The underlying writer (event counts, retained events).
    pub fn writer(&self) -> &TraceWriter {
        &self.writer
    }

    /// Appends the end-of-run events: one `probes` event carrying the
    /// flattened component-stat registry (when one was collected) and a
    /// `run_end` summary with the final tallies and the ring's drop count.
    pub fn finish(&mut self, stats: &RunStats, probes: Option<&ProbeRegistry>) {
        if let Some(reg) = probes {
            let mut event = TraceEvent::new("probes", &self.cell, stats.total_cycles);
            for (name, value) in reg.flatten() {
                event = event.field(name, value);
            }
            self.writer.record(event);
        }
        let dropped_so_far = self.writer.dropped();
        self.writer.record(
            TraceEvent::new("run_end", &self.cell, stats.total_cycles)
                .field("committed", stats.committed)
                .field("aborts", stats.total_aborts())
                .field("events_dropped", dropped_so_far),
        );
    }

    /// Renders every retained event as NDJSON lines, oldest first.
    pub fn lines(&self) -> Vec<String> {
        self.writer.lines()
    }
}

impl SimObserver for TraceRecorder {
    fn on_begin(&mut self, ctx: &StepContext<'_>, _tx: &dhtm_sim::workload::Transaction) {
        self.writer
            .record(TraceEvent::new("begin", &self.cell, ctx.now).on_core(ctx.core.get()));
    }

    fn on_commit(&mut self, ctx: &StepContext<'_>, _tx: &dhtm_sim::workload::Transaction) {
        self.writer.record(
            TraceEvent::new("commit", &self.cell, ctx.now)
                .on_core(ctx.core.get())
                .field("total_committed", ctx.total_committed),
        );
    }

    fn on_abort(&mut self, ctx: &StepContext<'_>, reason: AbortReason) {
        self.writer.record(
            TraceEvent::new("abort", &self.cell, ctx.now)
                .on_core(ctx.core.get())
                .field("reason", reason.index() as u64),
        );
    }

    fn on_durable_tick(&mut self, ctx: &StepContext<'_>) {
        self.writer.record(
            TraceEvent::new("durable", &self.cell, ctx.now)
                .on_core(ctx.core.get())
                .field("mutations", ctx.mutations_after),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SimSpec;
    use dhtm_obs::{event_from_line, validate_line};
    use dhtm_types::config::BaseConfig;
    use dhtm_types::policy::DesignKind;

    fn spec() -> SimSpec {
        SimSpec::builder(DesignKind::Dhtm, "hash")
            .base(BaseConfig::Small)
            .commits(6)
            .seed(3)
            .build()
            .unwrap()
    }

    #[test]
    fn traced_run_is_bit_identical_and_every_line_validates() {
        let resolved = spec().resolve().unwrap();
        let plain = resolved.run().stats;

        let mut rec = TraceRecorder::new("test/dhtm/hash");
        let (result, reg) = resolved.run_probed(Some(&mut rec));
        assert_eq!(plain, result.stats, "tracing must not perturb the run");
        rec.finish(&result.stats, Some(&reg));

        let lines = rec.lines();
        assert!(!lines.is_empty());
        for line in &lines {
            validate_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        // The stream carries commits and ends with the run_end summary.
        let events: Vec<_> = lines.iter().map(|l| event_from_line(l).unwrap()).collect();
        assert!(events.iter().any(|e| e.kind == "commit"));
        assert!(events.iter().any(|e| e.kind == "probes"));
        let last = events.last().unwrap();
        assert_eq!(last.kind, "run_end");
        assert_eq!(
            last.fields.iter().find(|(k, _)| k == "committed"),
            Some(&("committed".to_string(), result.stats.committed))
        );
    }

    #[test]
    fn ring_bound_truncates_oldest_events() {
        let resolved = spec().resolve().unwrap();
        let mut rec = TraceRecorder::with_capacity("bounded", 4);
        let (result, _) = resolved.run_probed(Some(&mut rec));
        rec.finish(&result.stats, None);
        assert_eq!(rec.lines().len(), 4);
        assert!(rec.writer().dropped() > 0);
        // The run_end summary always survives (it is recorded last).
        let last = event_from_line(rec.lines().last().unwrap()).unwrap();
        assert_eq!(last.kind, "run_end");
    }
}
