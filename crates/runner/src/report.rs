//! Reporting plumbing shared by every pipeline: phase stopwatches with
//! recorded stage timings and percentage formatting. Run artifacts are
//! [`hs_telemetry::schema::Json`] values written with
//! [`hs_telemetry::io::write_json`].

use hs_telemetry::{Event, EventKind, Level, Span};

/// Percentage formatting used across all tables.
pub fn pct(x: f32) -> String {
    format!("{:.2}", x * 100.0)
}

/// One timed pipeline stage, as recorded in run artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage name (`pretrain`, `prune`, `finetune`, …).
    pub name: String,
    /// Wall-clock seconds spent in the stage.
    pub seconds: f64,
}

/// A labelled stopwatch for experiment phases, backed by a telemetry
/// span: nested phases produce `/`-joined span paths in the JSONL
/// stream, and the start/done progress lines are `Level::Info` log
/// events (rendered on stderr by default, as they always were).
/// [`Phase::end`] returns the elapsed seconds so pipelines can record a
/// [`StageTiming`].
#[derive(Debug)]
pub struct Phase {
    label: String,
    span: Span,
}

impl Phase {
    /// Starts timing a phase and logs it.
    pub fn start(label: &str) -> Self {
        hs_telemetry::log(Level::Info, "phase", format!("{label} ..."));
        Phase {
            label: label.to_string(),
            span: hs_telemetry::span::enter(label),
        }
    }

    /// Ends the phase, logging and returning the elapsed seconds.
    pub fn end(self) -> f64 {
        let seconds = self.span.close();
        if hs_telemetry::enabled(Level::Info) {
            // The duration rides in the event's `secs` slot, not the
            // message, so seeded runs emit identical JSONL prefixes.
            let mut done = Event::new(EventKind::Log, Level::Info, "phase")
                .message(format!("{} done", self.label));
            done.secs = Some(seconds);
            hs_telemetry::emit(done);
        }
        seconds
    }

    /// Ends the phase and records it into a stage list.
    pub fn record(self, stages: &mut Vec<StageTiming>) -> f64 {
        let label = self.label.clone();
        let seconds = self.end();
        stages.push(StageTiming {
            name: label,
            seconds,
        });
        seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.7239), "72.39");
    }

    #[test]
    fn phase_records_stage() {
        let mut stages = Vec::new();
        let p = Phase::start("test");
        let secs = p.record(&mut stages);
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].name, "test");
        assert!(secs >= 0.0);
    }
}
