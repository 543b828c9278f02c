//! `hs-telemetry` — structured tracing and metrics for the HeadStart
//! workspace.
//!
//! The build is fully offline, so this crate is a zero-dependency
//! replacement for the usual `tracing` + `metrics` + `prometheus` stack,
//! scoped to exactly what the pipeline needs:
//!
//! - **Spans** ([`mod@span`], [`span!`]): named, nested wall-clock scopes.
//!   Each close emits one schema-versioned [`Event`] carrying the span's
//!   path (`pipeline/pretrain`), depth and duration.
//! - **Metrics** ([`metrics`]): a process-global registry of counters,
//!   gauges and fixed-bucket histograms behind relaxed atomics, cheap
//!   enough to record from the `hs-tensor` worker pool's hot kernels.
//!   Rendered either as JSONL flush events or Prometheus text format
//!   ([`metrics::render_prometheus`]).
//! - **Sinks** ([`sink`]): a human-readable stderr sink (the default, so
//!   CLI output is unchanged when telemetry is off) and a JSONL
//!   event-stream writer, selected at runtime via [`configure`].
//! - **Atomic IO** ([`io::atomic_write`]): crash-safe artifact writes
//!   (tmp + fsync + rename) with bounded retry on transient errors.
//! - **Fault injection** ([`faults`]): a deterministic, disarmed-by-default
//!   registry tests use to make IO and training failures reproducible.
//! - **Flags** ([`flags`]): the command-line parser every workspace
//!   binary shares, so flags behave and fail the same way everywhere.
//!
//! Events that no sink would accept are dropped before formatting, so an
//! unconfigured process pays one relaxed atomic load per call site.
//!
//! # Example
//!
//! ```
//! use hs_telemetry::{metrics, Level};
//!
//! let calls = metrics::counter("hs_doc_example_calls_total");
//! {
//!     let _span = hs_telemetry::span!("doc-example", "n" => 3u64);
//!     calls.inc();
//! }
//! hs_telemetry::log(Level::Debug, "doc", "did a thing".to_string());
//! assert!(metrics::render_prometheus().contains("hs_doc_example_calls_total"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod faults;
pub mod flags;
pub mod flight;
pub mod io;
pub mod level;
pub mod metrics;
pub mod schema;
pub mod sink;
pub mod span;
pub mod trace;

pub use event::{Event, EventKind, FieldValue, Fields, SCHEMA_VERSION};
pub use level::Level;
pub use sink::{JsonlSink, Sink, StderrSink};
pub use span::Span;
pub use trace::TraceCtx;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The most verbose level any active sink accepts; events above it are
/// dropped before they are even built. Stored as `Level as u8`.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Active sinks. Lazily initialized to a stderr sink at [`Level::Info`]
/// so the default CLI experience is unchanged.
static SINKS: OnceLock<Mutex<Vec<Box<dyn Sink>>>> = OnceLock::new();

/// Process epoch for event timestamps (seconds since first telemetry use).
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn sinks() -> &'static Mutex<Vec<Box<dyn Sink>>> {
    SINKS.get_or_init(|| Mutex::new(vec![Box::new(StderrSink::new(Level::Info))]))
}

/// Seconds since the telemetry epoch (first use in this process).
pub fn now_secs() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// How a process's telemetry is wired up. Passed to [`configure`].
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// Verbosity of the human-readable stderr sink. `None` keeps the
    /// default ([`Level::Info`]).
    pub stderr_level: Option<Level>,
    /// When set, a JSONL event stream is written here (one event per
    /// line, all levels).
    pub jsonl: Option<PathBuf>,
}

/// Replaces the active sinks according to `cfg`. Previous sinks are
/// flushed and dropped. Safe to call repeatedly (e.g. once per pipeline
/// run in tests).
///
/// # Errors
///
/// Propagates I/O errors from opening the JSONL file.
pub fn configure(cfg: &TelemetryConfig) -> std::io::Result<()> {
    let stderr_level = cfg.stderr_level.unwrap_or(Level::Info);
    let mut guard = sinks().lock().expect("telemetry sinks poisoned");
    // Retire the old sinks *before* opening the new JSONL file: the new
    // path may be the same file (resume_run reconfigures in-process),
    // and `JsonlSink::create` truncates — an old buffered sink flushing
    // after the truncate would write its tail at a stale offset and
    // tear the fresh stream mid-line.
    guard.clear();
    let mut new_sinks: Vec<Box<dyn Sink>> = vec![Box::new(StderrSink::new(stderr_level))];
    if let Some(path) = &cfg.jsonl {
        match JsonlSink::create(path) {
            Ok(sink) => new_sinks.push(Box::new(sink)),
            Err(e) => {
                // Leave a sane stderr-only setup behind on failure.
                MAX_LEVEL.store(stderr_level as u8, Ordering::Relaxed);
                *guard = new_sinks;
                return Err(e);
            }
        }
    }
    let max = new_sinks
        .iter()
        .map(|s| s.level() as u8)
        .max()
        .unwrap_or(Level::Error as u8);
    *guard = new_sinks;
    MAX_LEVEL.store(max, Ordering::Relaxed);
    Ok(())
}

/// True when at least one active sink accepts events at `level`. One
/// relaxed atomic load — the cheap gate for hot call sites.
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Emits a fully-built event to every sink that accepts its level. The
/// timestamp is stamped here; callers leave `ts` at 0.
pub fn emit(mut event: Event) {
    if !enabled(event.level) {
        return;
    }
    event.ts = now_secs();
    flight::record(&event);
    let mut guard = sinks().lock().expect("telemetry sinks poisoned");
    for sink in guard.iter_mut() {
        if event.level as u8 <= sink.level() as u8 {
            sink.emit(&event);
        }
    }
}

/// Emits a leveled log event: `target` becomes the event name (rendered
/// as the `[target]` prefix on stderr).
pub fn log(level: Level, target: &str, message: String) {
    if !enabled(level) {
        return;
    }
    emit(Event::new(EventKind::Log, level, target).message(message));
}

/// As [`log`], with structured fields attached.
pub fn log_with(level: Level, target: &str, message: String, fields: Fields) {
    if !enabled(level) {
        return;
    }
    let mut event = Event::new(EventKind::Log, level, target).message(message);
    event.fields = fields;
    emit(event);
}

/// Records that an artifact (checkpoint, JSON report, metrics dump) was
/// written to `path`.
pub fn artifact(label: &str, path: &std::path::Path) {
    let mut event = Event::new(EventKind::Artifact, Level::Info, label)
        .message(format!("wrote {}", path.display()));
    event.fields.push((
        "path".to_string(),
        FieldValue::from(path.display().to_string()),
    ));
    emit(event);
}

/// Flushes every active sink (call before reading a JSONL file the
/// process is still holding open).
pub fn flush() {
    let mut guard = sinks().lock().expect("telemetry sinks poisoned");
    for sink in guard.iter_mut() {
        sink.flush();
    }
}

/// Emits one [`EventKind::Metric`] event per registered metric to the
/// active sinks (at [`Level::Debug`]) — the "metric flush" of the JSONL
/// schema — then flushes.
pub fn flush_metrics() {
    if enabled(Level::Debug) {
        for event in metrics::flush_events() {
            emit(event);
        }
    }
    flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_level_is_info() {
        assert!(enabled(Level::Info));
    }

    #[test]
    fn now_secs_is_monotonic() {
        let a = now_secs();
        let b = now_secs();
        assert!(b >= a);
    }

    /// Regression (found by a chaos campaign): reconfiguring onto the
    /// *same* JSONL path — which `resume_run` does in-process — used to
    /// truncate the file before the old buffered sink flushed, so its
    /// tail landed at a stale offset and tore the fresh stream mid-line.
    #[test]
    fn reconfiguring_onto_the_same_jsonl_path_never_tears_lines() {
        let _guard = faults::test_lock();
        let dir = std::env::temp_dir().join("hs_telemetry_reconfigure_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let cfg = TelemetryConfig {
            stderr_level: Some(Level::Error),
            jsonl: Some(path.clone()),
        };
        configure(&cfg).unwrap();
        // Fill well past the sink's write buffer so a partial line has
        // been auto-flushed to disk while its tail is still buffered.
        for i in 0..200 {
            log(
                Level::Info,
                "reconf-test",
                format!("padding event {i} with ballast text to cross the buffer boundary"),
            );
        }
        configure(&cfg).unwrap();
        log(Level::Info, "reconf-test", "fresh stream".to_string());
        flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().count() >= 1);
        for (i, line) in text.lines().enumerate() {
            schema::validate_line(line).unwrap_or_else(|e| panic!("line {}: {e}\n{line}", i + 1));
        }
        configure(&TelemetryConfig::default()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
