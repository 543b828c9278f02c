//! Flight recorder: a bounded in-memory ring of the most recent events,
//! dumped (with a metrics snapshot) to a JSON file when something goes
//! wrong — breaker trips, sustained-overload degradation, divergence
//! guard recoveries.
//!
//! The recorder is disarmed by default and costs one relaxed atomic
//! load per [`crate::emit`] call while disarmed. When armed it stores
//! each event's **stable form** — the JSONL line with the wall-clock
//! `ts` zeroed and `secs` dropped — so two identical seeded runs
//! produce byte-identical `flight.json` dumps. For the same reason the
//! metrics section carries only deterministic values: counter values,
//! gauge values, and histogram *total* observation counts (per-bucket
//! counts of wall-clock time histograms vary run to run and are
//! deliberately excluded).

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::event::Event;
use crate::level::Level;
use crate::metrics::{self, MetricSnapshot};

/// Cheap armed flag, checked by [`crate::emit`] before taking the ring
/// lock.
static ARMED: AtomicBool = AtomicBool::new(false);

static RECORDER: OnceLock<Mutex<Option<Recorder>>> = OnceLock::new();

#[derive(Debug)]
struct Recorder {
    capacity: usize,
    path: PathBuf,
    /// Stable-form JSONL lines, oldest first.
    ring: VecDeque<String>,
    /// Dumps taken since arming (stamped into the snapshot so repeated
    /// triggers are distinguishable without a wall clock).
    triggers: u64,
}

fn recorder() -> &'static Mutex<Option<Recorder>> {
    RECORDER.get_or_init(|| Mutex::new(None))
}

/// Arms the recorder: keep the last `capacity` events in memory and
/// dump them to `path` on [`trigger`]. Re-arming resets the ring and
/// the trigger counter (tests arm once per run).
pub fn arm(capacity: usize, path: impl Into<PathBuf>) {
    let mut guard = recorder()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *guard = Some(Recorder {
        capacity: capacity.max(1),
        path: path.into(),
        ring: VecDeque::with_capacity(capacity.max(1)),
        triggers: 0,
    });
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms the recorder and drops the ring.
pub fn disarm() {
    let mut guard = recorder()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *guard = None;
    ARMED.store(false, Ordering::Relaxed);
}

/// True when armed — one relaxed load.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Records one event in the ring (no-op while disarmed). Called by the
/// dispatcher; the stored form zeroes `ts` and drops `secs` so dumps
/// are byte-reproducible.
pub(crate) fn record(event: &Event) {
    if !armed() {
        return;
    }
    let mut stable = event.clone();
    stable.ts = 0.0;
    stable.secs = None;
    let line = stable.to_json_line();
    let mut guard = recorder()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(rec) = guard.as_mut() {
        if rec.ring.len() == rec.capacity {
            rec.ring.pop_front();
        }
        rec.ring.push_back(line);
    }
}

/// Dumps the ring and a deterministic metrics snapshot to the armed
/// path (atomic tmp+fsync+rename, fault site `flight`), then emits one
/// debug log describing the dump. No-op while disarmed.
pub fn trigger(reason: &str) {
    let (bytes, path, events, triggers) = {
        let mut guard = recorder()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(rec) = guard.as_mut() else {
            return;
        };
        rec.triggers += 1;
        (
            render_snapshot(reason, rec.triggers, &rec.ring),
            rec.path.clone(),
            rec.ring.len(),
            rec.triggers,
        )
    };
    if let Err(err) = crate::io::atomic_write_as(&path, "flight", bytes.as_bytes()) {
        crate::log(
            Level::Warn,
            "flight",
            format!("flight recorder dump failed: {err}"),
        );
        return;
    }
    crate::log_with(
        Level::Debug,
        "flight",
        format!("flight recorder dumped ({reason})"),
        vec![
            ("reason".into(), reason.into()),
            ("events".into(), events.into()),
            ("trigger".into(), triggers.into()),
        ],
    );
}

/// Renders the snapshot JSON: trigger metadata, the ring's stable-form
/// event lines (oldest first), and the deterministic slice of the
/// metrics registry, sorted by name.
fn render_snapshot(reason: &str, trigger_seq: u64, ring: &VecDeque<String>) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"schema\": ");
    let _ = write!(out, "{}", crate::event::SCHEMA_VERSION);
    out.push_str(",\n  \"reason\": ");
    crate::event::write_json_str(&mut out, reason);
    let _ = write!(out, ",\n  \"trigger\": {trigger_seq},\n  \"events\": [");
    for (i, line) in ring.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        out.push_str(line);
    }
    if !ring.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"metrics\": {");
    let mut snaps: Vec<MetricSnapshot> = metrics::snapshot();
    snaps.sort_by(|a, b| a.name().cmp(b.name()));
    for (i, snap) in snaps.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        match snap {
            MetricSnapshot::Counter { name, value } => {
                crate::event::write_json_str(&mut out, name);
                let _ = write!(out, ": {value}");
            }
            MetricSnapshot::Gauge { name, value } => {
                crate::event::write_json_str(&mut out, name);
                out.push_str(": ");
                crate::event::write_json_num(&mut out, *value);
            }
            MetricSnapshot::Histogram { name, count, .. } => {
                crate::event::write_json_str(&mut out, &format!("{name}_count"));
                let _ = write!(out, ": {count}");
            }
        }
    }
    if !snaps.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn ring_is_bounded_and_dump_is_stable() {
        // Serialize against the fault/io tests, which emit warn-level
        // events that would otherwise land in the armed ring.
        let _guard = crate::faults::test_lock();
        let dir = std::env::temp_dir();
        let path = dir.join("hs_flight_test.json");
        arm(2, &path);
        for i in 0..5u64 {
            let mut e = Event::new(EventKind::Log, Level::Info, "t").field("i", i);
            e.ts = 123.0 + i as f64; // wall clock must not leak into the dump
            record(&e);
        }
        trigger("unit_test");
        disarm();
        let text = std::fs::read_to_string(&path).unwrap();
        // Only the last two events survive, with ts zeroed.
        assert!(!text.contains("\"i\":2"));
        assert!(text.contains("\"i\":3"));
        assert!(text.contains("\"i\":4"));
        assert!(text.contains("\"ts\":0}"));
        assert!(text.contains("\"reason\": \"unit_test\""));
        assert!(text.contains("\"trigger\": 1"));
        crate::schema::parse(&text).expect("flight dump parses as JSON");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trigger_while_disarmed_is_a_no_op() {
        // The recorder is process-global: without the lock this disarm
        // can land between the other test's arm and trigger.
        let _guard = crate::faults::test_lock();
        disarm();
        trigger("nobody_listening");
        assert!(!armed());
    }
}
