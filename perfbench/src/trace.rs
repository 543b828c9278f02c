//! Spans for the traced mode, recorded around the benchmark's calls
//! into each crate.
//!
//! Spans live in memory on the benchmark's own thread and are written
//! out when the run ends. With tracing off, [`begin`] and [`record`]
//! cost one thread-local flag check, so untraced runs carry no spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since tracing was enabled.
#[derive(Debug, Clone)]
pub struct Span {
    id: usize,
    parent: Option<usize>,
    name: String,
    /// The workload run (one pipeline run, forward round or replay)
    /// the span belongs to; 0 for set-up.
    run: u64,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    epoch: Option<Instant>,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = const {
        RefCell::new(Recorder { epoch: None, run: 0, spans: Vec::new(), open: Vec::new() })
    };
}

/// Starts recording on this thread.
pub fn enable() {
    REC.with(|r| r.borrow_mut().epoch = Some(Instant::now()));
}

/// Tags the spans that follow with workload run `run`.
pub fn set_run(run: u64) {
    REC.with(|r| r.borrow_mut().run = run);
}

/// An open span; it ends when dropped. Spans nest strictly.
#[must_use = "a span ends when its guard drops"]
pub struct Guard(Option<usize>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                let now = ns_since(r.epoch, Instant::now());
                r.spans[id].end_ns = now;
                let top = r.open.pop();
                debug_assert_eq!(top, Some(id), "spans must nest");
            });
        }
    }
}

fn ns_since(epoch: Option<Instant>, t: Instant) -> u64 {
    epoch.map_or(0, |e| t.saturating_duration_since(e).as_nanos() as u64)
}

/// Opens a span named `name` under the innermost open span.
pub fn begin(name: &str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.epoch.is_none() {
            return Guard(None);
        }
        let id = r.spans.len();
        let start_ns = ns_since(r.epoch, Instant::now());
        let span = Span {
            id,
            parent: r.open.last().copied(),
            name: name.to_string(),
            run: r.run,
            start_ns,
            end_ns: start_ns,
        };
        r.spans.push(span);
        r.open.push(id);
        Guard(Some(id))
    })
}

/// Records an already finished interval as a span under the innermost
/// open span (used for the gaps between two calls).
pub fn record(name: &str, start: Instant, end: Instant) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.epoch.is_none() {
            return;
        }
        let id = r.spans.len();
        let span = Span {
            id,
            parent: r.open.last().copied(),
            name: name.to_string(),
            run: r.run,
            start_ns: ns_since(r.epoch, start),
            end_ns: ns_since(r.epoch, end),
        };
        r.spans.push(span);
    });
}

/// Takes every span recorded so far on this thread.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Seconds of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Per span name: call count, total seconds and self seconds (a span's
/// duration minus what its direct children cover).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (usize, f64, f64)> {
    let mut child_secs = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_secs[p] += s.secs();
        }
    }
    let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += s.secs();
        e.2 += s.secs() - child_secs[s.id];
    }
    out
}

/// Renders spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"run\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.run, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: format!("s{id}"),
            run: 1,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(0, None, 0, 1_000),
            span(1, Some(0), 100, 400),
            span(2, Some(1), 150, 250),
            span(3, Some(0), 500, 600),
        ];
        let t = self_times(&spans);
        assert!((t["s0"].2 - 600e-9).abs() < 1e-15);
        assert!((t["s1"].2 - 200e-9).abs() < 1e-15);
        assert!((t["s2"].2 - 100e-9).abs() < 1e-15);
    }
}
