//! **hs-obs**: offline analysis over the workspace's deterministic
//! telemetry JSONL stream.
//!
//! Every run (pruning pipeline, coordinator fleet, serving engine)
//! emits schema-v1 JSONL events whose trace ids derive purely from the
//! run's seed, so the stream is byte-identical across repeats and can
//! be analysed after the fact without re-running anything. This crate
//! is the analysis side:
//!
//! - [`trace_timeline`] — the causal timeline of one trace id (or the
//!   trace owning a serve request id): every span in stream order,
//!   indented by parent/child depth.
//! - [`build_report`] — a serving report: latency percentiles from the
//!   `hs_serve_latency_micros` histogram flush, shed-reason breakdown,
//!   breaker and degrade/restore timelines, per-worker utilization,
//!   and per-class SLO burn accounting.
//! - [`diff_metrics`] — final metric values of two runs, with deltas
//!   beyond a relative threshold.
//! - [`bench_check`] — compares a fresh `BENCH_kernels.json` against a
//!   committed baseline and flags GFLOP/s or forward-speedup
//!   regressions (the CI gate behind `hs_obs bench-check`).
//!
//! All output derives only from event *field values* (never wall-clock
//! `ts`), so two seeded runs produce identical reports.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hs_telemetry::schema::{self, Json, Obj};
use hs_telemetry::trace;

// ---------------------------------------------------------------------------
// Event stream loading
// ---------------------------------------------------------------------------

/// One parsed telemetry event line.
#[derive(Debug, Clone)]
pub struct EventRec {
    /// 1-based line number in the source JSONL file.
    pub line: usize,
    /// Event kind string (`log`, `serve_request`, `metric`, …).
    pub kind: String,
    /// Severity string.
    pub level: String,
    /// Event name (for `metric` events: the metric name).
    pub name: String,
    /// Human message, often empty.
    pub message: String,
    /// Flat field map.
    pub fields: BTreeMap<String, Json>,
}

impl EventRec {
    /// String field value, if present and a string.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.fields.get(key).and_then(Json::as_str)
    }

    /// Numeric field value, if present and a number.
    pub fn num_field(&self, key: &str) -> Option<f64> {
        self.fields.get(key).and_then(Json::as_num)
    }
}

/// Parses a JSONL event stream into records.
///
/// # Errors
///
/// Returns `"line N: <cause>"` for the first malformed line; blank
/// lines are skipped.
pub fn load_events(text: &str) -> Result<Vec<EventRec>, String> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let value = schema::parse(raw).map_err(|e| format!("line {line}: {e}"))?;
        let obj = value
            .as_obj()
            .ok_or_else(|| format!("line {line}: not a JSON object"))?;
        let get_str = |key: &str| {
            obj.str(key)
                .map(str::to_string)
                .map_err(|e| format!("line {line}: {e}"))
        };
        out.push(EventRec {
            line,
            kind: get_str("kind")?,
            level: get_str("level")?,
            name: get_str("name")?,
            message: get_str("message")?,
            // Sorted, with the last of any duplicate key winning.
            fields: obj
                .get("fields")
                .and_then(Json::as_obj)
                .map(|fields| fields.iter().cloned().collect())
                .unwrap_or_default(),
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Trace timelines
// ---------------------------------------------------------------------------

/// One event on a trace's timeline.
#[derive(Debug, Clone)]
pub struct TimelineRow {
    /// Source line number.
    pub line: usize,
    /// Event kind.
    pub kind: String,
    /// Event name.
    pub name: String,
    /// Span id of this event.
    pub span: u64,
    /// Parent span id (0 for roots).
    pub parent: u64,
    /// Causal depth under the trace root.
    pub depth: usize,
    /// `key=value` rendering of the non-trace fields.
    pub detail: String,
}

/// Resolves a trace query: a hex trace id that occurs in the stream,
/// or (fallback) a decimal serve request id whose `serve_request`
/// events name the owning trace.
///
/// # Errors
///
/// Describes what was searched when nothing matches.
pub fn resolve_trace(events: &[EventRec], query: &str) -> Result<u64, String> {
    if let Some(id) = trace::parse_hex(query) {
        let hex = trace::hex(id);
        if events
            .iter()
            .any(|e| e.str_field("trace_id") == Some(hex.as_str()))
        {
            return Ok(id);
        }
    }
    if let Ok(rid) = query.parse::<u64>() {
        let owner = events.iter().find(|e| {
            e.kind == "serve_request"
                && e.num_field("id") == Some(rid as f64)
                && e.fields.contains_key("trace_id")
        });
        if let Some(event) = owner {
            if let Some(id) = event.str_field("trace_id").and_then(trace::parse_hex) {
                return Ok(id);
            }
        }
    }
    Err(format!(
        "no trace matches `{query}` (tried hex trace id and decimal serve request id)"
    ))
}

/// The causal timeline of one trace: every event carrying its id, in
/// stream order, with depth derived from the parent/child span links.
pub fn trace_timeline(events: &[EventRec], trace_id: u64) -> Vec<TimelineRow> {
    let hex = trace::hex(trace_id);
    let mut depth_of: BTreeMap<u64, usize> = BTreeMap::new();
    let mut rows = Vec::new();
    for event in events {
        if event.str_field("trace_id") != Some(hex.as_str()) {
            continue;
        }
        let span = event
            .str_field("span_id")
            .and_then(trace::parse_hex)
            .unwrap_or(0);
        let parent = event
            .str_field("parent_id")
            .and_then(trace::parse_hex)
            .unwrap_or(0);
        let depth = if parent == 0 {
            0
        } else {
            depth_of.get(&parent).map_or(0, |d| d + 1)
        };
        depth_of.entry(span).or_insert(depth);
        let mut detail = String::new();
        for (key, value) in &event.fields {
            if matches!(key.as_str(), "trace_id" | "span_id" | "parent_id") {
                continue;
            }
            if !detail.is_empty() {
                detail.push(' ');
            }
            match value {
                Json::Str(s) => {
                    let _ = write!(detail, "{key}={s}");
                }
                Json::Num(n) => {
                    let _ = write!(detail, "{key}={}", Json::Num(*n).render_compact());
                }
                other => {
                    let _ = write!(detail, "{key}={other:?}");
                }
            }
        }
        rows.push(TimelineRow {
            line: event.line,
            kind: event.kind.clone(),
            name: event.name.clone(),
            span,
            parent,
            depth,
            detail,
        });
    }
    rows
}

/// Renders a timeline for terminal display.
pub fn render_timeline(trace_id: u64, rows: &[TimelineRow]) -> String {
    let mut out = format!("trace {} ({} events)\n", trace::hex(trace_id), rows.len());
    for row in rows {
        let indent = "  ".repeat(row.depth);
        let _ = writeln!(
            out,
            "  L{:<5} {}{} {} [span {}] {}",
            row.line,
            indent,
            row.kind,
            row.name,
            trace::hex(row.span),
            row.detail
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Serving report
// ---------------------------------------------------------------------------

/// Latency percentiles recovered from the cumulative bucket counts of
/// the final `hs_serve_latency_micros` metric flush.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Total observations.
    pub count: u64,
    /// Estimated percentiles in microseconds (linear interpolation
    /// within the owning bucket; the `+Inf` bucket clamps to the last
    /// finite bound).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Per-class SLO accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SloClass {
    /// Request class index.
    pub class: u64,
    /// Burn events observed for the class.
    pub burns: u64,
    /// Hit ratio of the last burned window, if any burn occurred.
    pub last_hit_ratio: Option<f64>,
    /// Final burn-rate gauge (`hs_serve_slo_burn_c<class>`), if
    /// flushed.
    pub burn_rate: Option<f64>,
}

/// Fleet-level accounting derived from replica-tagged batch events
/// plus the `replica_health`, `failover`, and `hedge` streams that
/// `hs-fleet` emits. Absent (empty) for single-engine runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetSection {
    /// Per-replica `(batches, items)` utilization, from `serve_batch`
    /// events carrying a `replica` field, keyed by replica id.
    pub replicas: BTreeMap<u64, (u64, u64)>,
    /// Replica health transitions as `(line, replica, from, to)`.
    pub health: Vec<(usize, u64, String, String)>,
    /// Failover dispositions as `(line, id, from_replica, outcome)`.
    pub failovers: Vec<(usize, u64, u64, String)>,
    /// Hedge event counts keyed by outcome (`launched`, `won`, ...).
    pub hedges: BTreeMap<String, u64>,
}

impl FleetSection {
    /// True when the stream carried no fleet telemetry at all.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
            && self.health.is_empty()
            && self.failovers.is_empty()
            && self.hedges.is_empty()
    }

    /// Fraction of launched hedges whose copy won the race, when any
    /// hedge was launched.
    pub fn hedge_win_rate(&self) -> Option<f64> {
        let launched = *self.hedges.get("launched").unwrap_or(&0);
        if launched == 0 {
            return None;
        }
        let won = *self.hedges.get("won").unwrap_or(&0);
        Some(won as f64 / launched as f64)
    }
}

/// Everything `hs_obs report` derives from one event stream.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// `serve_request` outcome counts (`accepted`, `completed`, and
    /// the shed reasons), in outcome order.
    pub outcomes: BTreeMap<String, u64>,
    /// Latency percentiles, when a histogram flush is present.
    pub latency: Option<LatencySummary>,
    /// Breaker transitions as `(line, from, to)`.
    pub breaker: Vec<(usize, String, String)>,
    /// Degrade/restore swaps as `(line, event, reason, model)`.
    pub swaps: Vec<(usize, String, String, String)>,
    /// Per-worker lifetime item counts from `worker_done` events.
    pub workers: Vec<(u64, u64)>,
    /// Per-class SLO accounting, keyed by class.
    pub slo: BTreeMap<u64, SloClass>,
    /// Replica fleet accounting; empty unless the run was fleet-served.
    pub fleet: FleetSection,
    /// Injected-fault tallies from `fault_injected` events, keyed
    /// `kind@site`; empty unless the run was under fault injection
    /// (so chaos-campaign streams summarize what actually fired).
    pub faults: BTreeMap<String, u64>,
}

fn percentile(buckets: &[(f64, u64)], count: u64, q: f64) -> f64 {
    if count == 0 || buckets.is_empty() {
        return 0.0;
    }
    let rank = q * count as f64;
    let mut prev_cum = 0u64;
    let mut prev_bound = 0.0f64;
    let last_finite = buckets
        .iter()
        .rev()
        .find(|(b, _)| b.is_finite())
        .map_or(0.0, |(b, _)| *b);
    for &(bound, cum) in buckets {
        if (cum as f64) >= rank {
            if !bound.is_finite() {
                return last_finite;
            }
            let in_bucket = (cum - prev_cum) as f64;
            if in_bucket <= 0.0 {
                return bound;
            }
            let portion = (rank - prev_cum as f64) / in_bucket;
            return prev_bound + portion.clamp(0.0, 1.0) * (bound - prev_bound);
        }
        prev_cum = cum;
        if bound.is_finite() {
            prev_bound = bound;
        }
    }
    last_finite
}

/// Cumulative `(bound, count)` pairs from a histogram metric event's
/// `le_*` fields, sorted by bound with `le_inf` last.
fn histogram_buckets(event: &EventRec) -> Vec<(f64, u64)> {
    let mut buckets: Vec<(f64, u64)> = Vec::new();
    for (key, value) in &event.fields {
        let Some(rest) = key.strip_prefix("le_") else {
            continue;
        };
        let bound = if rest == "inf" {
            f64::INFINITY
        } else {
            match rest.parse::<f64>() {
                Ok(b) => b,
                Err(_) => continue,
            }
        };
        if let Some(n) = value.as_num() {
            buckets.push((bound, n as u64));
        }
    }
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    buckets
}

/// Builds the serving report from an event stream.
pub fn build_report(events: &[EventRec]) -> Report {
    let mut report = Report::default();
    for event in events {
        match event.kind.as_str() {
            "serve_request" => {
                if let Some(outcome) = event.str_field("outcome") {
                    *report.outcomes.entry(outcome.to_string()).or_insert(0) += 1;
                }
            }
            "serve_breaker" => {
                let from = event.str_field("from").unwrap_or("?").to_string();
                let to = event.str_field("to").unwrap_or("?").to_string();
                report.breaker.push((event.line, from, to));
            }
            "degrade" | "restore" => {
                let reason = event.str_field("reason").unwrap_or("?").to_string();
                let model = event.str_field("model").unwrap_or("?").to_string();
                report
                    .swaps
                    .push((event.line, event.kind.clone(), reason, model));
            }
            "worker_done" => {
                if let (Some(worker), Some(items)) =
                    (event.num_field("worker"), event.num_field("items"))
                {
                    report.workers.push((worker as u64, items as u64));
                }
            }
            "serve_batch" => {
                if let Some(replica) = event.num_field("replica") {
                    let items = event.num_field("size").unwrap_or(0.0) as u64;
                    let entry = report
                        .fleet
                        .replicas
                        .entry(replica as u64)
                        .or_insert((0, 0));
                    entry.0 += 1;
                    entry.1 += items;
                }
            }
            "replica_health" => {
                let replica = event.num_field("replica").unwrap_or(0.0) as u64;
                let from = event.str_field("from").unwrap_or("?").to_string();
                let to = event.str_field("to").unwrap_or("?").to_string();
                report.fleet.health.push((event.line, replica, from, to));
            }
            "failover" => {
                let id = event.num_field("id").unwrap_or(0.0) as u64;
                let from = event.num_field("from").unwrap_or(0.0) as u64;
                let outcome = event.str_field("outcome").unwrap_or("?").to_string();
                report.fleet.failovers.push((event.line, id, from, outcome));
            }
            "hedge" => {
                if let Some(outcome) = event.str_field("outcome") {
                    *report.fleet.hedges.entry(outcome.to_string()).or_insert(0) += 1;
                }
            }
            "fault_injected" => {
                if let (Some(fault), Some(site)) =
                    (event.str_field("fault"), event.str_field("site"))
                {
                    *report.faults.entry(format!("{fault}@{site}")).or_insert(0) += 1;
                }
            }
            "slo_burn" => {
                if let Some(class) = event.num_field("class") {
                    let entry = report.slo.entry(class as u64).or_insert(SloClass {
                        class: class as u64,
                        burns: 0,
                        last_hit_ratio: None,
                        burn_rate: None,
                    });
                    entry.burns += 1;
                    entry.last_hit_ratio = event.num_field("hit_ratio");
                }
            }
            "metric" if event.name == "hs_serve_latency_micros" => {
                let count = event.num_field("count").unwrap_or(0.0) as u64;
                let buckets = histogram_buckets(event);
                report.latency = Some(LatencySummary {
                    count,
                    p50: percentile(&buckets, count, 0.50),
                    p95: percentile(&buckets, count, 0.95),
                    p99: percentile(&buckets, count, 0.99),
                });
            }
            "metric" => {
                if let Some(rest) = event.name.strip_prefix("hs_serve_slo_burn_c") {
                    if let (Ok(class), Some(rate)) = (rest.parse::<u64>(), event.num_field("value"))
                    {
                        let entry = report.slo.entry(class).or_insert(SloClass {
                            class,
                            burns: 0,
                            last_hit_ratio: None,
                            burn_rate: None,
                        });
                        entry.burn_rate = Some(rate);
                    }
                }
            }
            _ => {}
        }
    }
    report
}

/// Shed-reason subset of the outcome counts (everything that is
/// neither `accepted` nor `completed`).
pub fn shed_breakdown(report: &Report) -> Vec<(&str, u64)> {
    report
        .outcomes
        .iter()
        .filter(|(k, _)| k.as_str() != "accepted" && k.as_str() != "completed")
        .map(|(k, v)| (k.as_str(), *v))
        .collect()
}

/// The report as a deterministic JSON value.
pub fn report_json(report: &Report) -> Json {
    let outcomes = Json::obj(
        report
            .outcomes
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
            .collect(),
    );
    let latency = match &report.latency {
        Some(l) => Json::obj(vec![
            ("count".into(), Json::Num(l.count as f64)),
            ("p50_micros".into(), Json::Num(l.p50)),
            ("p95_micros".into(), Json::Num(l.p95)),
            ("p99_micros".into(), Json::Num(l.p99)),
        ]),
        None => Json::obj(vec![]),
    };
    let breaker = Json::Arr(
        report
            .breaker
            .iter()
            .map(|(line, from, to)| {
                Json::obj(vec![
                    ("line".into(), Json::Num(*line as f64)),
                    ("from".into(), Json::str(from.clone())),
                    ("to".into(), Json::str(to.clone())),
                ])
            })
            .collect(),
    );
    let swaps = Json::Arr(
        report
            .swaps
            .iter()
            .map(|(line, event, reason, model)| {
                Json::obj(vec![
                    ("line".into(), Json::Num(*line as f64)),
                    ("event".into(), Json::str(event.clone())),
                    ("reason".into(), Json::str(reason.clone())),
                    ("model".into(), Json::str(model.clone())),
                ])
            })
            .collect(),
    );
    let total_items: u64 = report.workers.iter().map(|(_, items)| items).sum();
    let workers = Json::Arr(
        report
            .workers
            .iter()
            .map(|(worker, items)| {
                let share = if total_items == 0 {
                    0.0
                } else {
                    *items as f64 / total_items as f64
                };
                Json::obj(vec![
                    ("worker".into(), Json::Num(*worker as f64)),
                    ("items".into(), Json::Num(*items as f64)),
                    ("share".into(), Json::Num(share)),
                ])
            })
            .collect(),
    );
    let slo = Json::Arr(
        report
            .slo
            .values()
            .map(|c| {
                let mut entries = vec![
                    ("class".into(), Json::Num(c.class as f64)),
                    ("burns".into(), Json::Num(c.burns as f64)),
                ];
                if let Some(ratio) = c.last_hit_ratio {
                    entries.push(("last_hit_ratio".into(), Json::Num(ratio)));
                }
                if let Some(rate) = c.burn_rate {
                    entries.push(("burn_rate".into(), Json::Num(rate)));
                }
                Json::obj(entries)
            })
            .collect(),
    );
    let mut top = vec![
        ("outcomes".into(), outcomes),
        ("latency".into(), latency),
        ("breaker".into(), breaker),
        ("swaps".into(), swaps),
        ("workers".into(), workers),
        ("slo".into(), slo),
    ];
    if !report.fleet.is_empty() {
        top.push(("fleet".into(), fleet_json(&report.fleet)));
    }
    if !report.faults.is_empty() {
        top.push((
            "faults".into(),
            Json::obj(
                report
                    .faults
                    .iter()
                    .map(|(key, count)| (key.clone(), Json::Num(*count as f64)))
                    .collect(),
            ),
        ));
    }
    Json::obj(top)
}

/// The fleet section as a deterministic JSON value.
fn fleet_json(fleet: &FleetSection) -> Json {
    let total_items: u64 = fleet.replicas.values().map(|(_, items)| items).sum();
    let replicas = Json::Arr(
        fleet
            .replicas
            .iter()
            .map(|(replica, (batches, items))| {
                let share = if total_items == 0 {
                    0.0
                } else {
                    *items as f64 / total_items as f64
                };
                Json::obj(vec![
                    ("replica".into(), Json::Num(*replica as f64)),
                    ("batches".into(), Json::Num(*batches as f64)),
                    ("items".into(), Json::Num(*items as f64)),
                    ("share".into(), Json::Num(share)),
                ])
            })
            .collect(),
    );
    let health = Json::Arr(
        fleet
            .health
            .iter()
            .map(|(line, replica, from, to)| {
                Json::obj(vec![
                    ("line".into(), Json::Num(*line as f64)),
                    ("replica".into(), Json::Num(*replica as f64)),
                    ("from".into(), Json::str(from.clone())),
                    ("to".into(), Json::str(to.clone())),
                ])
            })
            .collect(),
    );
    let failovers = Json::Arr(
        fleet
            .failovers
            .iter()
            .map(|(line, id, from, outcome)| {
                Json::obj(vec![
                    ("line".into(), Json::Num(*line as f64)),
                    ("id".into(), Json::Num(*id as f64)),
                    ("from".into(), Json::Num(*from as f64)),
                    ("outcome".into(), Json::str(outcome.clone())),
                ])
            })
            .collect(),
    );
    let hedges = Json::obj(
        fleet
            .hedges
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
            .collect(),
    );
    let mut entries = vec![
        ("replicas".into(), replicas),
        ("health".into(), health),
        ("failovers".into(), failovers),
        ("hedges".into(), hedges),
    ];
    if let Some(rate) = fleet.hedge_win_rate() {
        entries.push(("hedge_win_rate".into(), Json::Num(rate)));
    }
    Json::obj(entries)
}

/// The report as a human-readable table.
pub fn report_table(report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "request outcomes");
    for (outcome, count) in &report.outcomes {
        let _ = writeln!(out, "  {outcome:<22} {count}");
    }
    if let Some(l) = &report.latency {
        let _ = writeln!(out, "latency (micros, {} observed)", l.count);
        let _ = writeln!(out, "  p50 {:>12.1}", l.p50);
        let _ = writeln!(out, "  p95 {:>12.1}", l.p95);
        let _ = writeln!(out, "  p99 {:>12.1}", l.p99);
    }
    if !report.breaker.is_empty() {
        let _ = writeln!(out, "breaker transitions");
        for (line, from, to) in &report.breaker {
            let _ = writeln!(out, "  L{line:<5} {from} -> {to}");
        }
    }
    if !report.swaps.is_empty() {
        let _ = writeln!(out, "model swaps");
        for (line, event, reason, model) in &report.swaps {
            let _ = writeln!(out, "  L{line:<5} {event:<8} {reason:<20} -> {model}");
        }
    }
    if !report.workers.is_empty() {
        let total: u64 = report.workers.iter().map(|(_, items)| items).sum();
        let _ = writeln!(out, "worker utilization ({total} items)");
        for (worker, items) in &report.workers {
            let share = if total == 0 {
                0.0
            } else {
                *items as f64 / total as f64
            };
            let _ = writeln!(
                out,
                "  worker {worker:<3} {items:>8} items  {:>5.1}%",
                share * 100.0
            );
        }
    }
    if !report.slo.is_empty() {
        let _ = writeln!(out, "slo burn");
        for c in report.slo.values() {
            let rate = c.burn_rate.map_or("-".to_string(), |r| format!("{r:.3}"));
            let _ = writeln!(
                out,
                "  class {:<3} burns {:<4} burn_rate {rate}",
                c.class, c.burns
            );
        }
    }
    let fleet = &report.fleet;
    if !fleet.replicas.is_empty() {
        let total: u64 = fleet.replicas.values().map(|(_, items)| items).sum();
        let _ = writeln!(out, "replica utilization ({total} items)");
        for (replica, (batches, items)) in &fleet.replicas {
            let share = if total == 0 {
                0.0
            } else {
                *items as f64 / total as f64
            };
            let _ = writeln!(
                out,
                "  replica {replica:<3} {batches:>6} batches {items:>8} items  {:>5.1}%",
                share * 100.0
            );
        }
    }
    if !fleet.health.is_empty() {
        let _ = writeln!(out, "replica health");
        for (line, replica, from, to) in &fleet.health {
            let _ = writeln!(out, "  L{line:<5} replica {replica} {from} -> {to}");
        }
    }
    if !fleet.failovers.is_empty() {
        let _ = writeln!(out, "failovers");
        for (line, id, from, outcome) in &fleet.failovers {
            let _ = writeln!(
                out,
                "  L{line:<5} request {id} off replica {from}: {outcome}"
            );
        }
    }
    if !fleet.hedges.is_empty() {
        let _ = writeln!(out, "hedges");
        for (outcome, count) in &fleet.hedges {
            let _ = writeln!(out, "  {outcome:<22} {count}");
        }
        if let Some(rate) = fleet.hedge_win_rate() {
            let _ = writeln!(out, "  win_rate {:>14.3}", rate);
        }
    }
    if !report.faults.is_empty() {
        let total: u64 = report.faults.values().sum();
        let _ = writeln!(out, "faults injected ({total} total)");
        for (key, count) in &report.faults {
            let _ = writeln!(out, "  {key:<28} {count}");
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Run diffs
// ---------------------------------------------------------------------------

/// A metric whose final value moved beyond the diff threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name.
    pub name: String,
    /// Final value in run A (0 when absent).
    pub a: f64,
    /// Final value in run B (0 when absent).
    pub b: f64,
    /// Relative delta `|a-b| / max(|a|,|b|)`.
    pub relative: f64,
}

/// Final value per metric name: the last `metric` flush event wins.
/// Counters and gauges contribute `value`, histograms their `count`.
pub fn final_metrics(events: &[EventRec]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for event in events.iter().filter(|e| e.kind == "metric") {
        let value = event
            .num_field("value")
            .or_else(|| event.num_field("count"));
        if let Some(v) = value {
            out.insert(event.name.clone(), v);
        }
    }
    out
}

/// Metrics differing between two runs by more than `threshold`
/// (relative), sorted by name.
pub fn diff_metrics(
    a: &BTreeMap<String, f64>,
    b: &BTreeMap<String, f64>,
    threshold: f64,
) -> Vec<MetricDelta> {
    let mut names: Vec<&String> = a.keys().chain(b.keys()).collect();
    names.sort();
    names.dedup();
    let mut out = Vec::new();
    for name in names {
        let va = a.get(name).copied().unwrap_or(0.0);
        let vb = b.get(name).copied().unwrap_or(0.0);
        let scale = va.abs().max(vb.abs());
        let relative = if scale == 0.0 {
            0.0
        } else {
            (va - vb).abs() / scale
        };
        if relative > threshold {
            out.push(MetricDelta {
                name: name.clone(),
                a: va,
                b: vb,
                relative,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Benchmark regression checks
// ---------------------------------------------------------------------------

/// One benchmark row that regressed against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// What regressed, e.g. `gemm[256].new_gflops`.
    pub what: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value (0 when the row vanished).
    pub current: f64,
}

fn bench_rows<'a>(doc: &'a Json, key: &str) -> Vec<&'a Obj> {
    match doc.as_obj().and_then(|o| o.get(key)) {
        Some(Json::Arr(rows)) => rows.iter().filter_map(Json::as_obj).collect(),
        _ => Vec::new(),
    }
}

fn check_metric(
    what: String,
    baseline: Option<f64>,
    current: Option<f64>,
    tolerance: f64,
    out: &mut Vec<Regression>,
) {
    let Some(base) = baseline else { return };
    let cur = current.unwrap_or(0.0);
    if cur < base * (1.0 - tolerance) {
        out.push(Regression {
            what,
            baseline: base,
            current: cur,
        });
    }
}

/// Compares a freshly produced `BENCH_kernels.json` against a
/// committed baseline: every baseline GEMM row's `new_gflops` and
/// every forward row's `measured_speedup` (compacted over dense) and
/// `masked_speedup` (masked over dense, the nets candidate scoring runs)
/// must stay within `tolerance` (relative) of the baseline. Rows present
/// only in the current file are informational, never regressions.
pub fn bench_check(current: &Json, baseline: &Json, tolerance: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    let cur_gemm: BTreeMap<i64, &Obj> = bench_rows(current, "gemm")
        .into_iter()
        .filter_map(|row| {
            row.get("size")
                .and_then(Json::as_num)
                .map(|s| (s as i64, row))
        })
        .collect();
    for row in bench_rows(baseline, "gemm") {
        let Some(size) = row.get("size").and_then(Json::as_num) else {
            continue;
        };
        let cur = cur_gemm
            .get(&(size as i64))
            .and_then(|r| r.get("new_gflops"))
            .and_then(Json::as_num);
        check_metric(
            format!("gemm[{}].new_gflops", size as i64),
            row.get("new_gflops").and_then(Json::as_num),
            cur,
            tolerance,
            &mut out,
        );
    }
    let fwd_key = |row: &Obj| -> Option<String> {
        let model = row.get("model").and_then(Json::as_str)?;
        let sp = row.get("sp").and_then(Json::as_num)?;
        Some(format!("{model}@sp{sp}"))
    };
    let cur_fwd: BTreeMap<String, &Obj> = bench_rows(current, "forward")
        .into_iter()
        .filter_map(|row| fwd_key(row).map(|k| (k, row)))
        .collect();
    for row in bench_rows(baseline, "forward") {
        let Some(key) = fwd_key(row) else { continue };
        for metric in ["measured_speedup", "masked_speedup"] {
            let cur = cur_fwd
                .get(&key)
                .and_then(|r| r.get(metric))
                .and_then(Json::as_num);
            check_metric(
                format!("forward[{key}].{metric}"),
                row.get(metric).and_then(Json::as_num),
                cur,
                tolerance,
                &mut out,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_telemetry::{Event, EventKind, Level, TraceCtx};

    fn stream(events: Vec<Event>) -> Vec<EventRec> {
        let text: String = events
            .into_iter()
            .map(|mut e| {
                e.ts = 0.0;
                let mut line = e.to_json_line();
                line.push('\n');
                line
            })
            .collect();
        load_events(&text).unwrap()
    }

    fn request_event(id: u64, outcome: &str, ctx: &TraceCtx) -> Event {
        Event::new(EventKind::ServeRequest, Level::Info, "serve/request")
            .field("id", id)
            .field("outcome", outcome)
            .traced(ctx)
    }

    #[test]
    fn loads_real_event_lines_with_line_numbers() {
        let events = stream(vec![
            Event::new(EventKind::Log, Level::Info, "runner").message("hello"),
            Event::new(EventKind::Metric, Level::Debug, "hs_x").field("value", 3u64),
        ]);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].line, 1);
        assert_eq!(events[1].line, 2);
        assert_eq!(events[1].num_field("value"), Some(3.0));
        assert!(load_events("{not json\n").is_err());
    }

    #[test]
    fn resolves_request_ids_and_names_shed_reason() {
        let root = TraceCtx::root(0x4853, 0);
        let other = TraceCtx::root(0x4853, 1);
        let events = stream(vec![
            request_event(7, "accepted", &root),
            request_event(9, "queue_full", &other),
            request_event(7, "completed", &root.child(1)),
        ]);
        // Decimal request id resolves to its owning trace.
        let id = resolve_trace(&events, "7").unwrap();
        assert_eq!(id, root.trace);
        // The hex trace id resolves directly too.
        let hex = trace::hex(other.trace);
        assert_eq!(resolve_trace(&events, &hex).unwrap(), other.trace);
        assert!(resolve_trace(&events, "beef").is_err());

        // A shed request's timeline names the shed reason.
        let shed_id = resolve_trace(&events, "9").unwrap();
        let rows = trace_timeline(&events, shed_id);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].detail.contains("outcome=queue_full"));
        let rendered = render_timeline(shed_id, &rows);
        assert!(rendered.contains("queue_full"));
    }

    #[test]
    fn timeline_indents_children_under_their_root() {
        let root = TraceCtx::root(1, 0);
        let events = stream(vec![
            request_event(1, "accepted", &root),
            request_event(1, "completed", &root.child(1)),
        ]);
        let rows = trace_timeline(&events, root.trace);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].depth, 0);
        assert_eq!(rows[1].depth, 1);
        assert_eq!(rows[1].parent, root.span);
    }

    #[test]
    fn report_recovers_percentiles_from_cumulative_buckets() {
        // 100 observations: 50 in (0,1000], 45 in (1000,5000],
        // 5 in (5000,10000].
        let hist = Event::new(EventKind::Metric, Level::Debug, "hs_serve_latency_micros")
            .field("metric_kind", "histogram")
            .field("count", 100u64)
            .field("sum", 2.0e5)
            .field("le_1000", 50u64)
            .field("le_5000", 95u64)
            .field("le_10000", 100u64)
            .field("le_inf", 100u64);
        let events = stream(vec![hist]);
        let report = build_report(&events);
        let latency = report.latency.expect("histogram flush parsed");
        assert_eq!(latency.count, 100);
        assert!((latency.p50 - 1000.0).abs() < 1e-9, "p50={}", latency.p50);
        assert!(latency.p95 > 1000.0 && latency.p95 <= 5000.0);
        assert!(latency.p99 > 5000.0 && latency.p99 <= 10000.0);
    }

    #[test]
    fn report_aggregates_outcomes_swaps_workers_and_slo() {
        let ctx = TraceCtx::root(2, 0);
        let events = stream(vec![
            request_event(1, "accepted", &ctx),
            request_event(1, "completed", &ctx.child(1)),
            request_event(2, "queue_full", &TraceCtx::root(2, 1)),
            Event::new(EventKind::ServeBreaker, Level::Warn, "serve/breaker")
                .field("from", "closed")
                .field("to", "open"),
            Event::new(EventKind::Degrade, Level::Warn, "serve/engine")
                .field("reason", "breaker_open")
                .field("model", "pruned"),
            Event::new(EventKind::WorkerDone, Level::Debug, "coord")
                .field("worker", 0u64)
                .field("items", 30u64),
            Event::new(EventKind::WorkerDone, Level::Debug, "coord")
                .field("worker", 1u64)
                .field("items", 10u64),
            Event::new(EventKind::SloBurn, Level::Warn, "serve/slo")
                .field("class", 0u64)
                .field("target", 0.9)
                .field("hit_ratio", 0.5)
                .field("window", 20u64),
            Event::new(EventKind::Metric, Level::Debug, "hs_serve_slo_burn_c0")
                .field("metric_kind", "gauge")
                .field("value", 5.0),
        ]);
        let report = build_report(&events);
        assert_eq!(report.outcomes["accepted"], 1);
        assert_eq!(report.outcomes["completed"], 1);
        assert_eq!(shed_breakdown(&report), vec![("queue_full", 1)]);
        assert_eq!(report.breaker.len(), 1);
        assert_eq!(report.swaps[0].2, "breaker_open");
        assert_eq!(report.workers, vec![(0, 30), (1, 10)]);
        let slo = &report.slo[&0];
        assert_eq!(slo.burns, 1);
        assert_eq!(slo.last_hit_ratio, Some(0.5));
        assert_eq!(slo.burn_rate, Some(5.0));

        // JSON output is a pure function of field values.
        let a = report_json(&report).render_compact();
        let b = report_json(&build_report(&events)).render_compact();
        assert_eq!(a, b);
        assert!(a.contains("\"queue_full\":1"));
        let table = report_table(&report);
        assert!(table.contains("worker 0"));
        assert!(table.contains("burn_rate 5.000"));
    }

    #[test]
    fn report_builds_the_fleet_section_only_from_fleet_telemetry() {
        // A single-engine stream (no replica tags) yields no fleet key.
        let plain = stream(vec![Event::new(
            EventKind::ServeBatch,
            Level::Debug,
            "serve/batch",
        )
        .field("size", 4u64)
        .field("outcome", "flush")]);
        let report = build_report(&plain);
        assert!(report.fleet.is_empty());
        assert!(!report_json(&report).render_compact().contains("\"fleet\""));

        // A fleet stream fills all four sub-sections.
        let batch = |replica: u64, size: u64| {
            Event::new(EventKind::ServeBatch, Level::Debug, "serve/batch")
                .field("size", size)
                .field("outcome", "flush")
                .field("replica", replica)
        };
        let events = stream(vec![
            batch(0, 3),
            batch(0, 1),
            batch(1, 4),
            Event::new(EventKind::ReplicaHealth, Level::Warn, "fleet/health")
                .field("replica", 2u64)
                .field("from", "healthy")
                .field("to", "suspect"),
            Event::new(EventKind::ReplicaHealth, Level::Warn, "fleet/health")
                .field("replica", 2u64)
                .field("from", "suspect")
                .field("to", "ejected"),
            Event::new(EventKind::Failover, Level::Warn, "fleet/failover")
                .field("id", 7u64)
                .field("from", 2u64)
                .field("outcome", "rerouted"),
            Event::new(EventKind::Hedge, Level::Info, "fleet/hedge")
                .field("id", 9u64)
                .field("outcome", "launched"),
            Event::new(EventKind::Hedge, Level::Info, "fleet/hedge")
                .field("id", 9u64)
                .field("outcome", "won"),
            Event::new(EventKind::Hedge, Level::Info, "fleet/hedge")
                .field("id", 11u64)
                .field("outcome", "launched"),
        ]);
        let report = build_report(&events);
        assert_eq!(report.fleet.replicas[&0], (2, 4));
        assert_eq!(report.fleet.replicas[&1], (1, 4));
        assert_eq!(report.fleet.health.len(), 2);
        assert_eq!(report.fleet.health[1].3, "ejected");
        assert_eq!(report.fleet.failovers, vec![(6, 7, 2, "rerouted".into())]);
        assert_eq!(report.fleet.hedges["launched"], 2);
        assert!((report.fleet.hedge_win_rate().unwrap() - 0.5).abs() < 1e-9);

        let json = report_json(&report).render_compact();
        assert!(json.contains("\"fleet\""));
        assert!(json.contains("\"hedge_win_rate\":0.5"));
        assert!(json.contains("\"share\":0.5"));
        let table = report_table(&report);
        assert!(table.contains("replica utilization (8 items)"));
        assert!(table.contains("replica 2 healthy -> suspect"));
        assert!(table.contains("request 7 off replica 2: rerouted"));
        assert!(table.contains("win_rate"));
    }

    #[test]
    fn diff_flags_only_moved_metrics() {
        let a = BTreeMap::from([
            ("hs_serve_completed_total".to_string(), 100.0),
            ("hs_serve_rejected_total".to_string(), 10.0),
        ]);
        let b = BTreeMap::from([
            ("hs_serve_completed_total".to_string(), 101.0),
            ("hs_serve_rejected_total".to_string(), 20.0),
        ]);
        let deltas = diff_metrics(&a, &b, 0.05);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].name, "hs_serve_rejected_total");
        assert!((deltas[0].relative - 0.5).abs() < 1e-9);
        // Identical runs diff clean at any threshold.
        assert!(diff_metrics(&a, &a, 0.0).is_empty());
    }

    fn bench_doc(gflops: f64, speedup: f64, masked: f64) -> Json {
        schema::parse(&format!(
            r#"{{"gemm":[{{"size":256,"new_gflops":{gflops},"speedup":2.0}}],
                "forward":[{{"model":"vgg11","sp":2,"measured_speedup":{speedup},
                             "masked_speedup":{masked}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn bench_check_flags_synthetic_regressions() {
        let baseline = bench_doc(10.0, 1.8, 1.6);
        // Identical results pass.
        assert!(bench_check(&baseline, &baseline, 0.3).is_empty());
        // A small wobble inside the tolerance passes.
        assert!(bench_check(&bench_doc(9.0, 1.7, 1.5), &baseline, 0.3).is_empty());
        // A synthetically regressed GFLOP/s rate is flagged.
        let regressions = bench_check(&bench_doc(4.0, 1.8, 1.6), &baseline, 0.3);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].what, "gemm[256].new_gflops");
        // So is a forward-speedup collapse.
        let regressions = bench_check(&bench_doc(10.0, 0.9, 1.6), &baseline, 0.3);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].what, "forward[vgg11@sp2].measured_speedup");
        // And a masked net that lost its skipped multiply-adds.
        let regressions = bench_check(&bench_doc(10.0, 1.8, 1.0), &baseline, 0.3);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].what, "forward[vgg11@sp2].masked_speedup");
        // A vanished row counts as a regression to zero.
        let empty = schema::parse("{}").unwrap();
        let regressions = bench_check(&empty, &baseline, 0.3);
        assert_eq!(regressions.len(), 3);
        assert_eq!(regressions[0].current, 0.0);
    }

    #[test]
    fn fault_injections_are_tallied_by_kind_and_site() {
        let fault = |kind: &str, site: &str| {
            Event::new(EventKind::FaultInjected, Level::Warn, "faults")
                .message(format!("injected {kind} at {site} (hit 1)"))
                .field("fault", kind)
                .field("site", site)
                .field("hit", 1u64)
        };
        let events = stream(vec![
            fault("torn_write", "metrics"),
            fault("probe_loss", "replica1"),
            fault("torn_write", "metrics"),
        ]);
        let report = build_report(&events);
        assert_eq!(report.faults.get("torn_write@metrics"), Some(&2));
        assert_eq!(report.faults.get("probe_loss@replica1"), Some(&1));
        let json = report_json(&report).render_compact();
        assert!(
            json.contains(r#""faults":{"probe_loss@replica1":1,"torn_write@metrics":2}"#),
            "{json}"
        );
        let table = report_table(&report);
        assert!(table.contains("faults injected (3 total)"), "{table}");
        assert!(table.contains("torn_write@metrics"), "{table}");
        // Fault-free streams keep the section out entirely.
        let clean = build_report(&[]);
        assert!(!report_json(&clean).render_compact().contains("faults"));
        assert!(!report_table(&clean).contains("faults injected"));
    }
}
