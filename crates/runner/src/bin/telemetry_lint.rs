//! `telemetry_lint` — validates a JSONL telemetry event stream against
//! schema version 1 (see `hs_telemetry::schema`). CI runs this on the
//! smoke pipeline's `--telemetry` output instead of depending on jq.
//!
//! ```text
//! telemetry_lint events.jsonl [--require-kind KIND]...
//!     [--require-order A,B]... [--require-fields KIND=F1,F2]...
//! ```
//!
//! Exits non-zero when any line fails validation (including an unknown
//! event kind), when the file is empty, when a `--require-kind` (e.g.
//! `episode`, `span`) never appears in the stream, when a
//! `--require-order A,B` pair is missing or out of order (the first
//! `A` must precede the first `B` — e.g. `degrade,restore` asserts the
//! serving stack degraded before it restored; violations are reported
//! with the line number of the early `B` event), or when a
//! `--require-fields KIND=F1,F2` rule finds an event of `KIND` missing
//! one of the listed fields (reported with the line number of the
//! first offending event — e.g. `serve_request=trace_id,span_id`
//! asserts every request event is trace-tagged). Prints a per-kind
//! event count on success.

use std::collections::BTreeMap;
use std::process::ExitCode;

use hs_telemetry::schema::{parse, validate_line, Json};

fn usage() -> ExitCode {
    eprintln!(
        "usage: telemetry_lint <events.jsonl> [--require-kind KIND]... \
         [--require-order A,B]... [--require-fields KIND=F1,F2]..."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut required: Vec<String> = Vec::new();
    let mut ordered: Vec<(String, String)> = Vec::new();
    let mut field_rules: Vec<(String, Vec<String>)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => return usage(),
            "--require-kind" => {
                let Some(kind) = args.get(i + 1) else {
                    return usage();
                };
                required.push(kind.clone());
                i += 2;
            }
            "--require-order" => {
                let Some(pair) = args.get(i + 1) else {
                    return usage();
                };
                let Some((a, b)) = pair.split_once(',') else {
                    return usage();
                };
                ordered.push((a.to_string(), b.to_string()));
                i += 2;
            }
            "--require-fields" => {
                let Some(rule) = args.get(i + 1) else {
                    return usage();
                };
                let Some((kind, fields)) = rule.split_once('=') else {
                    return usage();
                };
                let fields: Vec<String> = fields
                    .split(',')
                    .filter(|f| !f.is_empty())
                    .map(String::from)
                    .collect();
                if fields.is_empty() {
                    return usage();
                }
                field_rules.push((kind.to_string(), fields));
                i += 2;
            }
            flag if flag.starts_with("--") => return usage(),
            positional => {
                if path.replace(positional.to_string()).is_some() {
                    return usage();
                }
                i += 1;
            }
        }
    }
    let Some(path) = path else {
        return usage();
    };

    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("telemetry_lint: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // First offending (line, field) per `--require-fields` rule.
    let mut field_offense: Vec<Option<(usize, String)>> = vec![None; field_rules.len()];
    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
    let mut first_seen: BTreeMap<String, usize> = BTreeMap::new();
    let mut violations = 0usize;
    let mut total = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        total += 1;
        if let Err(e) = validate_line(line) {
            violations += 1;
            eprintln!("telemetry_lint: {path}:{}: {e}", lineno + 1);
            continue;
        }
        // validate_line guarantees a string `kind` on success.
        let value = parse(line).expect("validated line parses");
        let obj = value.as_obj().expect("validated line is an object");
        let kind = obj
            .str("kind")
            .map(String::from)
            .expect("validated line has a kind");
        for (rule_idx, (rule_kind, fields)) in field_rules.iter().enumerate() {
            if rule_kind != &kind || field_offense[rule_idx].is_some() {
                continue;
            }
            let event_fields = obj.get("fields").and_then(Json::as_obj);
            let missing = fields
                .iter()
                .find(|f| event_fields.is_none_or(|m| m.get(f).is_none()));
            if let Some(field) = missing {
                field_offense[rule_idx] = Some((lineno + 1, field.clone()));
            }
        }
        first_seen.entry(kind.clone()).or_insert(lineno + 1);
        *kinds.entry(kind).or_default() += 1;
    }

    if total == 0 {
        eprintln!("telemetry_lint: {path}: no events");
        return ExitCode::FAILURE;
    }
    if violations > 0 {
        eprintln!("telemetry_lint: {path}: {violations}/{total} lines invalid");
        return ExitCode::FAILURE;
    }
    let mut missing = false;
    for kind in &required {
        if !kinds.contains_key(kind) {
            eprintln!("telemetry_lint: {path}: no `{kind}` events");
            missing = true;
        }
    }
    for (rule_idx, (kind, _)) in field_rules.iter().enumerate() {
        if let Some((line, field)) = &field_offense[rule_idx] {
            eprintln!(
                "telemetry_lint: {path}:{line}: first `{kind}` event missing required field `{field}`"
            );
            missing = true;
        }
    }
    for (a, b) in &ordered {
        match (first_seen.get(a), first_seen.get(b)) {
            (Some(la), Some(lb)) if la < lb => {}
            (Some(la), Some(lb)) => {
                // Anchor the diagnostic at the first out-of-order line
                // (the `B` that arrived early), in the same
                // `path:line:` shape as the `--require-fields` report.
                eprintln!(
                    "telemetry_lint: {path}:{lb}: first `{b}` precedes first `{a}` (line {la})"
                );
                missing = true;
            }
            (first_a, first_b) => {
                if first_a.is_none() {
                    eprintln!("telemetry_lint: {path}: no `{a}` events (required before `{b}`)");
                }
                if first_b.is_none() {
                    eprintln!("telemetry_lint: {path}: no `{b}` events (required after `{a}`)");
                }
                missing = true;
            }
        }
    }
    if missing {
        return ExitCode::FAILURE;
    }
    let summary: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
    println!(
        "telemetry_lint: {path}: {total} events ok ({})",
        summary.join(" ")
    );
    ExitCode::SUCCESS
}
