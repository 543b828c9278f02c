//! The workspace's one JSON value (no external dependencies — the
//! workspace builds fully offline) plus [`validate_line`], used by the
//! test suite and the `telemetry_lint` CI binary to check emitted
//! traces against schema version 1.
//!
//! [`Json`] keeps object keys in document (or insertion) order, so a
//! parsed file re-renders byte for byte. It renders two forms: the
//! pretty form ([`Json::render`]) of every on-disk artifact — run
//! journals, serve manifests, load plans, `BENCH_kernels.json` — and
//! the compact form ([`Json::render_compact`]) of `hs_obs report
//! --json` and the chaos reports. The JSONL event stream has its own
//! direct writer ([`crate::Event::to_json_line`]); all three share one
//! string escaper and one number writer.

use crate::event::EventKind;
use crate::event::SCHEMA_VERSION;
use crate::event::{write_json_num, write_json_str};
use crate::level::Level;

/// The deepest nesting [`parse`] accepts. Files the workspace writes
/// nest about five levels; the cap turns a hostile `[[[[…` into an
/// error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

/// A JSON value. Numbers are `f64`; objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Obj),
}

/// A JSON object: key/value pairs in document (or insertion) order.
/// Lookups scan from the back, so with duplicate keys the last wins.
#[derive(Debug, Clone, PartialEq)]
pub struct Obj(Vec<(String, Json)>);

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object with the given key order.
    pub fn obj(pairs: Vec<(String, Json)>) -> Json {
        Json::Obj(Obj(pairs))
    }

    /// A u64 as a `0x`-prefixed hex string: JSON numbers are doubles
    /// and would silently round values above 2⁵³ (RNG state words and
    /// seeds use the full range). Read back with [`Obj::hex`].
    pub fn hex(v: u64) -> Json {
        Json::Str(format!("{v:#x}"))
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_obj(&self) -> Option<&Obj> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// The pretty form, with a trailing newline: two-space indents,
    /// `"key": value`, and non-finite numbers as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// The compact form: no whitespace between tokens, and non-finite
    /// numbers as the string `"inf"` (burn rates with a zero error
    /// budget land there).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Writes the value at `indent` levels of the pretty form, or
    /// compactly when `indent` is `None`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if indent.is_none() && !n.is_finite() => out.push_str("\"inf\""),
            Json::Num(n) => write_json_num(out, *n),
            Json::Str(s) => write_json_str(out, s),
            Json::Arr(items) => write_seq(out, indent, ('[', ']'), items, |out, item, inner| {
                item.write(out, inner);
            }),
            Json::Obj(obj) => write_seq(
                out,
                indent,
                ('{', '}'),
                &obj.0,
                |out, (key, value), inner| {
                    write_json_str(out, key);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    value.write(out, inner);
                },
            ),
        }
    }
}

/// Writes `items` between `open` and `close`, one per line in the
/// pretty form; empty sequences stay on one line in both forms.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    (open, close): (char, char),
    items: &[T],
    write_item: impl Fn(&mut String, &T, Option<usize>),
) {
    out.push(open);
    let inner = indent.map(|depth| depth + 1);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        write_item(out, item, inner);
    }
    if !items.is_empty() {
        newline(out, indent);
    }
    out.push(close);
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

impl Obj {
    /// The value under `key` (the last one, if the key repeats).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.0.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The pairs in order.
    pub fn iter(&self) -> std::slice::Iter<'_, (String, Json)> {
        self.0.iter()
    }

    /// The number under `key`.
    ///
    /// # Errors
    ///
    /// `missing numeric `key`` when absent or not a number.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric `{key}`"))
    }

    /// The number under `key`, if present and a number.
    pub fn opt_num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_num)
    }

    /// The string under `key`.
    ///
    /// # Errors
    ///
    /// `missing string `key`` when absent or not a string.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string `{key}`"))
    }

    /// The string under `key`; absent and `null` read as `None`.
    ///
    /// # Errors
    ///
    /// `` `key` is not a string`` for any other value.
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_str()
                .map(Some)
                .ok_or_else(|| format!("`{key}` is not a string")),
        }
    }

    /// The u64 under `key`, stored as a [`Json::hex`] string.
    ///
    /// # Errors
    ///
    /// Names the key and the [`parse_hex`] failure.
    pub fn hex(&self, key: &str) -> Result<u64, String> {
        parse_hex(self.str(key)?).map_err(|e| format!("`{key}`: {e}"))
    }
}

impl<'a> IntoIterator for &'a Obj {
    type Item = &'a (String, Json);
    type IntoIter = std::slice::Iter<'a, (String, Json)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Parses a `0x`-prefixed hex u64, the form [`Json::hex`] writes.
///
/// # Errors
///
/// Says whether the prefix or the digits are wrong.
pub fn parse_hex(s: &str) -> Result<u64, String> {
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("`{s}` is not a 0x-prefixed hex string"))?;
    u64::from_str_radix(digits, 16).map_err(|_| format!("`{s}` is not a valid hex u64"))
}

/// Parses one JSON value from `input` (which must contain nothing
/// else). Objects keep their document order. Runs in time linear in
/// the input and rejects nesting deeper than 128 levels.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut parser = Parser {
        src: input,
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != input.len() {
        return Err(format!("trailing data at byte {}", parser.pos));
    }
    Ok(value)
}

/// Recursive-descent state. `pos` only ever advances past ASCII bytes
/// or whole string runs, so it always sits on a character boundary.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => self
                .seq(b'}', Parser::entry)
                .map(|pairs| Json::Obj(Obj(pairs))),
            Some(b'[') => self.seq(b']', Parser::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // the opening quote
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one go.
            let rest = &self.src[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = self
                        .src
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                    self.pos += 4;
                    // Surrogates never appear in our own output; map
                    // them to U+FFFD rather than decoding pairs.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    /// One `"key": value` pair of an object.
    fn entry(&mut self) -> Result<(String, Json), String> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(format!("expected object key at byte {}", self.pos));
        }
        let key = self.string()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(format!("expected `:` at byte {}", self.pos));
        }
        self.pos += 1;
        Ok((key, self.value()?))
    }

    /// The comma-separated items of an array or object, from its
    /// opening bracket through `close`.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1; // the opening bracket
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                items.push(item(self)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => {
                        return Err(format!(
                            "expected `,` or `{}` at byte {}",
                            close as char, self.pos
                        ))
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(items)
    }
}

/// Fields every `episode` event must carry (what the paper's training
/// loop logs per episode).
pub const EPISODE_REQUIRED_FIELDS: [&str; 5] = ["reward", "acc", "spd", "l0", "baseline"];

/// Fields every `recovery` event must carry: what went wrong and what
/// the recovery action was.
pub const RECOVERY_REQUIRED_FIELDS: [&str; 2] = ["reason", "action"];

/// Fields every `fault_injected` event must carry: the fault kind, the
/// site it fired at, and which hit tripped it.
pub const FAULT_REQUIRED_FIELDS: [&str; 3] = ["fault", "site", "hit"];

/// Fields every `resume` event must carry: the journal the run resumed
/// from and how many pruned units were already complete.
pub const RESUME_REQUIRED_FIELDS: [&str; 2] = ["journal", "units_done"];

/// Fields every `serve_request` event must carry: the request id and
/// its terminal outcome (`completed` or a typed `reject:…` reason).
pub const SERVE_REQUEST_REQUIRED_FIELDS: [&str; 2] = ["id", "outcome"];

/// Fields every `serve_batch` event must carry: batch size, the model
/// slot it ran on, and whether it completed or timed out.
pub const SERVE_BATCH_REQUIRED_FIELDS: [&str; 3] = ["size", "model", "outcome"];

/// Fields every `serve_breaker` event must carry: the transition edge.
pub const SERVE_BREAKER_REQUIRED_FIELDS: [&str; 2] = ["from", "to"];

/// Fields every `degrade` / `restore` event must carry: why the swap
/// happened and which model slot is now active.
pub const DEGRADE_REQUIRED_FIELDS: [&str; 2] = ["reason", "model"];

/// Fields every `compact` event must carry: the before/after size of
/// the rewritten unit (channels for per-layer events, total MACs for
/// the network summary, which additionally carries `flop_ratio`).
pub const COMPACT_REQUIRED_FIELDS: [&str; 2] = ["before", "after"];

/// Fields every `worker_start` event must carry: the worker's
/// zero-based id.
pub const WORKER_START_REQUIRED_FIELDS: [&str; 1] = ["worker"];

/// Fields every `worker_done` event must carry: the worker id and the
/// number of candidate evaluations it performed over its lifetime.
pub const WORKER_DONE_REQUIRED_FIELDS: [&str; 2] = ["worker", "items"];

/// Fields every `worker_lost` event must carry: the dead worker's id
/// and how many of its in-flight items were reassigned and replayed.
pub const WORKER_LOST_REQUIRED_FIELDS: [&str; 2] = ["worker", "reassigned"];

/// Fields every `slo_burn` event must carry: which request class burned
/// its budget, the target deadline-hit ratio, the ratio actually
/// achieved over the window, and the window size in requests.
pub const SLO_BURN_REQUIRED_FIELDS: [&str; 4] = ["class", "target", "hit_ratio", "window"];

/// Fields every `replica_health` event must carry: which replica moved
/// and the edge it took in the health-state machine.
pub const REPLICA_HEALTH_REQUIRED_FIELDS: [&str; 3] = ["replica", "from", "to"];

/// Fields every `failover` event must carry: the request id and the
/// replica it was evicted from (the `to` field names the destination
/// replica, or `shed` when no live replica could take it).
pub const FAILOVER_REQUIRED_FIELDS: [&str; 2] = ["id", "from"];

/// Fields every `hedge` event must carry: the request id and the
/// lifecycle edge (`launched` | `win` | `loss` | `rejected`).
pub const HEDGE_REQUIRED_FIELDS: [&str; 2] = ["id", "outcome"];

/// Validates one JSONL line against schema version 1.
///
/// Checks: parses as an object; `schema` equals [`SCHEMA_VERSION`];
/// `kind` and `level` are known; `name` / `message` are strings;
/// `fields` is a flat object; `ts` is a number; `span` events carry a
/// numeric `secs`; `episode` events carry [`EPISODE_REQUIRED_FIELDS`],
/// `recovery` events [`RECOVERY_REQUIRED_FIELDS`], `fault_injected`
/// events [`FAULT_REQUIRED_FIELDS`], `resume` events
/// [`RESUME_REQUIRED_FIELDS`], `compact` events
/// [`COMPACT_REQUIRED_FIELDS`] and the coordinator's worker-lifecycle
/// events their `WORKER_*_REQUIRED_FIELDS`.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_line(line: &str) -> Result<(), String> {
    let value = parse(line)?;
    let obj = value.as_obj().ok_or("line is not a JSON object")?;

    let schema = obj.num("schema")?;
    if schema != SCHEMA_VERSION as f64 {
        return Err(format!("unknown schema version {schema}"));
    }

    let kind = obj.str("kind")?;
    if !EventKind::all().iter().any(|k| k.as_str() == kind) {
        return Err(format!("unknown kind `{kind}`"));
    }

    let level = obj.str("level")?;
    if Level::parse(level).is_none() {
        return Err(format!("unknown level `{level}`"));
    }

    obj.str("name")?;
    obj.str("message")?;

    let fields = obj
        .get("fields")
        .and_then(Json::as_obj)
        .ok_or("missing object `fields`")?;
    for (key, value) in fields {
        if matches!(value, Json::Obj(_) | Json::Arr(_)) {
            return Err(format!("field `{key}` is not a flat value"));
        }
    }

    obj.num("ts")?;

    if kind == "span" {
        obj.get("secs")
            .and_then(Json::as_num)
            .ok_or("span event missing numeric `secs`")?;
    }
    let required: &[&str] = match kind {
        "episode" => &EPISODE_REQUIRED_FIELDS,
        "recovery" => &RECOVERY_REQUIRED_FIELDS,
        "fault_injected" => &FAULT_REQUIRED_FIELDS,
        "resume" => &RESUME_REQUIRED_FIELDS,
        "serve_request" => &SERVE_REQUEST_REQUIRED_FIELDS,
        "serve_batch" => &SERVE_BATCH_REQUIRED_FIELDS,
        "serve_breaker" => &SERVE_BREAKER_REQUIRED_FIELDS,
        "degrade" | "restore" => &DEGRADE_REQUIRED_FIELDS,
        "compact" => &COMPACT_REQUIRED_FIELDS,
        "worker_start" => &WORKER_START_REQUIRED_FIELDS,
        "worker_done" => &WORKER_DONE_REQUIRED_FIELDS,
        "worker_lost" => &WORKER_LOST_REQUIRED_FIELDS,
        "slo_burn" => &SLO_BURN_REQUIRED_FIELDS,
        "replica_health" => &REPLICA_HEALTH_REQUIRED_FIELDS,
        "failover" => &FAILOVER_REQUIRED_FIELDS,
        "hedge" => &HEDGE_REQUIRED_FIELDS,
        _ => &[],
    };
    for field in required {
        if fields.get(field).is_none() {
            return Err(format!("{kind} event missing field `{field}`"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn parser_handles_nesting_and_escapes() {
        let v = parse(r#"{"a":[1,-2.5,true,null],"b":{"c":"x\n\"y\""}}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(
            obj.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2.5),
                Json::Bool(true),
                Json::Null
            ]))
        );
        assert_eq!(
            obj.get("b").and_then(Json::as_obj).and_then(|b| b.get("c")),
            Some(&Json::str("x\n\"y\""))
        );
        assert!(parse("{").is_err());
        assert!(parse("{}extra").is_err());
    }

    #[test]
    fn objects_keep_document_order_and_the_last_duplicate_wins() {
        let text = r#"{"b":1,"a":[],"b":{"c":null}}"#;
        let v = parse(text).unwrap();
        let obj = v.as_obj().unwrap();
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a", "b"]);
        assert!(obj.get("b").and_then(Json::as_obj).is_some());
        assert_eq!(v.render_compact(), text);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"k\":"] {
            let err = parse(&open.repeat(100_000)).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn typed_getters_name_the_key() {
        let v = parse(r#"{"n":1,"s":"x","h":"0x1f","bad":"1f","none":null}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj.num("n"), Ok(1.0));
        assert_eq!(obj.num("s").unwrap_err(), "missing numeric `s`");
        assert_eq!(obj.opt_num("s"), None);
        assert_eq!(obj.str("s"), Ok("x"));
        assert_eq!(obj.str("n").unwrap_err(), "missing string `n`");
        assert_eq!(obj.hex("h"), Ok(31));
        assert_eq!(
            obj.hex("bad").unwrap_err(),
            "`bad`: `1f` is not a 0x-prefixed hex string"
        );
        assert_eq!(
            parse_hex("0xzz").unwrap_err(),
            "`0xzz` is not a valid hex u64"
        );
        assert_eq!(obj.opt_str("none"), Ok(None));
        assert_eq!(obj.opt_str("absent"), Ok(None));
        assert_eq!(obj.opt_str("n").unwrap_err(), "`n` is not a string");
        assert_eq!(Json::hex(u64::MAX).as_str(), Some("0xffffffffffffffff"));
    }

    #[test]
    fn emitted_events_validate() {
        let mut span = Event::new(EventKind::Span, Level::Debug, "pipeline/pretrain");
        span.secs = Some(0.25);
        validate_line(&span.to_json_line()).unwrap();

        let log = Event::new(EventKind::Log, Level::Info, "runner")
            .message("budget \"check\" passed")
            .field("flops", 1.5e9);
        validate_line(&log.to_json_line()).unwrap();

        let episode = Event::new(EventKind::Episode, Level::Debug, "conv:0")
            .field("reward", 0.4)
            .field("acc", 0.5)
            .field("spd", 0.1)
            .field("l0", 12u64)
            .field("baseline", 0.3);
        validate_line(&episode.to_json_line()).unwrap();
    }

    #[test]
    fn robustness_kinds_validate_with_required_fields() {
        let recovery = Event::new(EventKind::Recovery, Level::Warn, "engine/layer:0")
            .field("reason", "nan_reward")
            .field("action", "policy_reset")
            .field("reset", 1u64);
        validate_line(&recovery.to_json_line()).unwrap();

        let fault = Event::new(EventKind::FaultInjected, Level::Warn, "faults")
            .field("fault", "io_error")
            .field("site", "checkpoint")
            .field("hit", 2u64);
        validate_line(&fault.to_json_line()).unwrap();

        let resume = Event::new(EventKind::Resume, Level::Info, "runner")
            .field("journal", "run/run.journal.json")
            .field("units_done", 3u64);
        validate_line(&resume.to_json_line()).unwrap();

        let request = Event::new(EventKind::ServeRequest, Level::Debug, "serve")
            .field("id", 7u64)
            .field("outcome", "reject:queue_full");
        validate_line(&request.to_json_line()).unwrap();

        let batch = Event::new(EventKind::ServeBatch, Level::Debug, "serve")
            .field("size", 4u64)
            .field("model", "dense")
            .field("outcome", "timeout");
        validate_line(&batch.to_json_line()).unwrap();

        let breaker = Event::new(EventKind::ServeBreaker, Level::Warn, "serve")
            .field("from", "closed")
            .field("to", "open");
        validate_line(&breaker.to_json_line()).unwrap();

        let degrade = Event::new(EventKind::Degrade, Level::Warn, "serve")
            .field("reason", "breaker_open")
            .field("model", "pruned");
        validate_line(&degrade.to_json_line()).unwrap();

        let restore = Event::new(EventKind::Restore, Level::Info, "serve")
            .field("reason", "recovered")
            .field("model", "dense");
        validate_line(&restore.to_json_line()).unwrap();

        let worker_start =
            Event::new(EventKind::WorkerStart, Level::Debug, "coord").field("worker", 0u64);
        validate_line(&worker_start.to_json_line()).unwrap();

        let worker_done = Event::new(EventKind::WorkerDone, Level::Debug, "coord")
            .field("worker", 0u64)
            .field("items", 128u64);
        validate_line(&worker_done.to_json_line()).unwrap();

        let worker_lost = Event::new(EventKind::WorkerLost, Level::Warn, "coord")
            .field("worker", 2u64)
            .field("reassigned", 3u64);
        validate_line(&worker_lost.to_json_line()).unwrap();

        let slo_burn = Event::new(EventKind::SloBurn, Level::Warn, "serve")
            .field("class", 0u64)
            .field("target", 0.99)
            .field("hit_ratio", 0.8)
            .field("window", 20u64);
        validate_line(&slo_burn.to_json_line()).unwrap();

        let replica_health = Event::new(EventKind::ReplicaHealth, Level::Warn, "fleet")
            .field("replica", 1u64)
            .field("from", "suspect")
            .field("to", "ejected")
            .field("at", 40_000u64);
        validate_line(&replica_health.to_json_line()).unwrap();

        let failover = Event::new(EventKind::Failover, Level::Warn, "fleet")
            .field("id", 17u64)
            .field("from", 1u64)
            .field("to", "0")
            .field("at", 40_000u64);
        validate_line(&failover.to_json_line()).unwrap();

        let hedge = Event::new(EventKind::Hedge, Level::Debug, "fleet")
            .field("id", 9u64)
            .field("outcome", "launched")
            .field("replica", 2u64);
        validate_line(&hedge.to_json_line()).unwrap();

        // Missing required fields are violations.
        let bare = Event::new(EventKind::Recovery, Level::Warn, "x").to_json_line();
        assert!(validate_line(&bare).unwrap_err().contains("reason"));
        let bare = Event::new(EventKind::FaultInjected, Level::Warn, "x").to_json_line();
        assert!(validate_line(&bare).unwrap_err().contains("fault"));
        let bare = Event::new(EventKind::Resume, Level::Info, "x").to_json_line();
        assert!(validate_line(&bare).unwrap_err().contains("journal"));
        let bare = Event::new(EventKind::ServeRequest, Level::Debug, "x").to_json_line();
        assert!(validate_line(&bare).unwrap_err().contains("id"));
        let bare = Event::new(EventKind::Degrade, Level::Warn, "x").to_json_line();
        assert!(validate_line(&bare).unwrap_err().contains("reason"));
        let bare = Event::new(EventKind::WorkerLost, Level::Warn, "x").to_json_line();
        assert!(validate_line(&bare).unwrap_err().contains("worker"));
        let bare = Event::new(EventKind::SloBurn, Level::Warn, "x").to_json_line();
        assert!(validate_line(&bare).unwrap_err().contains("class"));
        let bare = Event::new(EventKind::ReplicaHealth, Level::Warn, "x").to_json_line();
        assert!(validate_line(&bare).unwrap_err().contains("replica"));
        let bare = Event::new(EventKind::Failover, Level::Warn, "x").to_json_line();
        assert!(validate_line(&bare).unwrap_err().contains("id"));
        let bare = Event::new(EventKind::Hedge, Level::Debug, "x")
            .field("id", 9u64)
            .to_json_line();
        assert!(validate_line(&bare).unwrap_err().contains("outcome"));
    }

    #[test]
    fn violations_are_reported() {
        assert!(validate_line("not json").is_err());
        assert!(validate_line(r#"{"schema":2,"kind":"log"}"#)
            .unwrap_err()
            .contains("schema"));
        let bad_kind = r#"{"schema":1,"kind":"blip","level":"info","name":"n","message":"","fields":{},"ts":0}"#;
        assert!(validate_line(bad_kind).unwrap_err().contains("kind"));
        let span_no_secs = r#"{"schema":1,"kind":"span","level":"debug","name":"n","message":"","fields":{},"ts":0}"#;
        assert!(validate_line(span_no_secs).unwrap_err().contains("secs"));
        let episode_missing = r#"{"schema":1,"kind":"episode","level":"debug","name":"n","message":"","fields":{"reward":1},"ts":0}"#;
        assert!(validate_line(episode_missing).unwrap_err().contains("acc"));
    }
}
