//! Deterministic fault injection: a process-global registry of armed
//! faults that any crate in the workspace can consult at well-defined
//! sites — no real `kill -9`, no flaky filesystem mocks.
//!
//! A fault is `kind:site:n`: the *n*-th time (1-based) a call site asks
//! [`trip`] about `(kind, site)`, the fault fires exactly once and a
//! `fault_injected` telemetry event is emitted. Several faults are armed
//! together as a comma-separated plan, e.g.
//!
//! ```text
//! HS_FAULT=io_error:checkpoint:2,kill_after:prune_unit:1
//! ```
//!
//! (every binary arms the `HS_FAULT` environment variable at startup
//! with [`arm_from_env`]; the registry lives this low so atomic file
//! IO, the episode engine and the serving stack can all consult it).
//!
//! The registry is disarmed by default and gated behind one relaxed
//! atomic load, so production call sites pay nothing. Hit counting is
//! deterministic: for a seeded single-threaded pipeline the same plan
//! always fires at the same operation.
//!
//! Fault kinds used across the workspace (the matrix CI exercises):
//!
//! | kind        | site         | effect at the consulting site            |
//! |-------------|--------------|------------------------------------------|
//! | `io_error`  | `checkpoint`, `artifact`, `journal`, `metrics` | the write fails hard with a typed IO error |
//! | `io_flaky`  | same sites   | the first write attempt fails with a transient error; bounded retry recovers |
//! | `corrupt`   | `checkpoint`, `compact_write` | the just-written file gets one byte flipped |
//! | `truncate`  | `checkpoint` | the just-written file loses its tail     |
//! | `kill_after`| `pretrain`, `prune_unit`, `finalize` | the pipeline aborts as if killed at the stage boundary |
//! | `nan_reward`| `layer`, `block`, `block-inner` | the episode's inference reward becomes NaN |
//! | `slow_infer`| `infer`      | a serve micro-batch's modeled compute time is inflated past its timeout |
//! | `load_fail` | `model_load` | a model (re)load attempt fails with a transient error; retry with backoff recovers |
//! | `torn_write` | `checkpoint`, `artifact`, `journal`, `metrics` | half the bytes land at the final path, then the write fails hard — a torn file a later read must catch by CRC |
//! | `worker_lost`| `worker`    | a coordinator evaluation worker dies mid-batch; its items are reassigned and replayed |
//! | `replica_crash`| `replica<K>` | fleet replica K goes down permanently; the prober ejects it and queued requests fail over |
//! | `replica_slow` | `replica<K>` | fleet replica K's modeled compute inflates (toggles back on a later firing) |
//! | `replica_flap` | `replica<K>` | fleet replica K flips between down and up on each firing |
//! | `probe_loss`   | `replica<K>` | one health probe of replica K returns no signal (reads as failed) without the replica going down |
//!
//! (`corrupt:model_load` is also recognised: the serving loader sees a
//! one-byte-flipped checkpoint image on that attempt and retries. The
//! replica kinds use *dynamic* sites — `replica0`, `replica1`, … keyed
//! by replica id — which the plan parser accepts alongside
//! [`KNOWN_SITES`].)

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::event::{Event, EventKind};
use crate::level::Level;

/// One armed fault: fires on the `nth` (1-based) [`trip`] of
/// `(kind, site)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Fault kind (`io_error`, `kill_after`, `nan_reward`, …).
    pub kind: String,
    /// Site name the consulting code passes to [`trip`].
    pub site: String,
    /// 1-based hit on which the fault fires (exactly once).
    pub nth: u64,
}

/// Every fault kind a plan may name. [`FaultPlan::parse`] rejects
/// anything else, so a typo in `HS_FAULT` fails at startup instead of
/// silently running without faults.
pub const KNOWN_KINDS: [&str; 14] = [
    "io_error",
    "io_flaky",
    "corrupt",
    "truncate",
    "torn_write",
    "kill_after",
    "nan_reward",
    "slow_infer",
    "load_fail",
    "worker_lost",
    "replica_crash",
    "replica_slow",
    "replica_flap",
    "probe_loss",
];

/// Every *static* site a plan may name (the workspace's consulting call
/// sites). [`arm`]/[`trip`] stay unrestricted — tests arm synthetic
/// sites programmatically — but specs that reach [`FaultPlan::parse`]
/// must use a real site. Fleet replica sites are dynamic (`replica0`,
/// `replica1`, … — see [`is_replica_site`]) because the id space is
/// chosen at fleet construction, not compile time.
pub const KNOWN_SITES: [&str; 14] = [
    "checkpoint",
    "artifact",
    "journal",
    "metrics",
    "pretrain",
    "prune_unit",
    "finalize",
    "compact_write",
    "layer",
    "block",
    "block-inner",
    "infer",
    "model_load",
    "worker",
];

/// True for the dynamic replica-scoped sites: `replica` followed by a
/// decimal replica id (`replica0`, `replica12`, …).
#[must_use]
pub fn is_replica_site(site: &str) -> bool {
    site.strip_prefix("replica")
        .is_some_and(|id| !id.is_empty() && id.bytes().all(|b| b.is_ascii_digit()))
}

/// The static consulting sites of every fault kind — the registry's
/// kind×site vocabulary, so tooling (the `hs-chaos` schedule generator,
/// doc checks) can *discover* valid plans instead of hardcoding them.
/// Replica-scoped kinds (see [`replica_scoped`]) list no static sites:
/// their sites are the dynamic `replica<K>` family.
pub const KIND_SITES: [(&str, &[&str]); 14] = [
    (
        "io_error",
        &["checkpoint", "artifact", "journal", "metrics"],
    ),
    (
        "io_flaky",
        &["checkpoint", "artifact", "journal", "metrics"],
    ),
    ("corrupt", &["checkpoint", "compact_write", "model_load"]),
    ("truncate", &["checkpoint"]),
    (
        "torn_write",
        &["checkpoint", "artifact", "journal", "metrics"],
    ),
    ("kill_after", &["pretrain", "prune_unit", "finalize"]),
    ("nan_reward", &["layer", "block", "block-inner"]),
    ("slow_infer", &["infer"]),
    ("load_fail", &["model_load"]),
    ("worker_lost", &["worker"]),
    ("replica_crash", &[]),
    ("replica_slow", &[]),
    ("replica_flap", &[]),
    ("probe_loss", &[]),
];

/// The static sites `kind` is consulted at (empty for unknown kinds and
/// for the replica-scoped kinds, whose sites are dynamic).
#[must_use]
pub fn sites_for(kind: &str) -> &'static [&'static str] {
    KIND_SITES
        .iter()
        .find(|(k, _)| *k == kind)
        .map_or(&[], |(_, sites)| sites)
}

/// True for kinds consulted at the dynamic `replica<K>` sites instead
/// of a static site list.
#[must_use]
pub fn replica_scoped(kind: &str) -> bool {
    matches!(
        kind,
        "replica_crash" | "replica_slow" | "replica_flap" | "probe_loss"
    )
}

/// Levenshtein edit distance, for typo suggestions in parse errors.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = if ca == cb { prev } else { prev + 1 };
            prev = row[j + 1];
            row[j + 1] = cost.min(prev + 1).min(row[j] + 1);
        }
    }
    row[b.len()]
}

/// The registered name nearest to `input` by edit distance, for
/// "did you mean" hints. Ties break toward the earlier candidate.
fn nearest<'a>(input: &str, candidates: &[&'a str]) -> Option<&'a str> {
    candidates
        .iter()
        .map(|c| (edit_distance(input, c), *c))
        .min_by_key(|(d, _)| *d)
        .map(|(_, c)| c)
}

/// A rejected fault-plan spec: which entry was malformed and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultParseError {
    /// The entry did not have the `kind:site[:n]` shape.
    BadShape {
        /// The offending entry.
        entry: String,
    },
    /// The count was not a positive integer.
    BadCount {
        /// The offending entry.
        entry: String,
        /// The count text that failed to parse (or was zero).
        count: String,
    },
    /// The kind or site component was empty.
    EmptyComponent {
        /// The offending entry.
        entry: String,
    },
    /// The kind is not one of [`KNOWN_KINDS`].
    UnknownKind {
        /// The offending entry.
        entry: String,
        /// The unrecognised kind.
        kind: String,
    },
    /// The site is not one of [`KNOWN_SITES`].
    UnknownSite {
        /// The offending entry.
        entry: String,
        /// The unrecognised site.
        site: String,
    },
    /// The identical `(kind, site, n)` entry appeared twice. Arming it
    /// twice would be a silent no-op for the second copy (each entry
    /// fires once, and only one entry fires per hit), so the plan is
    /// rejected instead.
    DuplicateEntry {
        /// The repeated entry.
        entry: String,
    },
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultParseError::BadShape { entry } => {
                write!(f, "fault `{entry}`: expected kind:site[:n]")
            }
            FaultParseError::BadCount { entry, count } => {
                write!(
                    f,
                    "fault `{entry}`: bad count `{count}` (want integer >= 1)"
                )
            }
            FaultParseError::EmptyComponent { entry } => {
                write!(f, "fault `{entry}`: empty kind or site")
            }
            FaultParseError::UnknownKind { entry, kind } => {
                write!(f, "fault `{entry}`: unknown kind `{kind}`")?;
                if let Some(hint) = nearest(kind, &KNOWN_KINDS) {
                    write!(f, " — did you mean `{hint}`?")?;
                }
                write!(f, " (valid kinds: {})", KNOWN_KINDS.join(", "))
            }
            FaultParseError::UnknownSite { entry, site } => {
                write!(f, "fault `{entry}`: unknown site `{site}`")?;
                let hint = if site.starts_with("replica") {
                    Some("replica<K>")
                } else {
                    nearest(site, &KNOWN_SITES)
                };
                if let Some(hint) = hint {
                    write!(f, " — did you mean `{hint}`?")?;
                }
                write!(
                    f,
                    " (valid sites: {}, or replica<K>)",
                    KNOWN_SITES.join(", ")
                )
            }
            FaultParseError::DuplicateEntry { entry } => {
                write!(
                    f,
                    "fault `{entry}`: duplicate entry (an identical kind:site:n is \
                     already in the plan; use a different :n to fire on another hit)"
                )
            }
        }
    }
}

impl std::error::Error for FaultParseError {}

/// A parsed set of faults, armed together with [`arm`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faults in plan order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Parses a comma-separated plan like
    /// `io_error:checkpoint:2,kill_after:prune_unit:1`. The count is
    /// optional and defaults to 1 (`corrupt:checkpoint` ≡
    /// `corrupt:checkpoint:1`).
    ///
    /// # Errors
    ///
    /// Returns a typed [`FaultParseError`] for the first malformed
    /// entry — including unknown kinds and sites, which previously
    /// armed fine and then never fired.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultParseError> {
        let mut faults = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let parts: Vec<&str> = entry.split(':').collect();
            let (kind, site, nth) = match parts.as_slice() {
                [kind, site] => (*kind, *site, 1),
                [kind, site, n] => {
                    let nth = n.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        FaultParseError::BadCount {
                            entry: entry.to_string(),
                            count: (*n).to_string(),
                        }
                    })?;
                    (*kind, *site, nth)
                }
                _ => {
                    return Err(FaultParseError::BadShape {
                        entry: entry.to_string(),
                    })
                }
            };
            if kind.is_empty() || site.is_empty() {
                return Err(FaultParseError::EmptyComponent {
                    entry: entry.to_string(),
                });
            }
            if !KNOWN_KINDS.contains(&kind) {
                return Err(FaultParseError::UnknownKind {
                    entry: entry.to_string(),
                    kind: kind.to_string(),
                });
            }
            if !KNOWN_SITES.contains(&site) && !is_replica_site(site) {
                return Err(FaultParseError::UnknownSite {
                    entry: entry.to_string(),
                    site: site.to_string(),
                });
            }
            let fault = Fault {
                kind: kind.to_string(),
                site: site.to_string(),
                nth,
            };
            if faults.contains(&fault) {
                return Err(FaultParseError::DuplicateEntry {
                    entry: entry.to_string(),
                });
            }
            faults.push(fault);
        }
        Ok(FaultPlan { faults })
    }
}

impl fmt::Display for Fault {
    /// The canonical spec form `kind:site:n` — always with the explicit
    /// count, so formatting is a fixed point of parse∘format.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.kind, self.site, self.nth)
    }
}

impl fmt::Display for FaultPlan {
    /// The comma-separated spec form accepted by [`FaultPlan::parse`]
    /// (and `HS_FAULT`); an empty plan formats as the empty string.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

#[derive(Debug)]
struct ArmedFault {
    fault: Fault,
    hits: u64,
    fired: bool,
}

/// Fast gate: true while any plan is armed. Lets [`trip`] cost one
/// relaxed load in production.
static ARMED: AtomicBool = AtomicBool::new(false);

static PLAN: Mutex<Vec<ArmedFault>> = Mutex::new(Vec::new());

/// Arms a fault plan, replacing any previous one and resetting all hit
/// counters.
pub fn arm(plan: FaultPlan) {
    let mut guard = PLAN.lock().expect("fault plan poisoned");
    *guard = plan
        .faults
        .into_iter()
        .map(|fault| ArmedFault {
            fault,
            hits: 0,
            fired: false,
        })
        .collect();
    ARMED.store(!guard.is_empty(), Ordering::Relaxed);
}

/// Environment variable holding the fault plan (`kind:site[:n]`,
/// comma-separated).
pub const FAULT_ENV: &str = "HS_FAULT";

/// Arms the fault plan from the `HS_FAULT` environment variable, if
/// set. With the variable unset or empty this is a no-op (and disarms
/// nothing already armed programmatically).
///
/// # Errors
///
/// `HS_FAULT: <cause>` when the variable is set but malformed — a typo
/// in a fault plan should fail loudly, not silently run without faults.
pub fn arm_from_env() -> Result<(), String> {
    let Ok(spec) = std::env::var(FAULT_ENV) else {
        return Ok(());
    };
    if spec.trim().is_empty() {
        return Ok(());
    }
    arm(FaultPlan::parse(&spec).map_err(|e| format!("{FAULT_ENV}: {e}"))?);
    Ok(())
}

/// Disarms all faults. Safe to call when nothing is armed.
pub fn disarm() {
    arm(FaultPlan::default());
}

/// True while a non-empty fault plan is armed (one relaxed load).
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Records a hit at `(kind, site)` and reports whether an armed fault
/// fires on this hit. Each armed entry fires exactly once, on the
/// configured n-th hit of its `(kind, site)` pair — a plan may list the
/// same pair several times with different counts
/// (`slow_infer:infer:1,slow_infer:infer:2` fires on the first *and*
/// second hit), and every matching entry sees every hit. A
/// `fault_injected` telemetry event is emitted when an entry fires.
///
/// With nothing armed this is one relaxed atomic load and never fires —
/// production call sites can consult it unconditionally.
pub fn trip(kind: &str, site: &str) -> bool {
    if !armed() {
        return false;
    }
    let mut guard = PLAN.lock().expect("fault plan poisoned");
    let mut fired_hit = None;
    for armed in guard.iter_mut() {
        if armed.fault.kind == kind && armed.fault.site == site {
            armed.hits += 1;
            if fired_hit.is_none() && !armed.fired && armed.hits == armed.fault.nth {
                armed.fired = true;
                fired_hit = Some(armed.hits);
            }
        }
    }
    drop(guard);
    if let Some(hit) = fired_hit {
        crate::emit(
            Event::new(EventKind::FaultInjected, Level::Warn, "faults")
                .message(format!("injected {kind} at {site} (hit {hit})"))
                .field("fault", kind)
                .field("site", site)
                .field("hit", hit),
        );
        return true;
    }
    false
}

/// Serializes tests (across this crate) that arm the process-global
/// fault registry, so parallel test threads never see each other's plan.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plans_and_rejects_malformed_entries() {
        let plan = FaultPlan::parse("io_error:checkpoint:2, kill_after:prune_unit:1").unwrap();
        assert_eq!(plan.faults.len(), 2);
        assert_eq!(plan.faults[0].kind, "io_error");
        assert_eq!(plan.faults[0].site, "checkpoint");
        assert_eq!(plan.faults[0].nth, 2);
        // Count defaults to 1.
        assert_eq!(
            FaultPlan::parse("corrupt:checkpoint").unwrap().faults[0].nth,
            1
        );
        assert!(FaultPlan::parse("").unwrap().faults.is_empty());
        assert!(matches!(
            FaultPlan::parse("nonsense"),
            Err(FaultParseError::BadShape { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("io_error:checkpoint:zero"),
            Err(FaultParseError::BadCount { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("io_error:checkpoint:0"),
            Err(FaultParseError::BadCount { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("io_error::1"),
            Err(FaultParseError::EmptyComponent { .. })
        ));
    }

    #[test]
    fn rejects_unknown_kinds_and_sites_with_the_valid_lists() {
        // A typo'd kind used to arm silently and never fire; now it is
        // a startup error naming every valid kind.
        let err = FaultPlan::parse("io_eror:checkpoint:1").unwrap_err();
        assert!(matches!(err, FaultParseError::UnknownKind { ref kind, .. } if kind == "io_eror"));
        let text = err.to_string();
        for kind in KNOWN_KINDS {
            assert!(text.contains(kind), "error text missing kind `{kind}`");
        }

        let err = FaultPlan::parse("io_error:chekpoint").unwrap_err();
        assert!(
            matches!(err, FaultParseError::UnknownSite { ref site, .. } if site == "chekpoint")
        );
        assert!(err.to_string().contains("checkpoint"));

        // The serve kinds/sites are recognised.
        let plan =
            FaultPlan::parse("slow_infer:infer:3,load_fail:model_load,corrupt:model_load").unwrap();
        assert_eq!(plan.faults.len(), 3);
    }

    #[test]
    fn replica_sites_are_dynamic() {
        // `replica<id>` sites are valid for any decimal id …
        let plan = FaultPlan::parse(
            "replica_crash:replica1:5,replica_slow:replica2,replica_flap:replica0",
        )
        .unwrap();
        assert_eq!(plan.faults.len(), 3);
        assert_eq!(plan.faults[0].site, "replica1");
        assert!(is_replica_site("replica12"));
        // … but the prefix alone, or a non-numeric suffix, is not.
        assert!(!is_replica_site("replica"));
        assert!(!is_replica_site("replicaX"));
        assert!(matches!(
            FaultPlan::parse("replica_crash:replica"),
            Err(FaultParseError::UnknownSite { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("replica_crash:replicaX:1"),
            Err(FaultParseError::UnknownSite { .. })
        ));
    }

    #[test]
    fn unknown_names_suggest_the_nearest_registered_one() {
        let err = FaultPlan::parse("io_eror:checkpoint:1").unwrap_err();
        assert!(
            err.to_string().contains("did you mean `io_error`?"),
            "missing kind suggestion: {err}"
        );
        let err = FaultPlan::parse("torn_wrte:journal").unwrap_err();
        assert!(
            err.to_string().contains("did you mean `torn_write`?"),
            "missing kind suggestion: {err}"
        );
        let err = FaultPlan::parse("io_error:chekpoint").unwrap_err();
        assert!(
            err.to_string().contains("did you mean `checkpoint`?"),
            "missing site suggestion: {err}"
        );
        // A malformed replica site points at the dynamic family, not at
        // whichever static site happens to be edit-closest.
        let err = FaultPlan::parse("replica_crash:replicaX:1").unwrap_err();
        assert!(
            err.to_string().contains("did you mean `replica<K>`?"),
            "missing replica hint: {err}"
        );
    }

    #[test]
    fn duplicate_identical_entries_are_rejected() {
        let err = FaultPlan::parse("io_error:checkpoint:2,io_error:checkpoint:2").unwrap_err();
        assert!(matches!(err, FaultParseError::DuplicateEntry { ref entry }
            if entry == "io_error:checkpoint:2"));
        // The implicit :1 and the explicit :1 are the same entry.
        let err = FaultPlan::parse("corrupt:checkpoint,corrupt:checkpoint:1").unwrap_err();
        assert!(matches!(err, FaultParseError::DuplicateEntry { .. }));
        // Same pair with a *different* count is a legitimate multi-hit
        // plan, not a duplicate.
        let plan = FaultPlan::parse("slow_infer:infer:1,slow_infer:infer:2").unwrap();
        assert_eq!(plan.faults.len(), 2);
    }

    #[test]
    fn the_kind_site_table_covers_exactly_the_known_kinds() {
        let table_kinds: Vec<&str> = KIND_SITES.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            table_kinds, KNOWN_KINDS,
            "KIND_SITES drifted from KNOWN_KINDS"
        );
        for (kind, sites) in KIND_SITES {
            assert_eq!(
                sites.is_empty(),
                replica_scoped(kind),
                "`{kind}`: only replica-scoped kinds may have no static sites"
            );
            for site in sites {
                assert!(
                    KNOWN_SITES.contains(site),
                    "`{kind}` lists unregistered site `{site}`"
                );
                // Every advertised pair must survive the parser — the
                // chaos generator samples straight from this table.
                FaultPlan::parse(&format!("{kind}:{site}:3")).unwrap();
            }
        }
        for kind in KNOWN_KINDS {
            if replica_scoped(kind) {
                FaultPlan::parse(&format!("{kind}:replica7:2")).unwrap();
            }
        }
        assert_eq!(
            sites_for("kill_after"),
            ["pretrain", "prune_unit", "finalize"]
        );
        assert!(sites_for("no_such_kind").is_empty());
    }

    #[test]
    fn plans_format_to_their_canonical_spec_and_round_trip() {
        let spec = "io_error:checkpoint:2,probe_loss:replica1:4,torn_write:journal:1";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.to_string(), spec);
        // Count-elided entries normalize to the explicit :1 form, which
        // is then a fixed point.
        let plan = FaultPlan::parse("corrupt:checkpoint, kill_after:finalize:3").unwrap();
        let canonical = plan.to_string();
        assert_eq!(canonical, "corrupt:checkpoint:1,kill_after:finalize:3");
        assert_eq!(FaultPlan::parse(&canonical).unwrap(), plan);
        assert_eq!(FaultPlan::default().to_string(), "");
    }

    #[test]
    fn same_site_entries_fire_in_plan_order_one_per_hit() {
        let _guard = test_lock();
        // Two entries on the same (kind, site) with different counts:
        // every entry sees every hit, so hits 1 and 2 each fire exactly
        // one entry, in plan order.
        arm(FaultPlan::parse("slow_infer:infer:1,slow_infer:infer:2").unwrap());
        assert!(trip("slow_infer", "infer")); // hit 1 fires entry 0
        assert!(trip("slow_infer", "infer")); // hit 2 fires entry 1
        assert!(!trip("slow_infer", "infer")); // both spent
        disarm();

        // Identical entries (armed programmatically — parse rejects
        // them): only the first ever fires, because a hit fires at most
        // one entry and both want the same hit. This pinned no-op is
        // why `FaultPlan::parse` rejects duplicates up front.
        arm(FaultPlan {
            faults: vec![
                Fault {
                    kind: "io_error".into(),
                    site: "dup_site".into(),
                    nth: 1,
                },
                Fault {
                    kind: "io_error".into(),
                    site: "dup_site".into(),
                    nth: 1,
                },
            ],
        });
        assert!(trip("io_error", "dup_site")); // entry 0 fires on hit 1
        assert!(!trip("io_error", "dup_site")); // entry 1 never fires
        assert!(!trip("io_error", "dup_site"));
        disarm();
    }

    #[test]
    fn fires_exactly_once_on_the_nth_hit() {
        let _guard = test_lock();
        // Synthetic sites are armed directly — parse-level site
        // validation only applies to user-supplied specs.
        arm(FaultPlan {
            faults: vec![Fault {
                kind: "io_error".into(),
                site: "site_a".into(),
                nth: 3,
            }],
        });
        assert!(armed());
        assert!(!trip("io_error", "site_a")); // hit 1
        assert!(!trip("io_error", "site_b")); // other site, not counted
        assert!(!trip("other", "site_a")); // other kind, not counted
        assert!(!trip("io_error", "site_a")); // hit 2
        assert!(trip("io_error", "site_a")); // hit 3: fires
        assert!(!trip("io_error", "site_a")); // never again
        disarm();
        assert!(!armed());
        assert!(!trip("io_error", "site_a"));
    }
}
