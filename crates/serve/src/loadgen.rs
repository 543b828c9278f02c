//! Deterministic load generation: seeded open- and closed-loop drivers.
//!
//! An **open-loop** profile is a fixed arrival schedule generated from
//! a seed (arrivals keep coming regardless of how the server copes —
//! the honest way to measure overload). A **closed-loop** driver
//! simulates `concurrency` clients that each wait for their previous
//! request's outcome plus a think time before issuing the next one
//! (back-pressure reaches the clients, like a connection-pooled RPC
//! caller).
//!
//! Profiles serialise to JSON so `hs_loadgen` can write a schedule once
//! and `hs_serve` can replay it byte-for-byte; both sides use the
//! workspace's own JSON reader/writer — no external crates.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use hs_telemetry::io::write_json;
use hs_telemetry::schema::{self, Json, Obj};
use hs_tensor::Rng;

use crate::engine::ServeEngine;
use crate::error::ServeError;
use crate::request::{Micros, Outcome, Request};

/// Profile format version (bumped on breaking layout changes).
pub const PROFILE_VERSION: u64 = 1;

/// One scheduled arrival in an open-loop profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Request id (unique within the profile).
    pub id: u64,
    /// Arrival time.
    pub at: Micros,
    /// Absolute deadline.
    pub deadline: Micros,
    /// Sample index into the serving input pool.
    pub sample: usize,
    /// SLO class the request is accounted under.
    pub class: usize,
    /// Tenant the request is billed to (must be < the profile's
    /// declared `tenants` count).
    pub tenant: usize,
}

/// A fixed, replayable arrival schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadProfile {
    /// The seed the schedule was generated from (recorded for
    /// provenance; replay uses the entries, not the seed).
    pub seed: u64,
    /// Size of the tenant id space: every entry's `tenant` must be
    /// below this (min 1).
    pub tenants: usize,
    /// Arrivals in nondecreasing `at` order.
    pub entries: Vec<ProfileEntry>,
}

/// A structurally valid but *semantically* undriveable plan: the
/// schedule would be undefined (time running backwards) or would bill
/// a tenant the plan never declared. Each variant carries the offending
/// entry's index and its 1-based line in the plan file so the fix is
/// one `sed -n` away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// An entry's arrival time precedes the previous entry's.
    NonMonotonic {
        /// Zero-based index of the offending entry.
        index: usize,
        /// 1-based line of the offending entry in the plan file.
        line: usize,
        /// The previous entry's arrival time.
        prev_at: Micros,
        /// The offending (earlier) arrival time.
        at: Micros,
    },
    /// An entry names a tenant id outside the declared tenant space.
    UnknownTenant {
        /// Zero-based index of the offending entry.
        index: usize,
        /// 1-based line of the offending entry in the plan file.
        line: usize,
        /// The unknown tenant id.
        tenant: usize,
        /// The declared tenant-space size (valid ids are `0..tenants`).
        tenants: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NonMonotonic {
                index,
                line,
                prev_at,
                at,
            } => write!(
                f,
                "entry {index} (line {line}): non-monotonic timestamp {at} \
                 (previous entry arrives at {prev_at})"
            ),
            PlanError::UnknownTenant {
                index,
                line,
                tenant,
                tenants,
            } => write!(
                f,
                "entry {index} (line {line}): unknown tenant {tenant} \
                 (plan declares {tenants} tenant{})",
                if *tenants == 1 { "" } else { "s" }
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Knobs for generating load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadSpec {
    /// Total requests to issue.
    pub requests: u64,
    /// Open loop: mean inter-arrival gap.
    pub gap: Micros,
    /// Relative deadline given to every request.
    pub deadline: Micros,
    /// RNG seed (arrival jitter, sample choice).
    pub seed: u64,
    /// Closed loop: number of concurrent clients.
    pub concurrency: usize,
    /// Closed loop: pause between an outcome and the client's next
    /// request.
    pub think: Micros,
    /// SLO classes requests are spread across (request `id % classes`;
    /// min 1). Deliberately not drawn from the RNG so adding classes
    /// never perturbs an existing seeded schedule.
    pub classes: usize,
    /// Tenants requests are spread across (request `id % tenants`; min
    /// 1). Like `classes`, not RNG-drawn, so adding tenants never
    /// perturbs an existing seeded schedule.
    pub tenants: usize,
}

impl Default for LoadSpec {
    fn default() -> LoadSpec {
        LoadSpec {
            requests: 64,
            gap: 1_000,
            deadline: 50_000,
            seed: 0x4853,
            concurrency: 4,
            think: 2_000,
            classes: 1,
            tenants: 1,
        }
    }
}

impl LoadSpec {
    /// Generates the open-loop arrival schedule: inter-arrival steps
    /// are `gap ± 25%`, jittered by the seeded RNG, so the same spec
    /// always yields the same profile.
    pub fn open_profile(&self) -> LoadProfile {
        let mut rng = Rng::seed_from(self.seed);
        let mut at: Micros = 0;
        let jitter_span = self.gap / 2 + 1;
        let entries = (0..self.requests)
            .map(|id| {
                at += self.gap - self.gap / 4 + rng.next_u64() % jitter_span;
                ProfileEntry {
                    id,
                    at,
                    deadline: at + self.deadline,
                    sample: (rng.next_u64() % 4096) as usize,
                    class: (id % self.classes.max(1) as u64) as usize,
                    tenant: (id % self.tenants.max(1) as u64) as usize,
                }
            })
            .collect();
        LoadProfile {
            seed: self.seed,
            tenants: self.tenants.max(1),
            entries,
        }
    }

    /// Renders a closed-loop spec as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("version".into(), Json::Num(PROFILE_VERSION as f64)),
            ("mode".into(), Json::str("closed")),
            ("seed".into(), Json::hex(self.seed)),
            ("requests".into(), Json::Num(self.requests as f64)),
            ("gap".into(), Json::Num(self.gap as f64)),
            ("deadline".into(), Json::Num(self.deadline as f64)),
            ("concurrency".into(), Json::Num(self.concurrency as f64)),
            ("think".into(), Json::Num(self.think as f64)),
            ("classes".into(), Json::Num(self.classes as f64)),
            ("tenants".into(), Json::Num(self.tenants as f64)),
        ])
    }

    /// Writes the spec to `path` (pretty JSON, trailing newline).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> Result<(), ServeError> {
        write_json(path, &self.to_json())?;
        Ok(())
    }

    /// Parses a closed-loop spec from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn from_json(value: &Json) -> Result<LoadSpec, String> {
        let obj = value.as_obj().ok_or("spec is not a JSON object")?;
        let seed = plan_seed(obj)?;
        Ok(LoadSpec {
            requests: obj.num("requests")? as u64,
            gap: obj.num("gap")? as Micros,
            deadline: obj.num("deadline")? as Micros,
            seed,
            concurrency: obj.num("concurrency")? as usize,
            think: obj.num("think")? as Micros,
            // Absent in pre-class plans: everything is class 0.
            classes: obj.opt_num("classes").map_or(1, |n| (n as usize).max(1)),
            // Absent in pre-tenant plans: everything is tenant 0.
            tenants: obj.opt_num("tenants").map_or(1, |n| (n as usize).max(1)),
        })
    }
}

/// A saved load plan: either a fixed open-loop schedule or a
/// closed-loop spec replayed by simulating its clients.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Replay a fixed arrival schedule.
    Open(LoadProfile),
    /// Simulate `concurrency` think-time clients.
    Closed(LoadSpec),
}

impl Plan {
    /// Loads a plan written by `hs_loadgen` (dispatching on its
    /// `mode` field).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] when the file is missing, unparsable,
    /// or structurally wrong.
    pub fn load(path: &Path) -> Result<Plan, ServeError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ServeError::BadConfig(format!("{}: {e}", path.display())))?;
        let value = schema::parse(&text)
            .map_err(|e| ServeError::BadConfig(format!("{}: {e}", path.display())))?;
        let mode = value
            .as_obj()
            .and_then(|o| o.get("mode"))
            .and_then(Json::as_str)
            .unwrap_or("open")
            .to_string();
        let plan = match mode.as_str() {
            "open" => {
                let profile = LoadProfile::from_json(&value).map_err(err_at(path))?;
                profile.validate(&text).map_err(ServeError::Plan)?;
                Plan::Open(profile)
            }
            "closed" => Plan::Closed(LoadSpec::from_json(&value).map_err(err_at(path))?),
            other => {
                return Err(ServeError::BadConfig(format!(
                    "{}: unknown mode `{other}` (expected `open` or `closed`)",
                    path.display()
                )))
            }
        };
        Ok(plan)
    }

    /// Drives `engine` with this plan.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (see [`ServeEngine::tick`]).
    pub fn drive(&self, engine: &mut ServeEngine) -> Result<Vec<Outcome>, ServeError> {
        match self {
            Plan::Open(profile) => drive_open(engine, profile),
            Plan::Closed(spec) => drive_closed(engine, spec),
        }
    }
}

fn err_at(path: &Path) -> impl Fn(String) -> ServeError + '_ {
    move |e| ServeError::BadConfig(format!("{}: {e}", path.display()))
}

impl LoadProfile {
    /// Renders the profile as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("version".into(), Json::Num(PROFILE_VERSION as f64)),
            ("mode".into(), Json::str("open")),
            ("seed".into(), Json::hex(self.seed)),
            ("tenants".into(), Json::Num(self.tenants as f64)),
            (
                "entries".into(),
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|e| {
                            Json::obj(vec![
                                ("id".into(), Json::Num(e.id as f64)),
                                ("at".into(), Json::Num(e.at as f64)),
                                ("deadline".into(), Json::Num(e.deadline as f64)),
                                ("sample".into(), Json::Num(e.sample as f64)),
                                ("class".into(), Json::Num(e.class as f64)),
                                ("tenant".into(), Json::Num(e.tenant as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes the profile to `path` (pretty JSON, trailing newline).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> Result<(), ServeError> {
        write_json(path, &self.to_json())?;
        Ok(())
    }

    /// Loads a profile written by [`save`](LoadProfile::save).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] when the file is missing, unparsable,
    /// or structurally wrong.
    pub fn load(path: &Path) -> Result<LoadProfile, ServeError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ServeError::BadConfig(format!("{}: {e}", path.display())))?;
        let value = schema::parse(&text)
            .map_err(|e| ServeError::BadConfig(format!("{}: {e}", path.display())))?;
        let profile = LoadProfile::from_json(&value)
            .map_err(|e| ServeError::BadConfig(format!("{}: {e}", path.display())))?;
        profile.validate(&text).map_err(ServeError::Plan)?;
        Ok(profile)
    }

    /// Checks the schedule invariants replay depends on: arrivals must
    /// be nondecreasing (the drivers advance virtual time monotonically
    /// — an out-of-order entry would silently warp it backwards) and
    /// every entry's tenant must be inside the declared tenant space.
    /// `raw` is the plan file's text, used only to report the offending
    /// entry's line number.
    ///
    /// # Errors
    ///
    /// The typed [`PlanError`] for the first offending entry.
    pub fn validate(&self, raw: &str) -> Result<(), PlanError> {
        let mut prev_at: Option<Micros> = None;
        for (index, e) in self.entries.iter().enumerate() {
            if let Some(prev) = prev_at {
                if e.at < prev {
                    return Err(PlanError::NonMonotonic {
                        index,
                        line: entry_line(raw, index),
                        prev_at: prev,
                        at: e.at,
                    });
                }
            }
            prev_at = Some(e.at);
            if e.tenant >= self.tenants.max(1) {
                return Err(PlanError::UnknownTenant {
                    index,
                    line: entry_line(raw, index),
                    tenant: e.tenant,
                    tenants: self.tenants.max(1),
                });
            }
        }
        Ok(())
    }

    /// Parses a profile from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn from_json(value: &Json) -> Result<LoadProfile, String> {
        let obj = value.as_obj().ok_or("profile is not a JSON object")?;
        let seed = plan_seed(obj)?;
        let entries = match obj.get("entries") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|item| {
                    let e = item.as_obj().ok_or("entry is not a JSON object")?;
                    Ok(ProfileEntry {
                        id: e.num("id")? as u64,
                        at: e.num("at")? as Micros,
                        deadline: e.num("deadline")? as Micros,
                        sample: e.num("sample")? as usize,
                        // Absent in pre-class profiles: class 0.
                        class: e.opt_num("class").map_or(0, |n| n as usize),
                        // Absent in pre-tenant profiles: tenant 0.
                        tenant: e.opt_num("tenant").map_or(0, |n| n as usize),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("missing array `entries`".to_string()),
        };
        Ok(LoadProfile {
            seed,
            // Absent in pre-tenant profiles: a single tenant.
            tenants: obj.opt_num("tenants").map_or(1, |n| (n as usize).max(1)),
            entries,
        })
    }
}

/// The 1-based line of the `index`-th profile entry in the raw plan
/// text, located via the entry's `"id"` key (the first key of every
/// entry object the writer emits). Falls back to line 1 when the text
/// has fewer entries than the parsed profile (e.g. minified JSON).
fn entry_line(raw: &str, index: usize) -> usize {
    raw.match_indices("\"id\"")
        .nth(index)
        .map_or(1, |(pos, _)| raw[..pos].matches('\n').count() + 1)
}

/// The version check and `0x`-hex seed every plan starts with.
fn plan_seed(obj: &Obj) -> Result<u64, String> {
    let version = obj.num("version")? as u64;
    if version != PROFILE_VERSION {
        return Err(format!("unsupported profile version {version}"));
    }
    let seed = obj.str("seed")?;
    schema::parse_hex(seed).map_err(|_| format!("`{seed}` is not a 0x-prefixed hex u64"))
}

/// Replays an open-loop profile against the engine: tick to each
/// arrival, submit, then drain whatever is still queued. Returns every
/// terminal outcome (completions, typed rejections) in event order.
///
/// # Errors
///
/// Propagates engine errors (see [`ServeEngine::tick`]).
pub fn drive_open(
    engine: &mut ServeEngine,
    profile: &LoadProfile,
) -> Result<Vec<Outcome>, ServeError> {
    let mut outcomes = Vec::new();
    for e in &profile.entries {
        outcomes.extend(engine.tick(e.at)?);
        let req = Request {
            id: e.id,
            sample: e.sample,
            class: e.class,
            tenant: e.tenant,
            arrival: e.at,
            deadline: e.deadline,
        };
        if let Some(rej) = engine.submit(req, e.at) {
            outcomes.push(Outcome::Rejected(rej));
        }
    }
    outcomes.extend(engine.drain()?);
    Ok(outcomes)
}

/// Runs a closed loop: `spec.concurrency` virtual clients that each
/// wait for their previous request's outcome plus `spec.think` before
/// issuing the next, until `spec.requests` have been issued in total.
///
/// Client `c` first issues at `c · think / concurrency`, so starts rise
/// with the index: clients start lazily, one counter names the next
/// one, and only started clients take memory. At equal times the lower
/// client index issues first.
///
/// # Errors
///
/// Propagates engine errors (see [`ServeEngine::tick`]).
pub fn drive_closed(engine: &mut ServeEngine, spec: &LoadSpec) -> Result<Vec<Outcome>, ServeError> {
    let concurrency = spec.concurrency.max(1);
    let mut rng = Rng::seed_from(spec.seed);
    // Stagger client starts so they don't arrive as one burst.
    let start =
        |c: usize| (c as u128 * u128::from(spec.think.max(1)) / concurrency as u128) as Micros;
    let mut unstarted = 0;
    // Started clients waiting to issue, by (issue time, client).
    let mut idle: BTreeSet<(Micros, usize)> = BTreeSet::new();
    let mut pending: BTreeMap<u64, usize> = BTreeMap::new();
    let mut outcomes = Vec::new();
    let mut issued: u64 = 0;
    let mut now: Micros = 0;

    loop {
        let client = if issued < spec.requests {
            let fresh = (unstarted < concurrency).then(|| (start(unstarted), unstarted));
            idle.first().copied().into_iter().chain(fresh).min()
        } else {
            None
        };
        let engine_next = engine.next_event();
        let (t, issue_from) = match (client, engine_next) {
            (Some((ct, c)), Some(et)) if ct <= et => (ct, Some((ct, c))),
            (Some(_), Some(et)) => (et, None),
            (Some((ct, c)), None) => (ct, Some((ct, c))),
            (None, Some(et)) => (et, None),
            (None, None) => break,
        };
        now = now.max(t);
        let produced = engine.tick(now)?;
        settle(&produced, &mut pending, &mut idle, spec.think);
        outcomes.extend(produced);
        if let Some((ct, c)) = issue_from {
            if c == unstarted {
                unstarted += 1;
            } else {
                idle.remove(&(ct, c));
            }
            let id = issued;
            issued += 1;
            let req = Request {
                id,
                sample: (rng.next_u64() % 4096) as usize,
                class: (id % spec.classes.max(1) as u64) as usize,
                tenant: (id % spec.tenants.max(1) as u64) as usize,
                arrival: now,
                deadline: now + spec.deadline,
            };
            match engine.submit(req, now) {
                Some(rej) => {
                    // Shed at admission: the client backs off a full
                    // think time and tries again with a new request.
                    idle.insert((now + spec.think, c));
                    outcomes.push(Outcome::Rejected(rej));
                }
                None => {
                    pending.insert(id, c);
                }
            }
        }
    }
    let produced = engine.drain()?;
    settle(&produced, &mut pending, &mut idle, spec.think);
    outcomes.extend(produced);
    Ok(outcomes)
}

/// Wakes up the clients whose requests just reached an outcome.
fn settle(
    produced: &[Outcome],
    pending: &mut BTreeMap<u64, usize>,
    idle: &mut BTreeSet<(Micros, usize)>,
    think: Micros,
) {
    for o in produced {
        if let Some(c) = pending.remove(&o.id()) {
            let finished = match o {
                Outcome::Completed(r) => r.completed,
                Outcome::Rejected(r) => r.at,
            };
            idle.insert((finished + think, c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use crate::model::ModelSlots;
    use hs_nn::infer::SharedNetwork;
    use hs_nn::models;
    use hs_tensor::{Shape, Tensor};

    fn engine() -> ServeEngine {
        let mut rng = Rng::seed_from(7);
        let net = models::lenet(1, 4, 8, 0.5, &mut rng).unwrap();
        let slots = ModelSlots::new(SharedNetwork::new(net.clone()), SharedNetwork::new(net));
        let inputs = Tensor::randn(Shape::d4(6, 1, 8, 8), &mut Rng::seed_from(3));
        ServeEngine::new(ServeConfig::default(), slots, inputs).unwrap()
    }

    #[test]
    fn profile_round_trips_through_json() {
        let spec = LoadSpec {
            requests: 12,
            ..LoadSpec::default()
        };
        let profile = spec.open_profile();
        assert_eq!(profile, spec.open_profile(), "generation must be seeded");
        let path = std::env::temp_dir().join(format!("hs-profile-{}.json", std::process::id()));
        profile.save(&path).unwrap();
        assert_eq!(LoadProfile::load(&path).unwrap(), profile);
        assert_eq!(Plan::load(&path).unwrap(), Plan::Open(profile));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn large_plans_save_and_load_in_linear_time() {
        let profile = LoadSpec {
            requests: 16_000,
            tenants: 4,
            ..LoadSpec::default()
        }
        .open_profile();
        let path = std::env::temp_dir().join(format!("hs-large-plan-{}.json", std::process::id()));
        let start = std::time::Instant::now();
        profile.save(&path).unwrap();
        assert_eq!(LoadProfile::load(&path).unwrap(), profile);
        let secs = start.elapsed().as_secs_f64();
        std::fs::remove_file(&path).unwrap();
        assert!(secs < 2.0, "a 16 000-entry plan took {secs:.2} s");
    }

    #[test]
    fn closed_spec_round_trips_as_a_plan() {
        let spec = LoadSpec {
            requests: 9,
            concurrency: 2,
            think: 700,
            ..LoadSpec::default()
        };
        let path = std::env::temp_dir().join(format!("hs-spec-{}.json", std::process::id()));
        spec.save(&path).unwrap();
        assert_eq!(Plan::load(&path).unwrap(), Plan::Closed(spec));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_non_monotonic_timestamps_with_the_offending_line() {
        let mut profile = LoadSpec {
            requests: 5,
            ..LoadSpec::default()
        }
        .open_profile();
        // Warp entry 3 before entry 2: replay would move time backwards.
        profile.entries[3].at = profile.entries[2].at - 1;
        let path = std::env::temp_dir().join(format!("hs-nonmono-{}.json", std::process::id()));
        profile.save(&path).unwrap();
        let err = Plan::load(&path).unwrap_err();
        let ServeError::Plan(plan_err) = err else {
            panic!("expected ServeError::Plan, got {err:?}");
        };
        match plan_err {
            PlanError::NonMonotonic {
                index,
                line,
                prev_at,
                at,
            } => {
                assert_eq!(index, 3);
                assert_eq!(prev_at, profile.entries[2].at);
                assert_eq!(at, profile.entries[2].at - 1);
                // The reported line must be the offending entry's line
                // in the file the writer produced.
                let text = std::fs::read_to_string(&path).unwrap();
                let id_line = text
                    .lines()
                    .enumerate()
                    .filter(|(_, l)| l.contains("\"id\""))
                    .nth(3)
                    .map(|(n, _)| n + 1)
                    .unwrap();
                assert_eq!(line, id_line);
                assert!(plan_err.to_string().contains(&format!("line {line}")));
            }
            other => panic!("expected NonMonotonic, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_unknown_tenants_with_the_offending_line() {
        let mut profile = LoadSpec {
            requests: 4,
            tenants: 2,
            ..LoadSpec::default()
        }
        .open_profile();
        profile.entries[1].tenant = 7; // plan only declares tenants 0..2
        let path = std::env::temp_dir().join(format!("hs-tenant-{}.json", std::process::id()));
        profile.save(&path).unwrap();
        let err = Plan::load(&path).unwrap_err();
        let ServeError::Plan(plan_err) = err else {
            panic!("expected ServeError::Plan, got {err:?}");
        };
        match &plan_err {
            PlanError::UnknownTenant {
                index,
                line,
                tenant,
                tenants,
            } => {
                assert_eq!((*index, *tenant, *tenants), (1, 7, 2));
                assert!(*line > 1, "line must point into the entries array");
                assert!(plan_err.to_string().contains("unknown tenant 7"));
            }
            other => panic!("expected UnknownTenant, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tenants_spread_deterministically_without_perturbing_the_schedule() {
        let base = LoadSpec {
            requests: 6,
            ..LoadSpec::default()
        };
        let single = base.open_profile();
        let multi = LoadSpec { tenants: 3, ..base }.open_profile();
        // Adding tenants must not move arrivals/samples (not RNG-drawn).
        for (a, b) in single.entries.iter().zip(&multi.entries) {
            assert_eq!((a.at, a.sample, a.deadline), (b.at, b.sample, b.deadline));
        }
        let tenants: Vec<usize> = multi.entries.iter().map(|e| e.tenant).collect();
        assert_eq!(tenants, vec![0, 1, 2, 0, 1, 2]);
        assert!(single.entries.iter().all(|e| e.tenant == 0));
    }

    #[test]
    fn open_loop_accounts_for_every_request() {
        let _guard = crate::fault_test_lock();
        let spec = LoadSpec {
            requests: 20,
            gap: 500,
            deadline: 100_000,
            ..LoadSpec::default()
        };
        let profile = spec.open_profile();
        let mut eng = engine();
        let outcomes = drive_open(&mut eng, &profile).unwrap();
        assert_eq!(outcomes.len(), 20, "every request needs a terminal outcome");
        let mut ids: Vec<u64> = outcomes.iter().map(Outcome::id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn closed_loop_issues_exactly_the_requested_count() {
        let _guard = crate::fault_test_lock();
        let spec = LoadSpec {
            requests: 15,
            concurrency: 3,
            think: 1_500,
            deadline: 100_000,
            ..LoadSpec::default()
        };
        let mut eng = engine();
        let outcomes = drive_closed(&mut eng, &spec).unwrap();
        assert_eq!(outcomes.len(), 15);
        let completed = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Completed(_)))
            .count();
        assert!(
            completed > 0,
            "a lightly loaded closed loop must complete work"
        );
        assert_eq!(eng.summary().submitted, 15);
    }
}
