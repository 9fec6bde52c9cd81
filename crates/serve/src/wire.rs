//! The daemon's wire protocol: newline-delimited JSON over a Unix domain
//! socket. One request object per line in, one response object per line
//! out, strictly in order — a protocol trivially drivable from `nc -U`,
//! a shell script or any language with a JSON library.
//!
//! # Requests
//!
//! Every request carries a `verb`:
//!
//! ```json
//! {"verb": "synthesize", "topology": "ring:4", "collective": "allgather",
//!  "root": 0, "max_steps": 6, "max_chunks": 4, "k": 1,
//!  "mode": "sequential", "client": "loadgen-3"}
//! {"verb": "metrics"}
//! {"verb": "shutdown"}
//! ```
//!
//! For `synthesize`, only `topology` and `collective` are required.
//! `topology` is a builder spec (`ring:N`, `uniring:N`, `chain:N`,
//! `star:N`, `fc:N`, `hypercube:D`, `nvswitch:N`, `mesh:RxC`, `dgx1`,
//! `dgx1-single`, `amd`); `collective` is a collective name with an
//! optional `root` (default 0) for rooted collectives.
//! `max_steps`, `max_chunks` and `k` override the daemon engine's search
//! defaults; `mode` (`"sequential"` | `"parallel"`) overrides its solve
//! mode. `client` names the requester for per-client admission quotas
//! (connections that don't identify share the `"anonymous"` quota).
//! `deadline_ms` bounds the request's wall clock from admission: on
//! expiry the daemon answers with whatever partial frontier was already
//! solved (provenance suffixed `:degraded`), or a `"deadline"` error if
//! nothing was.
//!
//! A `groups` field (`"auto"`, `"uniform:M"` or an explicit `"0,1;2,3"`
//! partition) routes the request through the hierarchical planner: the
//! stage solves run through the daemon's engine (hot tier and disk cache
//! apply per group) and the success response carries `"provenance":
//! "hier"` with a composition summary as its report payload. `pick`
//! (`"latency"` | `"bandwidth"`) chooses the frontier entry each stage
//! uses and is rejected without `groups`. Hierarchical requests pass
//! through the same admission chain as flat ones (queue, quotas, memory
//! budget, rate limits, drain) and honour `deadline_ms`: each stage
//! solve is handed the remaining wall clock, an expiry mid-search
//! degrades the answer (provenance `"hier:degraded"`, stages picked
//! from partial frontiers, composition still verified), and only a
//! deadline that leaves no composition achievable at all is a
//! `"deadline"` error.
//!
//! # Responses
//!
//! Success responses carry `"ok": true` plus verb-specific payload; every
//! failure is `{"ok": false, "kind": ..., "error": ...}` where `kind` is a
//! machine-matchable cause (`"queue_full"`, `"client_quota"`,
//! `"memory_budget"`, `"shutdown"`, `"bad_request"`, `"synthesis"`,
//! `"deadline"`). A `synthesize` success carries the report (bytes
//! identical to what the in-process `Engine::synthesize` would have
//! serialized), its provenance (`"hot"`, `"cache"`, `"solved:sequential"`,
//! `"solved:parallel"`, each suffixed `:degraded` when a deadline cut the
//! frontier short) and per-stage timings in microseconds.

use sccl_collectives::Collective;
use sccl_sched::SolveMode;
use sccl_topology::{builders, Topology};
use serde::{de::Error as _, Content, Deserialize, Deserializer, Serialize, Serializer};

/// One request line, decoded.
#[derive(Clone, Debug, PartialEq)]
pub enum WireRequest {
    Synthesize(WireSynthesize),
    Metrics,
    /// Liveness probe: answers `ready`, `draining` or `browned-out`
    /// without touching the queue.
    Health,
    /// Graceful drain: stop admitting, finish in-flight jobs, journal
    /// whatever is pending, then exit cleanly.
    Drain,
    Shutdown,
}

/// The `synthesize` verb's payload.
#[derive(Clone, Debug, PartialEq)]
pub struct WireSynthesize {
    /// Topology builder spec, e.g. `ring:8` or `dgx1`.
    pub topology: String,
    /// Collective name, e.g. `allgather`.
    pub collective: String,
    /// Root rank for rooted collectives (default 0).
    pub root: usize,
    /// Search-cap overrides; `None` uses the daemon engine's defaults.
    pub max_steps: Option<usize>,
    pub max_chunks: Option<usize>,
    pub k: Option<u64>,
    /// Solve-mode override (`"sequential"` / `"parallel"`).
    pub mode: Option<SolveMode>,
    /// Hierarchical composition: a group spec (`auto`, `uniform:M` or an
    /// explicit `0,1;2,3` partition). Presence routes the request through
    /// the hierarchical planner; the response carries a composition
    /// summary instead of a frontier report.
    pub groups: Option<String>,
    /// Frontier entry each hierarchical stage uses (`"latency"` /
    /// `"bandwidth"`); only meaningful with `groups`.
    pub pick: Option<String>,
    /// Admission-quota identity (default `"anonymous"`).
    pub client: String,
    /// Wall-clock budget in milliseconds, measured from admission (queue
    /// wait counts). Expiry degrades the answer to the partial frontier
    /// rather than cancelling it — for hierarchical requests each stage
    /// solve is handed the remaining budget.
    pub deadline_ms: Option<u64>,
}

impl WireSynthesize {
    /// A minimal request for `collective` on `topology` with every
    /// optional knob left to the daemon's defaults.
    pub fn new(topology: impl Into<String>, collective: impl Into<String>) -> Self {
        WireSynthesize {
            topology: topology.into(),
            collective: collective.into(),
            root: 0,
            max_steps: None,
            max_chunks: None,
            k: None,
            mode: None,
            groups: None,
            pick: None,
            client: "anonymous".to_string(),
            deadline_ms: None,
        }
    }

    /// Bound the request's wall clock (milliseconds from admission).
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Route the request through the hierarchical planner with `groups`
    /// (`auto`, `uniform:M` or an explicit `0,1;2,3` partition).
    pub fn with_groups(mut self, groups: impl Into<String>) -> Self {
        self.groups = Some(groups.into());
        self
    }

    /// Name the requesting client for admission accounting.
    pub fn with_client(mut self, client: impl Into<String>) -> Self {
        self.client = client.into();
        self
    }

    /// Override the step/chunk search caps.
    pub fn with_caps(mut self, max_steps: usize, max_chunks: usize) -> Self {
        self.max_steps = Some(max_steps);
        self.max_chunks = Some(max_chunks);
        self
    }

    /// Resolve the topology spec to a concrete [`Topology`].
    ///
    /// The builders `assert!` on degenerate sizes (e.g. a 1-node chain);
    /// a daemon parsing untrusted wire input must answer, not die, so
    /// the panic is caught and reported as a spec error.
    pub fn parse_topology(&self) -> Result<Topology, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            builders::parse_spec(&self.topology)
        }))
        .map_err(|_| format!("degenerate topology spec `{}`", self.topology))?
        .ok_or_else(|| format!("unknown topology spec `{}`", self.topology))
    }

    /// Resolve the collective name (and root) to a [`Collective`].
    pub fn parse_collective(&self) -> Result<Collective, String> {
        Collective::parse_spec(&self.collective, self.root)
            .ok_or_else(|| format!("unknown collective `{}`", self.collective))
    }
}

fn mode_name(mode: SolveMode) -> &'static str {
    match mode {
        SolveMode::Sequential => "sequential",
        SolveMode::Parallel => "parallel",
    }
}

fn parse_mode(name: &str) -> Result<SolveMode, String> {
    match name {
        "sequential" => Ok(SolveMode::Sequential),
        "parallel" => Ok(SolveMode::Parallel),
        other => Err(format!(
            "unknown mode `{other}` (expected `sequential` or `parallel`)"
        )),
    }
}

impl Serialize for WireRequest {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut fields: Vec<(String, Content)> = Vec::new();
        let push = |fields: &mut Vec<(String, Content)>, key: &str, value: Content| {
            fields.push((key.to_string(), value));
        };
        match self {
            WireRequest::Metrics => push(&mut fields, "verb", Content::Str("metrics".into())),
            WireRequest::Health => push(&mut fields, "verb", Content::Str("health".into())),
            WireRequest::Drain => push(&mut fields, "verb", Content::Str("drain".into())),
            WireRequest::Shutdown => push(&mut fields, "verb", Content::Str("shutdown".into())),
            WireRequest::Synthesize(s) => {
                push(&mut fields, "verb", Content::Str("synthesize".into()));
                push(&mut fields, "topology", Content::Str(s.topology.clone()));
                push(
                    &mut fields,
                    "collective",
                    Content::Str(s.collective.clone()),
                );
                if s.root != 0 {
                    push(&mut fields, "root", Content::U64(s.root as u64));
                }
                if let Some(max_steps) = s.max_steps {
                    push(&mut fields, "max_steps", Content::U64(max_steps as u64));
                }
                if let Some(max_chunks) = s.max_chunks {
                    push(&mut fields, "max_chunks", Content::U64(max_chunks as u64));
                }
                if let Some(k) = s.k {
                    push(&mut fields, "k", Content::U64(k));
                }
                if let Some(mode) = s.mode {
                    push(&mut fields, "mode", Content::Str(mode_name(mode).into()));
                }
                if let Some(groups) = &s.groups {
                    push(&mut fields, "groups", Content::Str(groups.clone()));
                }
                if let Some(pick) = &s.pick {
                    push(&mut fields, "pick", Content::Str(pick.clone()));
                }
                if s.client != "anonymous" {
                    push(&mut fields, "client", Content::Str(s.client.clone()));
                }
                if let Some(deadline_ms) = s.deadline_ms {
                    push(&mut fields, "deadline_ms", Content::U64(deadline_ms));
                }
            }
        }
        serializer.serialize_content(Content::Map(fields))
    }
}

/// Remove and deserialize an *optional* field (the vendored serde treats
/// missing fields as errors even for `Option`, so optionality is decided
/// here, by presence).
fn optional<'de, T: Deserialize<'de>, E: serde::de::Error>(
    fields: &mut Vec<(String, Content)>,
    name: &str,
) -> Result<Option<T>, E> {
    match fields.iter().position(|(k, _)| k == name) {
        Some(i) => serde::from_content(fields.remove(i).1).map(Some),
        None => Ok(None),
    }
}

impl<'de> Deserialize<'de> for WireRequest {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let content = deserializer.deserialize_content()?;
        let mut fields = serde::content_map::<D::Error>(content)?;
        let verb: String = serde::field(&mut fields, "verb")?;
        let request = match verb.as_str() {
            "metrics" => WireRequest::Metrics,
            "health" => WireRequest::Health,
            "drain" => WireRequest::Drain,
            "shutdown" => WireRequest::Shutdown,
            "synthesize" => {
                let topology: String = serde::field(&mut fields, "topology")?;
                let collective: String = serde::field(&mut fields, "collective")?;
                let root = optional::<usize, D::Error>(&mut fields, "root")?.unwrap_or(0);
                let max_steps = optional::<usize, D::Error>(&mut fields, "max_steps")?;
                let max_chunks = optional::<usize, D::Error>(&mut fields, "max_chunks")?;
                let k = optional::<u64, D::Error>(&mut fields, "k")?;
                let mode = optional::<String, D::Error>(&mut fields, "mode")?
                    .map(|name| parse_mode(&name).map_err(D::Error::custom))
                    .transpose()?;
                let groups = optional::<String, D::Error>(&mut fields, "groups")?;
                let pick = optional::<String, D::Error>(&mut fields, "pick")?;
                if pick.is_some() && groups.is_none() {
                    return Err(D::Error::custom(
                        "`pick` is only meaningful with `groups` (hierarchical requests)",
                    ));
                }
                let client = optional::<String, D::Error>(&mut fields, "client")?
                    .unwrap_or_else(|| "anonymous".to_string());
                let deadline_ms = optional::<u64, D::Error>(&mut fields, "deadline_ms")?;
                WireRequest::Synthesize(WireSynthesize {
                    topology,
                    collective,
                    root,
                    max_steps,
                    max_chunks,
                    k,
                    mode,
                    groups,
                    pick,
                    client,
                    deadline_ms,
                })
            }
            other => {
                return Err(D::Error::custom(format!(
                    "unknown verb `{other}` (expected synthesize, metrics, health, \
                     drain or shutdown)"
                )))
            }
        };
        // Reject leftovers so a misspelled knob fails loudly instead of
        // silently running with defaults (matching the batch manifest's
        // JSON handling).
        if let Some((key, _)) = fields.first() {
            return Err(D::Error::custom(format!(
                "unknown field `{key}` for verb `{verb}`"
            )));
        }
        Ok(request)
    }
}

/// Machine-matchable failure causes on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireErrorKind {
    /// The bounded request queue was full.
    QueueFull,
    /// The client exceeded its in-flight quota.
    ClientQuota,
    /// Admitting the solve would exceed the global solver-memory budget.
    MemoryBudget,
    /// The client's token bucket ran dry; the error payload carries a
    /// `retry_after_ms` hint.
    RateLimited,
    /// The daemon is draining or shutting down.
    Shutdown,
    /// The request line did not parse or referenced unknown specs.
    BadRequest,
    /// Synthesis itself failed (e.g. a disconnected topology, a worker
    /// lost to a contained panic, or a report failing decode-time
    /// verification with no clean re-solve).
    Synthesis,
    /// The request's deadline expired before anything was solved.
    Deadline,
}

impl WireErrorKind {
    pub fn as_str(self) -> &'static str {
        match self {
            WireErrorKind::QueueFull => "queue_full",
            WireErrorKind::ClientQuota => "client_quota",
            WireErrorKind::MemoryBudget => "memory_budget",
            WireErrorKind::RateLimited => "rate_limited",
            WireErrorKind::Shutdown => "shutdown",
            WireErrorKind::BadRequest => "bad_request",
            WireErrorKind::Synthesis => "synthesis",
            WireErrorKind::Deadline => "deadline",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "queue_full" => WireErrorKind::QueueFull,
            "client_quota" => WireErrorKind::ClientQuota,
            "memory_budget" => WireErrorKind::MemoryBudget,
            "rate_limited" => WireErrorKind::RateLimited,
            "shutdown" => WireErrorKind::Shutdown,
            "bad_request" => WireErrorKind::BadRequest,
            "synthesis" => WireErrorKind::Synthesis,
            "deadline" => WireErrorKind::Deadline,
            _ => return None,
        })
    }
}

/// Per-stage timings of a served request, in microseconds (a JSON-safe
/// flattening of the engine's `ResponseTimings` plus the daemon's queue
/// wait).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireTimings {
    /// Time spent queued before a worker picked the job up.
    pub queue_micros: u64,
    /// Cache lookup (hot tier + disk).
    pub lookup_micros: u64,
    /// Encoding work of the warm sweep.
    pub encode_micros: u64,
    /// End-to-end solver time. For hierarchical requests this is the
    /// summed end-to-end time of the stage solves.
    pub solve_micros: u64,
    /// Stitching the stage schedules into one flat algorithm
    /// (hierarchical requests only; zero on flat requests).
    pub stitch_micros: u64,
    /// The composition verifier's replay of the stitched schedule
    /// (hierarchical requests only; zero on flat requests).
    pub verify_micros: u64,
    /// Cache store.
    pub store_micros: u64,
    /// Admission to response.
    pub total_micros: u64,
}

/// One response line, decoded. The report payload is kept as the raw
/// [`Content`] tree it arrived as, so a client can re-serialize it
/// byte-identically (for response-equivalence checks) or decode it into
/// a typed `SynthesisReport` on demand.
#[derive(Clone, Debug, PartialEq)]
pub enum WireResponse {
    /// A served `synthesize` request.
    Report {
        /// `"hot"`, `"cache"`, `"solved:sequential"` or
        /// `"solved:parallel"`.
        provenance: String,
        timings: WireTimings,
        /// The `SynthesisReport`, as received.
        report: Content,
    },
    /// A served `metrics` request: the snapshot, as received.
    Metrics(Content),
    /// A served `health` request.
    Health {
        /// `"ready"`, `"draining"` or `"browned-out"`.
        state: String,
        /// Admission has stopped (drain or shutdown in progress).
        draining: bool,
        /// The brownout controller is active.
        browned_out: bool,
    },
    /// Acknowledged `drain` (sent before the daemon stops accepting).
    Drain,
    /// Acknowledged `shutdown`.
    Shutdown,
    /// Any failure.
    Error {
        kind: WireErrorKind,
        error: String,
        /// For `rate_limited`: milliseconds until the client's bucket
        /// refills enough for one request.
        retry_after_ms: Option<u64>,
    },
}

impl WireResponse {
    /// The provenance tag for a response served by the in-process engine.
    pub fn provenance_tag(provenance: sccl_sched::Provenance, from_hot_tier: bool) -> String {
        if from_hot_tier {
            return "hot".to_string();
        }
        match provenance {
            sccl_sched::Provenance::CacheHit => "cache".to_string(),
            sccl_sched::Provenance::Solved(mode) => format!("solved:{}", mode_name(mode)),
        }
    }

    /// Decode the carried report into a typed `SynthesisReport`. Errors
    /// on non-report responses.
    pub fn report(&self) -> Result<sccl_core::pareto::SynthesisReport, String> {
        match self.report_json() {
            Some(json) => {
                serde_json::from_str(&json).map_err(|e| format!("undecodable report payload: {e}"))
            }
            None => Err(format!("not a report response: {self:?}")),
        }
    }

    /// Decode the carried payload of a hierarchical response (provenance
    /// `"hier"`) into a typed composition summary. Errors on non-report
    /// responses and on flat frontier payloads.
    pub fn hier_summary(&self) -> Result<sccl_hier::HierSummary, String> {
        match self.report_json() {
            Some(json) => serde_json::from_str(&json)
                .map_err(|e| format!("undecodable composition summary: {e}")),
            None => Err(format!("not a report response: {self:?}")),
        }
    }

    /// The carried report re-serialized to JSON — byte-identical to the
    /// server's serialization of the same report (both sides render the
    /// same `Content` tree).
    pub fn report_json(&self) -> Option<String> {
        match self {
            WireResponse::Report { report, .. } => {
                Some(serde_json::to_string(report).expect("content serializes"))
            }
            _ => None,
        }
    }
}

/// The line [`WireResponse::Report`] serializes to, spliced around an
/// already rendered `report` payload instead of re-rendering a [`Content`]
/// tree: `{"ok":true,"provenance":…,"timings":…,"report":` + `payload` +
/// `}`. With `payload` the `serde_json::to_string` of a report, the line is
/// byte for byte `serde_json::to_string` of the `WireResponse::Report`
/// carrying that report — this is how the daemon writes every `synthesize`
/// success, so a hot hit costs a copy of bytes rendered once.
pub fn report_line(provenance: &str, timings: &WireTimings, payload: &str) -> String {
    const RENDERS: &str = "strings and integers always render";
    let mut line = String::with_capacity(payload.len() + 320);
    line.push_str("{\"ok\":true,\"provenance\":");
    line.push_str(&serde_json::to_string(provenance).expect(RENDERS));
    line.push_str(",\"timings\":");
    line.push_str(&serde_json::to_string(timings).expect(RENDERS));
    line.push_str(",\"report\":");
    line.push_str(payload);
    line.push('}');
    line
}

impl Serialize for WireResponse {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut fields: Vec<(String, Content)> = Vec::new();
        match self {
            WireResponse::Report {
                provenance,
                timings,
                report,
            } => {
                fields.push(("ok".to_string(), Content::Bool(true)));
                fields.push(("provenance".to_string(), Content::Str(provenance.clone())));
                fields.push(("timings".to_string(), serde::to_content(timings)));
                fields.push(("report".to_string(), report.clone()));
            }
            WireResponse::Metrics(snapshot) => {
                fields.push(("ok".to_string(), Content::Bool(true)));
                fields.push(("metrics".to_string(), snapshot.clone()));
            }
            WireResponse::Health {
                state,
                draining,
                browned_out,
            } => {
                fields.push(("ok".to_string(), Content::Bool(true)));
                fields.push(("health".to_string(), Content::Str(state.clone())));
                fields.push(("draining".to_string(), Content::Bool(*draining)));
                fields.push(("browned_out".to_string(), Content::Bool(*browned_out)));
            }
            WireResponse::Drain => {
                fields.push(("ok".to_string(), Content::Bool(true)));
                fields.push(("draining".to_string(), Content::Bool(true)));
            }
            WireResponse::Shutdown => {
                fields.push(("ok".to_string(), Content::Bool(true)));
                fields.push(("shutdown".to_string(), Content::Bool(true)));
            }
            WireResponse::Error {
                kind,
                error,
                retry_after_ms,
            } => {
                fields.push(("ok".to_string(), Content::Bool(false)));
                fields.push(("kind".to_string(), Content::Str(kind.as_str().to_string())));
                fields.push(("error".to_string(), Content::Str(error.clone())));
                if let Some(retry_after_ms) = retry_after_ms {
                    fields.push(("retry_after_ms".to_string(), Content::U64(*retry_after_ms)));
                }
            }
        }
        serializer.serialize_content(Content::Map(fields))
    }
}

impl<'de> Deserialize<'de> for WireResponse {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let content = deserializer.deserialize_content()?;
        let mut fields = serde::content_map::<D::Error>(content)?;
        let ok: bool = serde::field(&mut fields, "ok")?;
        if !ok {
            let kind: String = serde::field(&mut fields, "kind")?;
            let kind = WireErrorKind::parse(&kind)
                .ok_or_else(|| D::Error::custom(format!("unknown error kind `{kind}`")))?;
            let error: String = serde::field(&mut fields, "error")?;
            let retry_after_ms = optional::<u64, D::Error>(&mut fields, "retry_after_ms")?;
            return Ok(WireResponse::Error {
                kind,
                error,
                retry_after_ms,
            });
        }
        if let Some(snapshot) = optional::<Content, D::Error>(&mut fields, "metrics")? {
            return Ok(WireResponse::Metrics(snapshot));
        }
        if let Some(state) = optional::<String, D::Error>(&mut fields, "health")? {
            let draining = optional::<bool, D::Error>(&mut fields, "draining")?.unwrap_or(false);
            let browned_out =
                optional::<bool, D::Error>(&mut fields, "browned_out")?.unwrap_or(false);
            return Ok(WireResponse::Health {
                state,
                draining,
                browned_out,
            });
        }
        if optional::<bool, D::Error>(&mut fields, "draining")?.is_some() {
            return Ok(WireResponse::Drain);
        }
        if optional::<bool, D::Error>(&mut fields, "shutdown")?.is_some() {
            return Ok(WireResponse::Shutdown);
        }
        let provenance: String = serde::field(&mut fields, "provenance")?;
        let timings: WireTimings = serde::field(&mut fields, "timings")?;
        let report = serde::take_field::<D::Error>(&mut fields, "report")?;
        Ok(WireResponse::Report {
            provenance,
            timings,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesize_round_trips_with_every_knob() {
        let request = WireRequest::Synthesize(WireSynthesize {
            topology: "ring:8".to_string(),
            collective: "broadcast".to_string(),
            root: 3,
            max_steps: Some(6),
            max_chunks: Some(4),
            k: Some(1),
            mode: Some(SolveMode::Parallel),
            groups: Some("uniform:4".to_string()),
            pick: Some("bandwidth".to_string()),
            client: "loadgen-7".to_string(),
            deadline_ms: Some(2_500),
        });
        let line = serde_json::to_string(&request).expect("serialize");
        let back: WireRequest = serde_json::from_str(&line).expect("deserialize");
        assert_eq!(back, request);
    }

    #[test]
    fn minimal_synthesize_defaults_the_optional_knobs() {
        let back: WireRequest = serde_json::from_str(
            r#"{"verb":"synthesize","topology":"ring:4","collective":"allgather"}"#,
        )
        .expect("minimal request parses");
        assert_eq!(
            back,
            WireRequest::Synthesize(WireSynthesize::new("ring:4", "allgather"))
        );
    }

    #[test]
    fn control_verbs_round_trip() {
        for request in [
            WireRequest::Metrics,
            WireRequest::Health,
            WireRequest::Drain,
            WireRequest::Shutdown,
        ] {
            let line = serde_json::to_string(&request).expect("serialize");
            let back: WireRequest = serde_json::from_str(&line).expect("deserialize");
            assert_eq!(back, request);
        }
    }

    #[test]
    fn health_and_drain_responses_round_trip() {
        let health = WireResponse::Health {
            state: "browned-out".to_string(),
            draining: false,
            browned_out: true,
        };
        let line = serde_json::to_string(&health).expect("serialize");
        assert!(line.contains(r#""health":"browned-out""#));
        let back: WireResponse = serde_json::from_str(&line).expect("deserialize");
        assert_eq!(back, health);

        let drain = WireResponse::Drain;
        let line = serde_json::to_string(&drain).expect("serialize");
        assert!(line.contains(r#""draining":true"#));
        let back: WireResponse = serde_json::from_str(&line).expect("deserialize");
        assert_eq!(back, drain);
    }

    #[test]
    fn rate_limited_errors_carry_the_retry_hint() {
        let response = WireResponse::Error {
            kind: WireErrorKind::RateLimited,
            error: "client `loadgen` is rate limited; retry after 125ms".to_string(),
            retry_after_ms: Some(125),
        };
        let line = serde_json::to_string(&response).expect("serialize");
        assert!(line.contains(r#""kind":"rate_limited""#));
        assert!(line.contains(r#""retry_after_ms":125"#));
        let back: WireResponse = serde_json::from_str(&line).expect("deserialize");
        assert_eq!(back, response);
    }

    #[test]
    fn unknown_verbs_and_fields_are_rejected() {
        assert!(serde_json::from_str::<WireRequest>(r#"{"verb":"frobnicate"}"#).is_err());
        assert!(serde_json::from_str::<WireRequest>(
            r#"{"verb":"synthesize","topology":"ring:4","collective":"allgather","Steps":6}"#
        )
        .is_err());
        assert!(serde_json::from_str::<WireRequest>(r#"{"verb":"metrics","extra":1}"#).is_err());
    }

    #[test]
    fn hierarchical_fields_round_trip_and_pick_requires_groups() {
        let request = WireRequest::Synthesize(
            WireSynthesize::new("rings:4x4", "allgather").with_groups("auto"),
        );
        let line = serde_json::to_string(&request).expect("serialize");
        assert!(line.contains(r#""groups":"auto""#));
        let back: WireRequest = serde_json::from_str(&line).expect("deserialize");
        assert_eq!(back, request);
        assert!(serde_json::from_str::<WireRequest>(
            r#"{"verb":"synthesize","topology":"ring:4","collective":"allgather","pick":"latency"}"#
        )
        .is_err());
    }

    #[test]
    fn bad_mode_is_rejected() {
        assert!(serde_json::from_str::<WireRequest>(
            r#"{"verb":"synthesize","topology":"ring:4","collective":"allgather","mode":"warp"}"#
        )
        .is_err());
    }

    #[test]
    fn spec_parsing_resolves_topology_and_collective() {
        let s = WireSynthesize::new("ring:4", "broadcast");
        assert_eq!(s.parse_topology().expect("spec").num_nodes(), 4);
        assert_eq!(
            s.parse_collective().expect("collective"),
            Collective::Broadcast { root: 0 }
        );
        assert!(WireSynthesize::new("möbius:4", "allgather")
            .parse_topology()
            .is_err());
        assert!(WireSynthesize::new("ring:4", "telepathy")
            .parse_collective()
            .is_err());
    }

    #[test]
    fn error_responses_round_trip() {
        let response = WireResponse::Error {
            kind: WireErrorKind::QueueFull,
            error: "queue at capacity 4".to_string(),
            retry_after_ms: None,
        };
        let line = serde_json::to_string(&response).expect("serialize");
        assert!(line.contains(r#""ok":false"#));
        assert!(line.contains(r#""kind":"queue_full""#));
        let back: WireResponse = serde_json::from_str(&line).expect("deserialize");
        assert_eq!(back, response);
    }

    #[test]
    fn report_responses_round_trip_with_byte_identical_payload() {
        use sccl_core::pareto::{pareto_synthesize, SynthesisConfig};
        let config = SynthesisConfig {
            max_steps: 4,
            max_chunks: 2,
            ..Default::default()
        };
        let report = pareto_synthesize(
            &sccl_topology::builders::ring(4, 1),
            Collective::Allgather,
            &config,
        )
        .expect("tiny synthesis");
        let direct_json = serde_json::to_string(&report).expect("report serializes");
        let response = WireResponse::Report {
            provenance: "solved:sequential".to_string(),
            timings: WireTimings::default(),
            report: serde::to_content(&report),
        };
        let line = serde_json::to_string(&response).expect("serialize");
        let back: WireResponse = serde_json::from_str(&line).expect("deserialize");
        // The payload survives the wire byte-for-byte…
        assert_eq!(back.report_json().expect("report"), direct_json);
        // …and decodes to the same typed report.
        assert_eq!(back.report().expect("typed report"), report);
    }
}
