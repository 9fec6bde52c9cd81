//! The batch front-end: parse a manifest of `topology × collective` jobs
//! (text or JSON), render manifests back out, and summarize throughput.
//! Batch execution itself runs through [`crate::Engine::run_batch`].
//!
//! Text manifest format — one job per line:
//!
//! ```text
//! # topology   collective   [root=N]
//! dgx1         allgather
//! dgx1         broadcast    root=3
//! ring:8       allreduce
//! ```
//!
//! JSON manifest format — a top-level array (auto-detected by the leading
//! `[`):
//!
//! ```text
//! [
//!   {"topology": "dgx1", "collective": "broadcast", "root": 3},
//!   {"topology": "ring:8", "collective": "allreduce"}
//! ]
//! ```
//!
//! Topology specs are those of `sccl_topology::builders::parse_spec`;
//! collective names those of `Collective::parse_spec`. In the text format,
//! blank lines and `#` comments are ignored.

use sccl_collectives::Collective;
use sccl_core::pareto::{SynthesisError, SynthesisReport};
use sccl_topology::{builders, Topology};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::time::Duration;

/// How a cache miss is solved: every candidate on the sweep's own thread,
/// or on worker threads that solve ahead of it. The frontier is identical
/// either way; the mode is pure execution policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SolveMode {
    /// One candidate at a time, in decision order.
    Sequential,
    /// Worker threads deciding candidates ahead of the sweep.
    #[default]
    Parallel,
}

/// One synthesis job of a batch.
#[derive(Clone, Debug)]
pub struct BatchJob {
    /// The textual topology spec the job was parsed from (display).
    pub topology_spec: String,
    pub topology: Topology,
    pub collective: Collective,
}

/// A manifest (or manifest entry) that could not be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestError {
    /// 1-based line number, for text manifests. `0` for JSON manifests
    /// (whose entries don't map to file lines; the offending entry is named
    /// in `message` instead) and for whole-file errors.
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "manifest: {}", self.message)
        } else {
            write!(f, "manifest line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ManifestError {}

/// Validate one parsed `(topology spec, collective spec, root)` triple into
/// a [`BatchJob`] — shared by the text and JSON manifest paths.
fn build_job(
    topo_spec: &str,
    coll_spec: &str,
    root: usize,
    line: usize,
) -> Result<BatchJob, ManifestError> {
    let Some(topology) = builders::parse_spec(topo_spec) else {
        return Err(ManifestError {
            line,
            message: format!("unknown topology `{topo_spec}`"),
        });
    };
    let Some(collective) = Collective::parse_spec(coll_spec, root) else {
        return Err(ManifestError {
            line,
            message: format!("unknown collective `{coll_spec}`"),
        });
    };
    if root >= topology.num_nodes() {
        return Err(ManifestError {
            line,
            message: format!(
                "root {root} out of range for `{topo_spec}` ({} nodes)",
                topology.num_nodes()
            ),
        });
    }
    Ok(BatchJob {
        topology_spec: topo_spec.to_string(),
        topology,
        collective,
    })
}

/// One entry of a JSON manifest. `Deserialize` is written by hand so the
/// `root` field may be omitted (the vendored derive requires every field).
struct JsonJob {
    topology: String,
    collective: String,
    root: Option<usize>,
}

impl Serialize for JsonJob {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut fields = vec![
            ("topology".to_string(), serde::to_content(&self.topology)),
            (
                "collective".to_string(),
                serde::to_content(&self.collective),
            ),
        ];
        if let Some(root) = self.root {
            fields.push(("root".to_string(), serde::to_content(&root)));
        }
        serializer.serialize_content(serde::Content::Map(fields))
    }
}

impl<'de> Deserialize<'de> for JsonJob {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let content = deserializer.deserialize_content()?;
        let mut fields = serde::content_map::<D::Error>(content)?;
        let topology: String = serde::field(&mut fields, "topology")?;
        let collective: String = serde::field(&mut fields, "collective")?;
        let root = match fields.iter().position(|(k, _)| k == "root") {
            Some(i) => serde::from_content::<Option<usize>, D::Error>(fields.remove(i).1)?,
            None => None,
        };
        // Reject leftovers so a misspelled key (e.g. "Root") fails loudly
        // instead of silently running the job with defaults, matching the
        // text format's unknown-option handling.
        if let Some((key, _)) = fields.first() {
            return Err(<D::Error as serde::de::Error>::custom(format!(
                "unknown field `{key}` (supported: topology, collective, root)"
            )));
        }
        Ok(JsonJob {
            topology,
            collective,
            root,
        })
    }
}

/// Parse a batch manifest. A leading `[` selects the JSON format, anything
/// else the line-oriented text format (see the module docs for both).
pub fn parse_manifest(text: &str) -> Result<Vec<BatchJob>, ManifestError> {
    if text.trim_start().starts_with('[') {
        parse_json_manifest(text)
    } else {
        parse_text_manifest(text)
    }
}

fn parse_json_manifest(text: &str) -> Result<Vec<BatchJob>, ManifestError> {
    let entries: Vec<JsonJob> = serde_json::from_str(text).map_err(|e| ManifestError {
        line: 0,
        message: format!("invalid JSON manifest: {e}"),
    })?;
    entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            build_job(
                &entry.topology,
                &entry.collective,
                entry.root.unwrap_or(0),
                0,
            )
            .map_err(
                // JSON entries don't map to file lines; name the entry in
                // the message instead of claiming a line number.
                |e| ManifestError {
                    line: 0,
                    message: format!("entry {}: {}", i + 1, e.message),
                },
            )
        })
        .collect()
}

fn parse_text_manifest(text: &str) -> Result<Vec<BatchJob>, ManifestError> {
    let mut jobs = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut parts = content.split_whitespace();
        let topo_spec = parts.next().expect("nonempty line has a first token");
        let Some(coll_spec) = parts.next() else {
            return Err(ManifestError {
                line,
                message: format!("expected `<topology> <collective>`, found only `{topo_spec}`"),
            });
        };
        let mut root = 0usize;
        for extra in parts {
            match extra.split_once('=') {
                Some(("root", value)) => {
                    root = value.parse().map_err(|_| ManifestError {
                        line,
                        message: format!("invalid root `{value}`"),
                    })?;
                }
                _ => {
                    return Err(ManifestError {
                        line,
                        message: format!("unknown option `{extra}` (supported: root=N)"),
                    })
                }
            }
        }
        jobs.push(build_job(topo_spec, coll_spec, root, line)?);
    }
    Ok(jobs)
}

/// Render jobs back into the line-oriented text manifest format;
/// `parse_manifest(&render_manifest(&jobs))` reproduces the jobs.
pub fn render_manifest(jobs: &[BatchJob]) -> String {
    let mut out = String::new();
    for job in jobs {
        out.push_str(&job.topology_spec);
        out.push(' ');
        out.push_str(job.collective.spec_name());
        if let Some(root) = job.collective.root() {
            out.push_str(&format!(" root={root}"));
        }
        out.push('\n');
    }
    out
}

/// Render jobs into the JSON manifest format (also accepted by
/// [`parse_manifest`]).
pub fn render_manifest_json(jobs: &[BatchJob]) -> String {
    let entries: Vec<JsonJob> = jobs
        .iter()
        .map(|job| JsonJob {
            topology: job.topology_spec.clone(),
            collective: job.collective.spec_name().to_string(),
            root: job.collective.root(),
        })
        .collect();
    serde_json::to_string_pretty(&entries).expect("manifest entries serialize")
}

/// Outcome of one job.
#[derive(Clone, Debug)]
pub struct BatchResult {
    pub job: BatchJob,
    pub outcome: Result<SynthesisReport, SynthesisError>,
    /// `true` if the report came out of the cache without solving.
    pub from_cache: bool,
    /// Wall-clock time this job took (lookup + synthesis + store).
    pub elapsed: Duration,
}

/// Outcome of a whole batch run.
#[derive(Clone, Debug)]
pub struct BatchReport {
    pub results: Vec<BatchResult>,
    /// Wall-clock time of the whole run.
    pub wall_time: Duration,
}

impl BatchReport {
    pub fn cache_hits(&self) -> usize {
        self.results.iter().filter(|r| r.from_cache).count()
    }

    pub fn solved(&self) -> usize {
        self.results
            .iter()
            .filter(|r| !r.from_cache && r.outcome.is_ok())
            .count()
    }

    pub fn failures(&self) -> usize {
        self.results.iter().filter(|r| r.outcome.is_err()).count()
    }

    /// Total frontier entries produced across successful jobs.
    pub fn total_entries(&self) -> usize {
        self.results
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .map(|report| report.entries.len())
            .sum()
    }

    /// Jobs per second over the whole run. An all-hit warm batch can finish
    /// below the clock's resolution; the elapsed time is floored at 1 µs so
    /// the rate stays finite.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64().max(1e-6);
        self.results.len() as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use sccl_core::pareto::SynthesisConfig;

    #[test]
    fn manifest_parses_jobs_comments_and_roots() {
        let text = "\
# a comment line
dgx1 allgather
ring:4  broadcast root=2   # trailing comment

chain:3 allreduce
";
        let jobs = parse_manifest(text).expect("parses");
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].topology.num_nodes(), 8);
        assert_eq!(jobs[0].collective, Collective::Allgather);
        assert_eq!(jobs[1].collective, Collective::Broadcast { root: 2 });
        assert_eq!(jobs[2].topology_spec, "chain:3");
    }

    #[test]
    fn manifest_rejects_bad_lines_with_position() {
        let err = parse_manifest("dgx1 allgather\nwat\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_manifest("torus:9 allgather\n").unwrap_err();
        assert!(err.message.contains("torus:9"));
        let err = parse_manifest("dgx1 allsum\n").unwrap_err();
        assert!(err.message.contains("allsum"));
        let err = parse_manifest("dgx1 broadcast root=x\n").unwrap_err();
        assert!(err.message.contains("root"));
        let err = parse_manifest("dgx1 broadcast depth=2\n").unwrap_err();
        assert!(err.message.contains("depth=2"));
        // Out-of-range roots are caught at parse time, not as a panic deep
        // inside synthesis.
        let err = parse_manifest("ring:4 broadcast root=9\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn budget_truncated_frontiers_are_not_cached() {
        use sccl_solver::Limits;

        let dir = std::env::temp_dir().join(format!("sccl-batch-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::builder().cache_dir(&dir).build().expect("engine");
        let cache = engine.cache().expect("cache attached");
        let jobs = parse_manifest("ring:4 allgather\n").expect("jobs");
        // A zero wall-clock budget makes every solve return Unknown, so the
        // report is budget-truncated — a timing-dependent result that must
        // not be persisted.
        let config = SynthesisConfig {
            max_steps: 4,
            max_chunks: 4,
            per_instance_limits: Limits::time(Duration::ZERO),
            ..Default::default()
        };
        let report = engine.run_batch(&jobs, Some(&config));
        let truncated = report.results[0].outcome.as_ref().expect("report");
        assert!(truncated.budget_exhausted);
        assert_eq!(cache.stats().stores, 0, "truncated report was cached");
        assert!(cache.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_runs_jobs_and_counts_outcomes() {
        let jobs = parse_manifest("ring:4 allgather\nring:4 reducescatter\n").expect("jobs");
        let config = SynthesisConfig {
            max_steps: 6,
            max_chunks: 4,
            ..Default::default()
        };
        let engine = Engine::builder().build().expect("engine");
        let report = engine.run_batch(&jobs, Some(&config));
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.failures(), 0);
        assert_eq!(report.cache_hits(), 0);
        assert_eq!(report.solved(), 2);
        assert!(report.total_entries() >= 2);
    }

    #[test]
    fn throughput_is_finite_even_at_zero_elapsed() {
        let jobs = parse_manifest("ring:4 allgather\n").expect("jobs");
        let report = BatchReport {
            results: vec![BatchResult {
                job: jobs[0].clone(),
                outcome: Err(SynthesisError::TooFewNodes),
                from_cache: true,
                elapsed: Duration::ZERO,
            }],
            wall_time: Duration::ZERO,
        };
        let throughput = report.throughput();
        assert!(throughput.is_finite(), "throughput was {throughput}");
        assert!(throughput > 0.0);
    }
}
