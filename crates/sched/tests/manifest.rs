//! Satellite coverage for manifest parsing: every error path of
//! `parse_manifest` (bad JSON, unknown collective, malformed topology
//! spec, out-of-range roots) in both the text and JSON formats, and the
//! two formats parsing to the same jobs.

use sccl_collectives::Collective;
use sccl_sched::parse_manifest;

// ---------------------------------------------------------------------
// Text-format error paths
// ---------------------------------------------------------------------

#[test]
fn text_malformed_topology_spec_is_rejected_with_line() {
    for (manifest, line) in [
        ("torus:9 allgather\n", 1),
        ("dgx1 allgather\nring:zero broadcast\n", 2),
        ("dgx1 allgather\n\n# comment\nmesh:2 allgather\n", 4),
    ] {
        let err = parse_manifest(manifest).unwrap_err();
        assert_eq!(err.line, line, "wrong line for {manifest:?}");
        assert!(
            err.message.contains("unknown topology"),
            "message was: {err}"
        );
    }
}

#[test]
fn text_unknown_collective_is_rejected_with_line() {
    let err = parse_manifest("dgx1 allgather\ndgx1 allsum\n").unwrap_err();
    assert_eq!(err.line, 2);
    assert!(
        err.message.contains("unknown collective `allsum`"),
        "message was: {err}"
    );
}

#[test]
fn text_missing_collective_and_bad_options_are_rejected() {
    let err = parse_manifest("dgx1\n").unwrap_err();
    assert!(err.message.contains("expected"), "message was: {err}");
    let err = parse_manifest("dgx1 broadcast root=-1\n").unwrap_err();
    assert!(err.message.contains("invalid root"), "message was: {err}");
    let err = parse_manifest("dgx1 broadcast depth=2\n").unwrap_err();
    assert!(err.message.contains("unknown option"), "message was: {err}");
}

// ---------------------------------------------------------------------
// JSON-format error paths
// ---------------------------------------------------------------------

#[test]
fn json_syntax_error_is_a_whole_file_error() {
    let err = parse_manifest("[{\"topology\": \"dgx1\",]").unwrap_err();
    assert_eq!(err.line, 0, "syntax errors have no entry position");
    assert!(err.message.contains("invalid JSON"), "message was: {err}");
    // Display for whole-file errors does not claim a line number.
    assert!(err.to_string().starts_with("manifest:"), "was: {err}");
}

#[test]
fn json_missing_field_is_an_error() {
    let err = parse_manifest("[{\"topology\": \"dgx1\"}]").unwrap_err();
    assert_eq!(err.line, 0);
    assert!(err.message.contains("collective"), "message was: {err}");
}

#[test]
fn json_unknown_collective_and_topology_carry_entry_position() {
    // JSON entries don't map to file lines, so `line` stays 0 and the
    // 1-based entry index is named in the message itself.
    let err = parse_manifest(
        "[{\"topology\": \"dgx1\", \"collective\": \"allgather\"},\n {\"topology\": \"dgx1\", \"collective\": \"allsum\"}]",
    )
    .unwrap_err();
    assert_eq!(err.line, 0, "JSON errors must not claim a file line");
    assert!(err.message.contains("entry 2"), "message was: {err}");
    assert!(err.message.contains("allsum"), "message was: {err}");

    let err =
        parse_manifest("[{\"topology\": \"torus:9\", \"collective\": \"allgather\"}]").unwrap_err();
    assert_eq!(err.line, 0);
    assert!(err.message.contains("entry 1"), "message was: {err}");
    assert!(err.message.contains("torus:9"), "message was: {err}");
}

#[test]
fn json_unknown_field_is_rejected() {
    // A misspelled key must fail loudly, not silently run the job with a
    // default root — mirrors the text format's unknown-option handling.
    let err =
        parse_manifest("[{\"topology\": \"ring:4\", \"collective\": \"broadcast\", \"Root\": 2}]")
            .unwrap_err();
    assert!(err.message.contains("unknown field `Root`"), "was: {err}");
    assert!(err.message.contains("supported"), "was: {err}");
}

#[test]
fn json_out_of_range_root_is_rejected() {
    let err =
        parse_manifest("[{\"topology\": \"ring:4\", \"collective\": \"broadcast\", \"root\": 9}]")
            .unwrap_err();
    assert_eq!(err.line, 0);
    assert!(err.message.contains("entry 1"), "message was: {err}");
    assert!(err.message.contains("out of range"), "message was: {err}");
}

// ---------------------------------------------------------------------
// Text and JSON agree
// ---------------------------------------------------------------------

fn assert_same_jobs(a: &[sccl_sched::BatchJob], b: &[sccl_sched::BatchJob]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in std::iter::zip(a, b) {
        assert_eq!(x.topology_spec, y.topology_spec);
        assert_eq!(x.collective, y.collective);
        assert_eq!(x.topology.num_nodes(), y.topology.num_nodes());
    }
}

#[test]
fn json_and_text_manifests_parse_identically() {
    let text_jobs = parse_manifest("ring:4 broadcast root=2\ndgx1 allreduce\n").expect("text");
    let json_jobs = parse_manifest(
        "[{\"topology\": \"ring:4\", \"collective\": \"broadcast\", \"root\": 2},\n {\"topology\": \"dgx1\", \"collective\": \"allreduce\"}]",
    )
    .expect("json");
    assert_same_jobs(&text_jobs, &json_jobs);
    assert_eq!(json_jobs[0].collective, Collective::Broadcast { root: 2 });
}

#[test]
fn json_null_root_defaults_to_zero() {
    let jobs = parse_manifest(
        "[{\"topology\": \"ring:4\", \"collective\": \"broadcast\", \"root\": null}]",
    )
    .expect("parses");
    assert_eq!(jobs[0].collective, Collective::Broadcast { root: 0 });
}
