#!/usr/bin/env bash
# A/B run of the ledger benchmark: a parent revision against a change, on
# one machine, in alternating pairs.
#
#   scripts/bench_pair.sh OUT.json [PARENT [CHANGE]]
#
# PARENT defaults to HEAD. CHANGE defaults to the working tree (tracked and
# staged edits, exported through `git stash create`); both may be any
# revision. Each side is exported with `git archive` and built into its own
# target directory under $BENCH_DIR (default: $TMPDIR/bench_pair). Then,
# for every workload of $WORKLOADS (default: BENCHMARK.json's), $PAIRS (default 6)
# pairs of `ledger run --seed $SEED --seconds <BENCHMARK.json's
# run_seconds>` (seed default 1) run through the benchmark's own entry
# point (crates/bench/src/bin/ledger/run.sh), alternating which side runs
# first, then one `--trace` run of each side for the per-layer metrics.
#
# OUT.json holds, per workload and end-to-end metric, the median and the
# interquartile range of each side's runs and their change/parent ratio;
# per workload and per-layer metric (`layers`), each side's traced value
# and their ratio; plus `nproc`, the load average before the first run,
# both commit ids and the pair order. The values are context on a shared
# machine, not a gate: the ratio of the two columns is the trajectory.
set -euo pipefail

out="${1:?usage: scripts/bench_pair.sh OUT.json [PARENT [CHANGE]]}"
pairs="${PAIRS:-6}"
seed="${SEED:-1}"
dir="${BENCH_DIR:-${TMPDIR:-/tmp}/bench_pair}"

case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
root="$(git rev-parse --show-toplevel)"
cd "$root"
seconds="$(jq .run_seconds BENCHMARK.json)"
workloads="${WORKLOADS:-$(jq -r '.workloads[].name' BENCHMARK.json)}"
parent="$(git rev-parse "${2:-HEAD}^{commit}")"
if [ -n "${3:-}" ]; then
    change="$(git rev-parse "$3^{commit}")"
    worktree=false
else
    change="$(git stash create)"
    change="${change:-$(git rev-parse HEAD)}"
    worktree=true
fi

mkdir -p "$dir"
for side in parent change; do
    rev="${!side}"
    rm -rf "${dir:?}/$side"
    mkdir -p "$dir/$side"
    git archive "$rev" | tar -x -C "$dir/$side"
    echo "building $side ($rev)" >&2
    (cd "$dir/$side" && CARGO_TARGET_DIR="$dir/$side/target" \
        cargo build --release --offline -p sccl --bin sccl >&2 &&
        CARGO_TARGET_DIR="$dir/$side/target" cargo build --release --offline \
            --manifest-path crates/bench/src/bin/ledger/Cargo.toml >&2)
done

# One run: the last line the ledger prints is its JSON summary. Extra
# arguments (`--trace`) go to the ledger.
run() {
    local side="$1" workload="$2"
    shift 2
    (cd "$dir/$side" && CARGO_TARGET_DIR="$dir/$side/target" \
        bash crates/bench/src/bin/ledger/run.sh \
        --workload "$workload" --seed "$seed" --seconds "$seconds" "$@" 2>>"$dir/$side.log" |
        tail -n 1)
}

runs="$dir/runs.ndjson"
traces="$dir/traces.ndjson"
: >"$runs"
: >"$traces"
loadavg="$(cut -d' ' -f1-3 /proc/loadavg)"
order=()
for workload in $workloads; do
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then sides="parent change"; else sides="change parent"; fi
        order+=("$workload:${sides/ /,}")
        for side in $sides; do
            echo "$workload pair $((i + 1))/$pairs: $side" >&2
            summary="$(run "$side" "$workload")"
            jq -c --arg w "$workload" --arg s "$side" \
                '{workload: $w, side: $s, summary: .}' <<<"$summary" >>"$runs"
        done
    done
    for side in parent change; do
        echo "$workload traced: $side" >&2
        summary="$(run "$side" "$workload" --trace)"
        jq -c --arg w "$workload" --arg s "$side" \
            '{workload: $w, side: $s, summary: .}' <<<"$summary" >>"$traces"
    done
done

# Median and IQR (linear-interpolated quartiles) of each side, per metric.
jq -s \
    --arg parent "$parent" --arg change "$change" --argjson worktree "$worktree" \
    --argjson nproc "$(nproc)" --arg loadavg "$loadavg" \
    --argjson pairs "$pairs" --arg seconds "$seconds" --arg seed "$seed" \
    --argjson order "$(printf '%s\n' "${order[@]}" | jq -R . | jq -s .)" \
    --slurpfile traces "$traces" '
    def q($p): sort as $v | (($v | length - 1) * $p) as $x | ($x | floor) as $lo
        | $v[$lo] + ($v[[$lo + 1, ($v | length - 1)] | min] - $v[$lo]) * ($x - $lo);
    def side($rs; $s; $m): [$rs[] | select(.side == $s) | .summary.metrics[$m].value]
        | {median: q(0.5), iqr: (q(0.75) - q(0.25)), runs: .};
    def metric($rs; $m): {
        unit: $rs[0].summary.metrics[$m].unit,
        parent: side($rs; "parent"; $m),
        change: side($rs; "change"; $m)
    } | .ratio = (if .parent.median == 0 then null else .change.median / .parent.median end);
    def traced($w; $s): first($traces[] | select(.workload == $w and .side == $s)).summary.metrics;
    def layers($w): traced($w; "parent") as $p | traced($w; "change") as $c
        | $p | keys_unsorted | map({key: ., value: {
            unit: $p[.].unit,
            parent: $p[.].value,
            change: $c[.].value,
            ratio: (if $p[.].value == 0 then null else $c[.].value / $p[.].value end)
        }}) | from_entries;
    {
        parent_commit: $parent,
        change_commit: $change,
        change_is_worktree: $worktree,
        nproc: $nproc,
        loadavg_before: $loadavg,
        pairs: $pairs,
        command: "ledger run --seed \($seed) --seconds \($seconds)",
        pair_order: $order,
        workloads: (group_by(.workload) | map(. as $rs | {
            key: $rs[0].workload,
            value: {
                correct: all($rs[]; .summary.correct),
                failed: ([$rs[].summary.failed] | add),
                metrics: ($rs[0].summary.metrics | keys_unsorted
                    | map({key: ., value: metric($rs; .)}) | from_entries),
                layers: layers($rs[0].workload)
            }
        }) | from_entries)
    }' "$runs" >"$out"
echo "wrote $out" >&2
