#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merge.
#
# Mirrors ROADMAP.md's tier-1 definition. `--offline` is deliberate: the
# build environment has no registry access, and every dependency is either
# vendored in the workspace or already in the local cargo cache.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
# The workspace run above already covers every suite (durability fault
# injection, bulk ingest, parallel invariance, columnar metrics,
# observability); nothing is re-run by name.
#
# erbench (the BENCHMARK.json harness) is its own workspace, so the run
# above never compiles it: build it and run its tests here, so a layer-API
# change that breaks the benchmark fails tier-1. `--locked`: its Cargo.lock
# must stay byte-identical.
cargo test -q --offline --locked --manifest-path erbench/Cargo.toml
# Overhead sentinel: with tracing disabled (the default), the
# instrumentation added along the hot path must stay within run-to-run
# noise of the PR-4 baseline on the morsel_waves bench (~9.7 ms).
# Criterion flags regressions against its saved baseline when run; the
# gate only requires the bench to compile (running is opt-in, slow):
#   cargo bench --offline -p erbium-bench --bench engine_micro -- morsel_waves
# The persistent worker pool must be the engine's only thread-spawn site:
# no operator may spawn (or scope) threads per wave.
if grep -rn "thread::spawn\|thread::scope\|thread::Builder" crates/engine/src \
    --include='*.rs' | grep -v "^crates/engine/src/pool.rs:" | grep -v "^ *//"; then
    echo "ERROR: thread spawn outside crates/engine/src/pool.rs" >&2
    exit 1
fi
# The vectorized kernels must stay vectorized: vector.rs operates on raw
# column slices and selection vectors, so a per-row `Value` enum match
# arm appearing there means someone re-introduced scalar dispatch into
# the hot loop (decompose the enum once per predicate in vplan.rs
# instead). Constructing values (Value::Int(x)) is fine; matching on
# them (`Value::Int(x) =>`) is not.
if grep -n "Value::[A-Za-z_]*\s*(\?[^)]*)\?\s*=>" crates/engine/src/vector.rs \
    | grep -v "^ *[0-9]*: *//"; then
    echo "ERROR: per-row Value enum match in crates/engine/src/vector.rs" >&2
    exit 1
fi
# Multi-client smoke: 2 writer threads churn insert/update/delete
# transactions while 4 readers assert transactional invariants on live
# reads and pinned snapshots. Fails on any error, a torn transaction, an
# unstable snapshot answer, or a plan cache that served zero hits.
cargo run -q --release --offline -p erbium-bench --bin multi_client_smoke
# Bounded-memory smoke: the experiment workload under every paper mapping
# with a 4-frame buffer pool on a dataset spanning ~25 row pages. Asserts
# the pool evicted / wrote back / re-faulted pages, the resident count is
# back under budget after reclaim, process peak RSS stays under a fixed
# ceiling, and the M1–M6 answers (plus a full row-store fingerprint) are
# bit-identical to an unbounded reopen of the same database.
cargo run -q --release --offline -p erbium-bench --bin bounded_memory_smoke
# Server smoke: the same workload, same invariants, through real TCP
# sockets — an in-process ERSP server on an ephemeral port, every thread
# dialing its own RemoteClient. Additionally asserts the server drains
# to zero sessions after the clients disconnect.
cargo run -q --release --offline -p erbium-bench --bin multi_client_smoke -- --remote
# The client crate must stay thin: linking erbium-client pulls in the
# model (values, errors, the Connection trait) and the query parser (for
# eager client-side syntax checks) — never storage or the engine. A new
# dependency here means server code is leaking into clients.
if grep "^erbium-" crates/client/Cargo.toml | grep -v "^erbium-model \|^erbium-query "; then
    echo "ERROR: crates/client may depend only on erbium-model and erbium-query" >&2
    exit 1
fi
# CRUD probes, extraction scans: above the `// ---- extraction` section
# marker, crates/mapping/src/crud.rs finds rows through `Table::rows_eq`
# or a primary-key lookup. A full `.scan()` or an `extract_relationship(`
# call there is a CRUD path quietly going back to O(table).
if awk '/\/\/ ---- extraction/ { exit }
        /\.scan\(\)|extract_relationship\(/ { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }' crates/mapping/src/crud.rs; then
    echo "ERROR: table scan or relationship extraction on a CRUD path in crud.rs" >&2
    exit 1
fi
# One cost model: the advisor prices candidate covers with the engine's
# estimate-backed plan_cost and never walks a plan itself.
if grep -rn "PlanKind::" crates/advisor/src; then
    echo "ERROR: crates/advisor/src walks a plan; price it with erbium_engine::cost::plan_cost" >&2
    exit 1
fi
# One storage kind: factorized co-location is two plain member tables plus
# a row-id link table, read through the engine's `Fetch`. The retired
# factorized structure, its plan leaves and its transaction API must not
# come back (wal.rs keeps only the retired record names and tag numbers,
# which these patterns do not match, for the refusal of old logs).
if grep -rnE --include='*.rs' "FactorizedTable|FactorizedScan|FactorizedCount|create_factorized|fn fact_" crates; then
    echo "ERROR: the retired factorized storage kind is back under crates/" >&2
    exit 1
fi
# One execution path: fusion is chosen by plan shape, every scan runs over
# the column mirror, every join build and aggregate drains that one scan
# kernel, and tests compare against a plan's row-store twin. The retired
# execution switches, the row scan's page pin, the bare-scan columnar join
# build and columnar aggregate, and the fallback counter that measured
# their misses must not come back.
if grep -rnE --include='*.rs' \
    "with_fusion|with_columnar|SlotPin|pin_slots|BuildSource|columnar_build_source|columnar_agg_stream|ColumnarAggStream|fn key_at|engine_fallback_row_batches_total" \
    crates tests src examples; then
    echo "ERROR: a retired execution path, switch or the row scan's pin is back" >&2
    exit 1
fi
# One of each: the CRC-32, the cursor and the Value codec live in
# erbium-model's codec module and nowhere else; the plan cost function in
# erbium-engine's cost module.
for def in "fn crc32" "fn put_value" "fn get_value" "struct Cursor" "fn plan_cost"; do
    n=$(grep -rn --include='*.rs' "\b$def\b" crates | wc -l)
    if [ "$n" -ne 1 ]; then
        echo "ERROR: expected exactly one '$def' under crates/, found $n" >&2
        grep -rn --include='*.rs' "\b$def\b" crates >&2 || true
        exit 1
    fi
done
cargo clippy --offline --workspace --all-targets -- -D warnings
# Benches must at least compile; running them is opt-in (slow).
cargo bench --offline --workspace --no-run

echo "tier-1 gate: OK"
