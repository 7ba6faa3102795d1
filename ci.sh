#!/usr/bin/env bash
# ci.sh — tier-1 verification plus the parallel-harness race gate.
#
#   ./ci.sh         # format check, vet, build, tests, race tests
#
# The race run covers internal/harness and internal/experiments: the
# parallel experiment runner executes cells on concurrent workers, and the
# race detector proves cells share no state (each cell builds its own
# System; see DESIGN.md "Harness and tooling").
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (parallel harness gate) =="
# harness/experiments: concurrent experiment cells must share no state.
# sim/core: the bound-weave engine's grant/yield handoff and the Tvarak
# controller under it are the hottest cross-goroutine surface.
# fault: campaign units run on the worker pool and app workers are wrapped
# with panic containment.
# obs: tracers and samplers are fed from concurrent cells' engines.
# cache/nvm/xsum/geom/pmem: the hot-path packages the performance pass
# rewrote with shift/mask arithmetic and scratch-buffer reuse; -race proves
# the reused buffers never leak across goroutines.
# -timeout 20m: the race detector slows the simulator ~10x and CI boxes are
# small; the long golden-table experiments additionally skip under -race
# (see race_test.go).
# live: the ops metrics registry and run board are scraped over HTTP
# concurrently with probe and lifecycle writes from simulating cells.
# soak (+ its cmd/tool mains): the soak supervisor appends ledger lines
# from pool workers while chaos children run, and its e2e tests re-exec
# the race-instrumented test binary as the worker.
# fleet: the gateway's lease table and drain path are hit by concurrent
# worker goroutines and by the runner slots waiting on their units (and its
# tests run whole in-process fleets through a fault-injecting transport).
# swred: the async (Vilamb-family) daemon passes run on dedicated daemon
# cores concurrently with foreground mutators; the dirty-set property
# suite and epoch-aware verdict paths must hold under the race detector.
# applog: the shared append-only log behind the journal and both ledgers
# takes appends from concurrent runner workers and the resource sampler.
go test -race -timeout 20m ./internal/harness/ ./internal/experiments/ \
    ./internal/sim/ ./internal/core/ ./internal/fault/ ./internal/obs/ \
    ./internal/cache/ ./internal/nvm/ ./internal/xsum/ ./internal/geom/ \
    ./internal/pmem/ ./internal/live/ ./internal/soak/ ./internal/fleet/ \
    ./internal/swred/ ./internal/applog/ ./cmd/tvarak-soak/ ./tools/soakcheck/ .

echo "== coverage floor (core + sim + fault + harness + fleet) =="
# Combined statement coverage of the central simulation packages plus the
# correctness machinery the soak loop leans on (the fault campaign and the
# crash-safe harness) and the fleet control plane. Floor is below the
# measured ~88% to absorb drift, high enough to catch a dead-code
# regression or a silently skipped suite.
covfloor=80
go test -coverprofile="$(pwd)/cover.out" \
    -coverpkg=tvarak/internal/core,tvarak/internal/sim,tvarak/internal/fault,tvarak/internal/harness,tvarak/internal/fleet \
    ./... >/dev/null
covpct=$(go tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$NF); print $NF}')
rm -f cover.out
echo "core+sim+fault+harness+fleet combined coverage: ${covpct}% (floor ${covfloor}%)"
if awk -v p="$covpct" -v f="$covfloor" 'BEGIN{exit !(p<f)}'; then
    echo "coverage ${covpct}% fell below floor ${covfloor}%" >&2
    exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== fault-injection smoke campaign =="
# Short fixed-seed campaign across all apps and both designs: TVARAK must
# detect and recover everything, Baseline must miss at least one corruption
# the oracle confirms, and a same-seed rerun must produce a byte-identical
# report. Reproduce any failure with the same seed via
#   go run ./cmd/tvarak-fault -campaign -seed 7 -n 56 -report -
go build -o "$tmp/tvarak-fault" ./cmd/tvarak-fault
"$tmp/tvarak-fault" -campaign -seed 7 -n 56 -report "$tmp/a.jsonl" >/dev/null
"$tmp/tvarak-fault" -campaign -seed 7 -n 56 -report "$tmp/b.jsonl" >/dev/null
cmp "$tmp/a.jsonl" "$tmp/b.jsonl"
if tail -1 "$tmp/a.jsonl" | grep -q '"silentCorruptions":0'; then
    echo "smoke campaign: Baseline missed nothing — contrast gate broken" >&2
    exit 1
fi

echo "== telemetry export gate =="
# One small experiment cell through the full -metrics-out path, twice:
# the exports must be byte-identical (determinism), schema-valid, and match
# the committed golden (numbers regression). After an intentional behaviour
# change, regenerate the golden with: UPDATE_GOLDEN=1 ./ci.sh
go build -o "$tmp/tvarak-sim" ./cmd/tvarak-sim
gate=(-exp fig8-redis -scale 0.02 -designs baseline,tvarak -sample-every 100000)
"$tmp/tvarak-sim" "${gate[@]}" -metrics-out "$tmp/run1.json" >/dev/null
"$tmp/tvarak-sim" "${gate[@]}" -metrics-out "$tmp/run2.json" >/dev/null
cmp "$tmp/run1.json" "$tmp/run2.json"
"$tmp/tvarak-sim" -validate "$tmp/run1.json"
if [ "${UPDATE_GOLDEN:-0}" = "1" ]; then
    cp "$tmp/run1.json" testdata/ci-golden.json
    echo "regenerated testdata/ci-golden.json"
fi
"$tmp/tvarak-sim" -compare "testdata/ci-golden.json,$tmp/run1.json"

echo "== live ops gate =="
# A run with the ops server + resource sampler attached must serve
# well-formed /metrics (Prometheus text exposition), /healthz and /runs
# mid-run, shut down leak-free (opscheck's goroutine gate on the ledger's
# first-vs-last sample), and leave the metrics export byte-identical to a
# detached run — the read-only contract of DESIGN.md §10.
go build -o "$tmp/opscheck" ./tools/opscheck
og=(-exp fig8-stream -scale 0.05 -designs baseline,tvarak -parallel 2)
"$tmp/tvarak-sim" "${og[@]}" -metrics-out "$tmp/ops-plain.json" >/dev/null
"$tmp/tvarak-sim" "${og[@]}" -metrics-out "$tmp/ops-live.json" \
    -ops-addr 127.0.0.1:0 -ops-addr-file "$tmp/ops.addr" \
    -ops-ledger "$tmp/ops-ledger.jsonl" -ops-sample 100ms >/dev/null 2>&1 &
pid=$!
addr=""
for _ in $(seq 1 100); do
    if [ -s "$tmp/ops.addr" ]; then addr=$(cat "$tmp/ops.addr"); break; fi
    sleep 0.05
done
if [ -z "$addr" ]; then
    echo "ops gate: listen address never appeared in $tmp/ops.addr" >&2
    exit 1
fi
curl -fsS "http://$addr/healthz" | grep -qx "ok"
curl -fsS "http://$addr/metrics" >"$tmp/ops-metrics.txt"
grep -q '^# TYPE tvarak_cells_started_total counter$' "$tmp/ops-metrics.txt"
grep -q '^tvarak_sim_accesses_total [0-9]' "$tmp/ops-metrics.txt"
grep -q '^tvarak_cell_seconds_bucket{le="+Inf"} [0-9]' "$tmp/ops-metrics.txt"
curl -fsS "http://$addr/runs" | grep -q '"cells"'
wait "$pid"
cmp "$tmp/ops-plain.json" "$tmp/ops-live.json"
"$tmp/opscheck" -ledger "$tmp/ops-ledger.jsonl" -checks goroutines >/dev/null
# A killed sampler leaves a torn final line; the next run appending to the
# same ledger must repair it (DESIGN.md §7) so the ledger still analyzes.
truncate -s -7 "$tmp/ops-ledger.jsonl"
"$tmp/tvarak-sim" -exp fig8-stream -scale 0.02 -designs baseline -parallel 1 \
    -ops-ledger "$tmp/ops-ledger.jsonl" -ops-sample 100ms >/dev/null
"$tmp/opscheck" -ledger "$tmp/ops-ledger.jsonl" -checks goroutines >/dev/null

echo "== bench-regression gate =="
# Hot-path benchmark suite at fixed iteration counts, gated against the
# committed BENCH_6.json: allocs/op and B/op fail on a >10% increase,
# simulated cycles/accesses fail on ANY drift (they are deterministic), and
# wall-clock ns/op is reported but only enforced when BENCH_NS_TOL is set
# (e.g. BENCH_NS_TOL=0.10 on a quiet dedicated machine — wall-clock baselines
# do not transfer across machines; see DESIGN.md "Performance"). After an
# intentional perf-relevant change, regenerate with: UPDATE_BENCH=1 ./ci.sh
go build -o "$tmp/benchdiff" ./tools/benchdiff
if [ "${UPDATE_BENCH:-0}" = "1" ]; then
    "$tmp/benchdiff" -out BENCH_6.json >/dev/null
    echo "regenerated BENCH_6.json"
fi
"$tmp/benchdiff" -out "$tmp/bench.json" -baseline BENCH_6.json \
    -ns-tol "${BENCH_NS_TOL:-0}"

echo "== interrupt-and-resume gate =="
# A journaled run killed mid-flight must resume to output byte-identical to
# an uninterrupted run (DESIGN.md §7). SIGINT stops at the next phase
# boundary, flushes artifacts, and exits 130; a run that finishes before the
# signal lands (exit 0) is an acceptable race — the resume then just replays
# the complete journal, which exercises the same path.
res=(-exp fig8-stream -scale 0.05)
"$tmp/tvarak-sim" "${res[@]}" -metrics-out "$tmp/clean.json" >"$tmp/clean.txt"
"$tmp/tvarak-sim" "${res[@]}" -journal "$tmp/run.journal" \
    -metrics-out "$tmp/part.json" >/dev/null 2>&1 &
pid=$!
sleep 0.5
kill -INT "$pid" 2>/dev/null || true
rc=0; wait "$pid" || rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 130 ]; then
    echo "journaled run exited $rc, want 0 (finished) or 130 (interrupted)" >&2
    exit 1
fi
"$tmp/tvarak-sim" "${res[@]}" -resume -journal "$tmp/run.journal" \
    -metrics-out "$tmp/resumed.json" >"$tmp/resumed.txt" 2>/dev/null
cmp "$tmp/clean.json" "$tmp/resumed.json"
# Table output matches too, modulo the wall-clock timing header lines.
diff <(grep -v '^# ' "$tmp/clean.txt") <(grep -v '^# ' "$tmp/resumed.txt")

echo "== campaign interrupt-and-resume gate =="
# The same contract for the fault campaign: a journaled smoke campaign
# SIGINTed mid-run must resume to a report byte-identical to the clean
# smoke run above. -workers 1 stretches the run so the signal usually
# lands mid-campaign; exit 0 (finished first) is the same acceptable race.
camp=(-campaign -seed 7 -n 56 -workers 1)
"$tmp/tvarak-fault" "${camp[@]}" -journal "$tmp/camp.journal" \
    -report "$tmp/camp-part.jsonl" >/dev/null 2>&1 &
pid=$!
sleep 0.2
kill -INT "$pid" 2>/dev/null || true
rc=0; wait "$pid" || rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 130 ]; then
    echo "journaled campaign exited $rc, want 0 (finished) or 130 (interrupted)" >&2
    exit 1
fi
"$tmp/tvarak-fault" "${camp[@]}" -resume -journal "$tmp/camp.journal" \
    -report "$tmp/camp-resumed.jsonl" >/dev/null 2>&1
cmp "$tmp/a.jsonl" "$tmp/camp-resumed.jsonl"

echo "== soak + chaos gate =="
# A bounded fixed-seed soak inside a hard 90s budget: 16 sampled units
# across every design with the oracle armed, chaos every 4th unit (the
# supervisor SIGKILLs its own worker child mid-unit and resumes it from
# the journal, asserting the resumed report is byte-identical), resource
# gates every 8 units, one fsync'd ledger line per unit. soakcheck must
# come back clean with at least one kill/resume cycle, and a same-seed
# rerun must reproduce the ledger's canonical projection byte-for-byte
# (DESIGN.md §11). Replay any flagged unit from its ledger line's seed and
# key — see EXPERIMENTS.md "Overnight soak".
go build -o "$tmp/tvarak-soak" ./cmd/tvarak-soak
go build -o "$tmp/soakcheck" ./tools/soakcheck
soak=(-seed 11 -units 16 -budget 90s -ops-sample 100ms)
"$tmp/tvarak-soak" "${soak[@]}" -ledger "$tmp/soak-a.jsonl" -workdir "$tmp/soak-wa" >/dev/null
"$tmp/soakcheck" -ledger "$tmp/soak-a.jsonl" -require-chaos 1
"$tmp/tvarak-soak" "${soak[@]}" -ledger "$tmp/soak-b.jsonl" -workdir "$tmp/soak-wb" >/dev/null
"$tmp/soakcheck" -ledger "$tmp/soak-a.jsonl" -canon >"$tmp/soak-a.canon"
"$tmp/soakcheck" -ledger "$tmp/soak-b.jsonl" -canon >"$tmp/soak-b.canon"
cmp "$tmp/soak-a.canon" "$tmp/soak-b.canon"

# serve_fleet NAME CMD...: run the -fleet job CMD against two localhost
# workers, one of them SIGKILLed mid-job. -acquire-delay holds the victim
# between lease grant and unit start so the kill reliably orphans a lease,
# which must expire and be re-dispatched (>=1 redelivery in the summary).
# The job's stdout lands in $tmp/NAME.txt.
go build -o "$tmp/tvarak-worker" ./cmd/tvarak-worker
serve_fleet() {
    local name=$1
    shift
    "$@" -ops-addr 127.0.0.1:0 -ops-addr-file "$tmp/$name.addr" \
        -lease-ttl 2s -redeliver-backoff 100ms \
        -summary-file "$tmp/$name-summary.json" >"$tmp/$name.txt" 2>/dev/null &
    local pid=$! addr=""
    for _ in $(seq 1 100); do
        if [ -s "$tmp/$name.addr" ]; then addr=$(cat "$tmp/$name.addr"); break; fi
        sleep 0.05
    done
    if [ -z "$addr" ]; then
        echo "$name gate: gateway address never appeared in $tmp/$name.addr" >&2
        exit 1
    fi
    "$tmp/tvarak-worker" -gateway "http://$addr" -name victim \
        -acquire-delay 5s >/dev/null 2>&1 &
    local victim=$!
    sleep 1
    kill -9 "$victim" 2>/dev/null || true
    wait "$victim" 2>/dev/null || true
    "$tmp/tvarak-worker" -gateway "http://$addr" -name survivor -slots 2 2>/dev/null
    wait "$pid"
    grep -Eq '"redelivered": *[1-9]' "$tmp/$name-summary.json" || {
        echo "$name gate: no redelivery after SIGKILLing a worker:" >&2
        cat "$tmp/$name-summary.json" >&2
        exit 1
    }
}

echo "== fleet sweep gate =="
# The same sweep the interrupt gate ran locally, now served by tvarak-sim
# -fleet to two localhost workers, one SIGKILLed mid-sweep: the merged
# table and export must come out byte-identical to the local run's
# (DESIGN.md §12). The fleet run's journal is a local run's journal:
# resumed by a local tvarak-sim it restores every cell (none simulated)
# and reproduces the same export.
serve_fleet fleet "$tmp/tvarak-sim" "${res[@]}" -fleet \
    -journal "$tmp/fleet.journal" -metrics-out "$tmp/fleet.json"
cmp "$tmp/clean.json" "$tmp/fleet.json"
diff <(grep -v '^# ' "$tmp/clean.txt") <(grep -v '^# ' "$tmp/fleet.txt")
"$tmp/tvarak-sim" "${res[@]}" -resume -journal "$tmp/fleet.journal" -progress \
    -metrics-out "$tmp/fleet-resumed.json" >/dev/null 2>"$tmp/fleet-resumed.err"
cmp "$tmp/clean.json" "$tmp/fleet-resumed.json"
if grep '^  \[' "$tmp/fleet-resumed.err" | grep -vq ' restored '; then
    echo "fleet sweep gate: resuming the fleet journal locally simulated cells:" >&2
    cat "$tmp/fleet-resumed.err" >&2
    exit 1
fi

echo "== vilamb fleet sweep gate =="
# The async-family reduced sweep (ext-async-mini: Baseline/TVARAK anchors
# plus epoch x granularity x battery Vilamb points, DESIGN.md §13) through
# the same kill-a-worker fleet: the async axes must survive the JobSpec
# round-trip and lease redelivery, and the merged table, both derived
# figure panels, and the export must come out byte-identical to a local
# tvarak-sim run of the same grid.
async=(-exp ext-async-mini -scale 0.02)
"$tmp/tvarak-sim" "${async[@]}" -metrics-out "$tmp/async-clean.json" >"$tmp/async-clean.txt"
serve_fleet async-fleet "$tmp/tvarak-sim" "${async[@]}" -fleet \
    -journal "$tmp/async-fleet.journal" -metrics-out "$tmp/async-fleet.json"
cmp "$tmp/async-clean.json" "$tmp/async-fleet.json"
diff <(grep -v '^# ' "$tmp/async-clean.txt") <(grep -v '^# ' "$tmp/async-fleet.txt")

echo "== fleet campaign gate =="
# The smoke campaign served by tvarak-fault -campaign -fleet to the same
# kill-a-worker fleet: the merged JSONL report must be byte-identical to
# the local smoke run's.
serve_fleet camp-fleet "$tmp/tvarak-fault" -campaign -seed 7 -n 56 -fleet \
    -report "$tmp/camp-fleet.jsonl"
cmp "$tmp/a.jsonl" "$tmp/camp-fleet.jsonl"

echo "ci.sh: all checks passed"
