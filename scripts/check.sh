#!/usr/bin/env bash
# check.sh — the repo's full verification gate. Run before every commit
# (CI runs exactly this via .github/workflows/check.yml).
#
# The -race pass is not optional: the parallel execution layer
# (internal/par and every kernel built on it) is only safe as long as
# this stays green.
#
# Observability: the race pass already covers the obs-on/obs-off
# byte-identity and golden-corpus tests in internal/experiments; the
# smoke step below additionally proves the CLI plumbing end to end —
# a -manifest/-trace run must produce a non-empty manifest with spans.
#
# Cancellation: the parcheck stage rejects silently dropped par errors
# (scripts/parcheck), and the stress stage interrupts a real run with a
# random deadline under -race, asserting the DESIGN.md §9 contract —
# nonzero exit, classified diagnostic, interrupted-but-intact manifest.
#
# Examples: every examples/* main runs once; a nonzero exit fails the
# gate.
#
# Fuzz smoke: each library-boundary fuzz target runs briefly past its
# committed seed corpus. Go allows one -fuzz pattern per invocation, so
# the targets run one at a time. FUZZTIME=0 skips the live fuzzing (the
# seeds still replay as part of go test above); raise it locally for a
# deeper soak, e.g. FUZZTIME=30s ./scripts/check.sh.
#
# Benchgate: scripts/benchgate re-runs the E1/E7/E16/E23/ES1 benchmarks and
# compares allocations (always) and wall-clock (only when GOMAXPROCS
# matches the baseline's) against the committed BENCH_*.json baselines
# (generous tolerance; allocs are the sharp edge). A real,
# intentional perf change is recorded by committing the output of
# `go run ./scripts/benchgate -update`. BENCHGATE_SKIP=1 (exactly "1",
# like ESCALE_SKIP) skips the stage on runners too noisy to time
# anything; this script is the only place that reads it.
#
# E-scale smoke: a full ES1 run (10k-switch fabrics under the sampled
# all-pairs estimator, DESIGN.md §11) proves the fleet-scale band works
# end to end — generator, sampling, CLI — on every commit. ESCALE_SKIP=1
# skips it on memory-starved runners.
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

echo "== go vet"
go vet ./...

echo "== parcheck (no silently dropped par errors)"
go run ./scripts/parcheck ./internal ./cmd ./examples

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== daemon single-flight race stress (-race, 20 rounds)"
# The flight cache's interleavings (hit, join, lead, retry after a
# failed leader, a follower's own deadline, a drop mid-flight) differ
# from run to run; one -race pass sees only a few of them.
go test -race -count=20 -run 'Coalesc|Follower|Leader|Store|Flight' ./internal/serve

echo "== bench module (vet + test)"
# bench/ is a separate module, so ./... above never reaches it: an API
# edit that breaks the benchmark harness must fail here instead.
(cd bench && go vet ./... && go test ./...)

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== examples (each runs once and must exit 0)"
# go build only compiles the examples; running them catches an API edit
# that still compiles but breaks what an example does. Each takes a few
# milliseconds.
for dir in examples/*/; do
  name="$(basename "$dir")"
  echo "-- $name"
  go build -o "$tmp/example-$name" "./$dir"
  "$tmp/example-$name" >/dev/null
done

echo "== observability smoke (manifest + trace)"
go run ./cmd/experiments -run E2 -manifest "$tmp/manifest.json" -trace \
  >/dev/null 2>"$tmp/trace.txt"
grep -q '"experiment:E2"' "$tmp/manifest.json"
grep -q 'counters:' "$tmp/trace.txt"

echo "== cancellation stress (-race, random deadline)"
# A deadline in [1, 100] ms lands mid-kernel somewhere different every
# run: the binary must exit nonzero with the classified diagnostic and
# still flush a manifest marked interrupted. Run under -race so a
# cancellation path that touches shared state without synchronization
# fails here, not in production.
deadline="$(( (RANDOM % 100) + 1 ))ms"
echo "-- deadline $deadline"
if go run -race ./cmd/experiments -run E1 -timeout "$deadline" \
  -manifest "$tmp/cancel-manifest.json" >/dev/null 2>"$tmp/cancel.err"; then
  echo "cancellation stress: expected nonzero exit under a ${deadline} deadline" >&2
  exit 1
fi
grep -q 'run canceled' "$tmp/cancel.err"
grep -q '"interrupted": true' "$tmp/cancel-manifest.json"

echo "== daemon smoke (physdepd: healthz, round-trip, graceful drain, warm start)"
# Boot the daemon on a kernel-chosen port with a persist file,
# health-check it, round-trip one evaluation twice (the replay must be a
# cache hit), then SIGTERM: the process must drain, persist its cache,
# and exit 0. Then restart against the persisted file: the first
# replayed request must be a byte-identical cache hit with zero kernel
# work (no serve_store_build metric at all) — the README's documented
# warm-start lifecycle.
go build -o "$tmp/physdepd" ./cmd/physdepd
start_daemon() { # $1 = log file
  "$tmp/physdepd" -addr 127.0.0.1:0 -cache-persist "$tmp/cache.snap" >"$1" 2>&1 &
  daemon_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$1")"
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "daemon smoke: physdepd never reported its address" >&2
    cat "$1" >&2
    exit 1
  fi
}
stats_req='{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100,"seed":7}}'
start_daemon "$tmp/daemon.log"
curl -fsS "http://$addr/healthz" | grep -q '"status":"ok"'
curl -fsS -X POST -d "$stats_req" "http://$addr/v1/stats" >"$tmp/daemon-body-cold"
grep -q '"switches":16' "$tmp/daemon-body-cold"
curl -fsS -D "$tmp/daemon-replay-hdr" -X POST -d "$stats_req" \
  "http://$addr/v1/stats" >/dev/null
grep -qi '^x-physdepd-cache: hit' "$tmp/daemon-replay-hdr"
curl -fsS "http://$addr/metrics" | grep -q '^serve_cache_hit 1$'
kill -TERM "$daemon_pid"
wait "$daemon_pid"
grep -q 'cache persisted: 1 entries' "$tmp/daemon.log"
grep -q 'shutdown complete' "$tmp/daemon.log"

start_daemon "$tmp/daemon-warm.log"
grep -q 'cache warm-start: 1 entries' "$tmp/daemon-warm.log"
curl -fsS -D "$tmp/daemon-warm-hdr" -X POST -d "$stats_req" \
  "http://$addr/v1/stats" >"$tmp/daemon-body-warm"
grep -qi '^x-physdepd-cache: hit' "$tmp/daemon-warm-hdr"
cmp "$tmp/daemon-body-cold" "$tmp/daemon-body-warm"
curl -fsS "http://$addr/metrics" >"$tmp/daemon-warm-metrics"
grep -q '^serve_cache_hit 1$' "$tmp/daemon-warm-metrics"
if grep -q '^serve_store_build' "$tmp/daemon-warm-metrics"; then
  echo "daemon smoke: warm-started daemon did kernel work on a persisted hit" >&2
  exit 1
fi
kill -TERM "$daemon_pid"
wait "$daemon_pid"
grep -q 'shutdown complete' "$tmp/daemon-warm.log"

echo "== interchange smoke (emit → load → evaluate, diffed against the flag-built run)"
# The round-trip contract through the CLIs: topogen emits a jellyfish
# document, then both topogen's profile and physdep's full evaluation of
# the document must be byte-identical to the flag-built runs — and the
# daemon must accept the same document via /v1/documents and serve it
# with response bytes equal to the generator-spec request. A 400G
# document's throughput must price server ports at the fabric's own rate,
# and a document's hall must give the daemon the same answer as a spec
# request that names that hall.
go run ./cmd/topogen -topo jellyfish -n 16 -radix 8 -net 4 -rate 100 -seed 7 \
  -emit "$tmp/fabric.json" >"$tmp/topogen-flags.out"
grep -v '^emitted: ' "$tmp/topogen-flags.out" >"$tmp/topogen-flags.profile"
go run ./cmd/topogen -topo-file "$tmp/fabric.json" >"$tmp/topogen-file.out"
diff "$tmp/topogen-flags.profile" "$tmp/topogen-file.out"
go run ./cmd/topogen -topo jellyfish -n 16 -radix 8 -net 4 -rate 400 -seed 7 -throughput \
  -emit "$tmp/fabric400.json" | grep -v '^emitted: ' >"$tmp/topogen400-flags.profile"
go run ./cmd/topogen -topo-file "$tmp/fabric400.json" -throughput >"$tmp/topogen400-file.out"
diff "$tmp/topogen400-flags.profile" "$tmp/topogen400-file.out"
sed 's/^  "version": 1,$/&\n  "hall": {"rows": 4, "slots": 12},/' "$tmp/fabric.json" >"$tmp/fabric-hall.json"
grep -q '"hall"' "$tmp/fabric-hall.json"
go run ./cmd/physdep -topo jellyfish -n 16 -radix 8 -net 4 -rate 100 -seed 7 >"$tmp/physdep-flags.out"
go run ./cmd/physdep -topo-file "$tmp/fabric.json" >"$tmp/physdep-file.out"
diff "$tmp/physdep-flags.out" "$tmp/physdep-file.out"
start_daemon "$tmp/daemon-doc.log"
doc_ref="$(curl -fsS -X POST --data-binary @"$tmp/fabric.json" "http://$addr/v1/documents" \
  | sed 's/.*"document":"\([^"]*\)".*/\1/')"
case "$doc_ref" in sha256:*) ;; *)
  echo "interchange smoke: upload returned no digest: $doc_ref" >&2; exit 1 ;;
esac
curl -fsS -X POST -d "$stats_req" "http://$addr/v1/stats" >"$tmp/doc-spec-body"
curl -fsS -X POST -d "{\"topo\":{\"name\":\"file\",\"file\":\"$doc_ref\"}}" \
  "http://$addr/v1/stats" >"$tmp/doc-file-body"
cmp "$tmp/doc-spec-body" "$tmp/doc-file-body"
hall_ref="$(curl -fsS -X POST --data-binary @"$tmp/fabric-hall.json" "http://$addr/v1/documents" \
  | sed 's/.*"document":"\([^"]*\)".*/\1/')"
case "$hall_ref" in sha256:*) ;; *)
  echo "interchange smoke: hall document upload returned no digest: $hall_ref" >&2; exit 1 ;;
esac
curl -fsS -X POST -d '{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100,"seed":7},"hall":{"rows":4,"slots":12}}' \
  "http://$addr/v1/evaluate" >"$tmp/hall-spec-body"
curl -fsS -X POST -d "{\"topo\":{\"name\":\"file\",\"file\":\"$hall_ref\"}}" \
  "http://$addr/v1/evaluate" >"$tmp/hall-file-body"
cmp "$tmp/hall-spec-body" "$tmp/hall-file-body"
kill -TERM "$daemon_pid"
wait "$daemon_pid"

echo "== lifecycle smoke (panel Clos and growth planner golden replay)"
# The lifecycle layer end to end through the CLI: E3 (panel-Clos
# expansion vs splice growth), E23 (the multi-step growth planner,
# Jellyfish vs Xpander vs panel-Clos) and E24 (annealed vs naive work
# ordering) must each reproduce its committed golden byte for byte.
# cmd/experiments prints each table with Println, which appends one
# newline past the golden file's content — the `echo` accounts for it.
go run ./cmd/experiments -run E3,E23,E24 >"$tmp/lifecycle.out"
diff <(for id in E3 E23 E24; do cat "internal/experiments/testdata/golden/$id.txt"; echo; done) "$tmp/lifecycle.out"

if [ "${BENCHGATE_SKIP:-}" = "1" ]; then
  echo "== benchgate (skipped: BENCHGATE_SKIP=1)"
else
  echo "== benchgate (perf regression gate; BENCHGATE_SKIP=1 to skip)"
  go run ./scripts/benchgate
fi

echo "== batch record (every experiment's wall time and allocs at one worker)"
# Log only: one serial run of the whole batch puts each experiment's
# span (wall time, allocs, bytes) in the log, the per-experiment numbers
# ROADMAP's batch line quotes. A failed run still fails the gate.
go run ./cmd/experiments -workers 1 -trace 2>&1 >/dev/null | grep 'experiment:'

echo "== fleet evaluate (one 4k-switch core.EvaluateCtx, BenchmarkEvaluateFleet)"
# One full evaluation of a 4,000-switch flat fabric in a 50×200 hall
# keeps the fleet-scale path compiling and running, and puts its time on
# record in the log.
go test -run '^$' -bench EvaluateFleet -benchtime 1x ./internal/core

echo "== ToR path statistics (flatrandom and ring, 1.8k exhaustive and 5k/20k sampled; BenchmarkBasicStats)"
# One bit-parallel all-pairs sweep on each side of the sampling threshold,
# the kernel /v1/stats and every evaluation run first, on a low-diameter
# fabric and on a ring whose diameter is half its size.
go test -run '^$' -bench BasicStats -benchtime 1x ./internal/topology

echo "== generator builds (evaluate-miss and serve-hot miss shapes, 2k Jellyfish; BenchmarkGenerators)"
# Log only: one build of each fabric the daemon benchmark builds on a
# miss, plus a 2,000-switch Jellyfish, puts each build's time and
# allocations in the log. TestGeneratorAllocs, in the race-free test
# runs, is what fails on an allocation regression.
go test -run '^$' -bench Generators -benchtime 1x ./internal/topology

if [ "${ESCALE_SKIP:-}" = "1" ]; then
  echo "== E-scale smoke (skipped: ESCALE_SKIP=1)"
else
  echo "== E-scale smoke (ES1, 10k-switch sampled stats; ESCALE_SKIP=1 to skip)"
  go run ./cmd/experiments -run ES1 >/dev/null
fi

if [ "$FUZZTIME" != "0" ]; then
  echo "== fuzz smoke (${FUZZTIME} per target)"
  fuzz_targets=(
    "FuzzTopologyGenerators ./internal/topology"
    "FuzzRouteBetween       ./internal/floorplan"
    "FuzzPlanCables         ./internal/cabling"
    "FuzzKSP                ./internal/trafficsim"
    "FuzzKSPPathsMatchReference ./internal/trafficsim"
    "FuzzTwinRules          ./internal/twin"
    "FuzzInterchangeLoad    ./internal/interchange"
    "FuzzFreeze             ./internal/graph"
    "FuzzSweepMatchesReference ./internal/graph"
    "FuzzExecute            ./internal/deploy"
  )
  for entry in "${fuzz_targets[@]}"; do
    read -r target pkg <<<"$entry"
    echo "-- $target ($pkg)"
    go test -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME" "$pkg"
  done
fi

echo "check.sh: all green"
