.PHONY: all build test check bench bench-smoke serve-smoke swarm-smoke examples doc clean soak lint torture torture-smoke

all: build

build:
	dune build @all

test:
	dune runtest

# Repo-specific static analysis (tools/lint).  Fails on any finding not
# recorded in tools/lint/baseline.txt; the baseline only shrinks.  After
# paying down debt, regenerate with:
#   dune exec tools/lint/fsynlint.exe -- --update-baseline
lint:
	dune build tools/lint/fsynlint.exe
	dune exec tools/lint/fsynlint.exe --

# What CI runs: full build (including examples and benches), the test
# suite, the lint ratchet, the bench-smoke JSON round trip, the daemon
# end-to-end smoke (serve + concurrent pulls over TCP), the swarm
# end-to-end smoke (3 forked peers converging over TCP), and the
# reduced crash-tolerance torture matrix.
check: build test lint bench-smoke serve-smoke swarm-smoke torture-smoke

# QUICK=1 runs only the JSON-exporting scenarios on their reduced
# matrices — a smoke test fast enough for CI.
bench:
ifeq ($(QUICK),1)
	QUICK=1 dune exec bench/main.exe -- metadata collection server store swarm
else
	dune exec bench/main.exe
endif

# CI smoke: run the reduced bench matrix and verify the machine-readable
# exports parse and carry the fsync-bench/1 shape (tools/benchjson).
bench-smoke:
	$(MAKE) bench QUICK=1
	dune exec tools/benchjson/benchjson.exe -- \
	  BENCH_metadata.json BENCH_collection.json BENCH_server.json \
	  BENCH_store.json BENCH_swarm.json

# Daemon end-to-end smoke: start `fsync serve` on an ephemeral TCP port,
# run four concurrent `fsync pull`s (one through an injected-fault link),
# verify the replicas byte-for-byte and shut the daemon down cleanly.
serve-smoke:
	dune build bin/fsync.exe tools/benchjson/benchjson.exe
	sh tools/serve_smoke.sh

# Swarm end-to-end smoke: three forked `fsync swarm serve` peers on
# ephemeral ports with divergent edits (one deliberate conflict), a
# joiner relaying gossip until every exchange short-circuits, then
# byte-identical convergence, conflict surfacing, quorum read-repair
# and a plain pull from a swarm port asserted, and a clean SIGTERM
# shutdown.
swarm-smoke:
	dune build bin/fsync.exe
	sh tools/swarm_smoke.sh

examples:
	dune exec examples/quickstart.exe
	dune exec examples/source_tree_sync.exe
	dune exec examples/web_mirror.exe
	dune exec examples/tuning.exe
	dune exec examples/broadcast_mirror.exe
	dune exec examples/metadata_recon.exe
	dune exec examples/faulty_link.exe

# The fault-injection matrix: frame/fault unit tests, decoder fuzzing and
# the 200-schedule soak.
soak:
	dune exec test/test_main.exe -- test resilience

# Crash-tolerance torture (DESIGN.md §12): the full {crash point x
# disk-fault schedule} x {push, pull, gc, compact} matrix with restart,
# fsck and convergence asserted per cell, plus the resumed-pull payload
# bar; writes and validates BENCH_torture.json.  torture-smoke is the
# QUICK-scaled variant CI runs inside `make check`.
torture:
	sh tools/torture.sh

torture-smoke:
	QUICK=1 sh tools/torture.sh

doc:
	dune build @doc

clean:
	dune clean
