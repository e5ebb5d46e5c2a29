# GridBank / GASA reproduction — developer entry points.

PYTHON ?= python

# targets work from a fresh checkout without `make install`
export PYTHONPATH := src

.PHONY: install lint src-budget test bench bench-smoke bench-record bench-gate chaos slo-smoke corruption-drill shard-drill gridbench-smoke examples ci all clean

install:
	$(PYTHON) setup.py develop

lint:
	$(PYTHON) -m compileall -q src
	$(PYTHON) tools/check_no_print.py

# ROADMAP item 4's "net-negative" gate as a command: src/ may not grow past
# the count the last PR left it at. A PR that shrinks src/ lowers the
# ceiling to its own count; one that must grow it says why where it raises it.
# -183: one span stream. Head and tail sampling and the flight
# recorder's span ring are gone; post-mortems read the span store.
# repro.obs.sampling survives only as the pass-through shim
# gridbench/ledger.py imports; ROADMAP 11(viii) deletes it.
# +11: three-prime RSA. crypto/keys.py refuses a private key file whose
# primes, modulus and exponents disagree (a CRT signature made with a
# corrupt prime leaks the factors, DESIGN §20) and still reads the
# two-prime p/q form older homes hold; the k-prime CRT costs 2 lines.
# -1: one node. cmd_serve's body is repro.bank.node.Node, the active
# diagnosis plane is gone, and the CLI dials a bank in one place.
# -1: recovery streams the WAL. The reader that decoded every record
# into one list is gone (scan_wal walks a line at a time and hands each
# entry on), WAL frame errors are built in one place, and load_state
# reloads a table through recovery's loader.
# +21: the sampling profiler holds the cyclic collector off around
# sys._current_frames(). On CPython 3.11 a collection inside that call
# that frees a threading.local deadlocks the process (GIL held).
# -70: one instrument lifecycle. GridCheque, GridHash and GridCoin share
# one issue / settle / release (payments.instruments.InstrumentProtocol)
# and one client base; redeem_batch, the per-kind result types and the
# lifetime knobs are gone. Net of +14 for the public-key size cap (F5).
# +136: a row is a tuple (DESIGN §23). The snapshot is walked a row at
# a time through a text window, so recovery and the scrubber hold its
# raw bytes, not its decoded tables (+95: integrity.snapshot_tables and
# serialize.canonical_load_at); Table packs rows by column position and
# moves only the index entries of columns that changed (+47). Net of -6
# for the four unqueried indexes, the payee check moved into _issue and
# Settlement.links_redeemed.
# -84: the profiler samples when asked (DESIGN §11). The resident sampler
# thread, --profile-hz / NodeConfig.profile_hz, the Runner thread-exclusion
# registry and the post-mortem's fold ring and profile files are gone;
# Diag.Profile samples a capped window on the thread serving it (+ a
# blocking op-table row that keeps a window off the async loop). Chain
# validation is root-first over [user] / [proxy, user] only, without the
# intermediate-CA branch. The +21 gc guard above stays: windows sample.
SRC_LINES_MAX := 22654
src-budget:
	@lines=$$(find src -name '*.py' | xargs cat | wc -l); \
	if [ $$lines -gt $(SRC_LINES_MAX) ]; then \
		echo "src-budget: src/ is $$lines lines, ceiling is $(SRC_LINES_MAX)"; exit 1; \
	fi; \
	echo "src-budget: src/ is $$lines lines (ceiling $(SRC_LINES_MAX))"

test: lint
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# every scenario once, no timing storage — catches broken benchmarks fast
bench-smoke:
	$(PYTHON) -m pytest benchmarks/ --benchmark-disable -q

# append a BENCH_TRAJECTORY.json entry (ops/s + sidecar percentiles)
bench-record:
	$(PYTHON) benchmarks/trajectory.py

# fail on >20% ops/s regression or >25% p95 growth vs the previous comparable
# entry. Exit 3 means "baseline attention, not a regression": either no
# comparable baseline exists yet (the first recording IS the baseline) or the
# baseline has scenarios the latest run lacks (reported loudly above) —
# tolerated here and in CI, never silently counted as a pass.
bench-gate:
	@$(PYTHON) tools/check_bench_regression.py; rc=$$?; \
	if [ $$rc -eq 3 ]; then echo "bench-gate: baseline attention — tolerated (exit 3)"; \
	elif [ $$rc -ne 0 ]; then exit $$rc; fi

# seeded fault-injection and exactly-once chaos suites, plus the chaos bench
chaos:
	$(PYTHON) -m pytest tests/ -m chaos
	$(PYTHON) -m pytest tests/test_fault_injection.py tests/test_exactly_once.py tests/test_retry.py tests/test_integrity.py
	$(PYTHON) -m pytest benchmarks/bench_chaos.py --benchmark-only

# fault-injected SLO drill: a scheduled latency+drop storm must trip a
# burn-rate page and the alert must clear once the faults stop
slo-smoke:
	$(PYTHON) tools/slo_smoke.py

# two-node TCP cluster: seeded bit flips damage the stopped standby's WAL;
# detection, boot refusal, and a full `gridbank fsck --repair` round trip
# from the healthy primary must all hold, with funds conserved end to end
corruption-drill:
	$(PYTHON) tools/corruption_drill.py

# three-shard TCP cluster: a seeded cross-shard transfer storm rides
# through a live shard split (epoch-fenced rebalance, s1 -> empty s3);
# conservation, exactly-once, fencing and the shard-status CLI must hold
shard-drill:
	$(PYTHON) tools/shard_drill.py

# the served-bank benchmark with 2 s windows: every workload over loopback
# TCP against real `gridbank serve` children, exits non-zero if any
# correctness check after the SIGKILL/restart fails (timings not gated)
gridbench-smoke:
	$(PYTHON) gridbench/run.py --seed 7 --smoke

# exactly what .github/workflows/ci.yml runs, in the same order — keep the
# two in lockstep so "it passed locally" means "it will pass in CI"
ci: lint src-budget test chaos slo-smoke corruption-drill shard-drill gridbench-smoke bench-smoke bench-gate
	@echo "ci: all gates green"

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script || exit 1; \
		echo; \
	done

# the final-deliverable capture the reproduction brief asks for
outputs:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

all: lint src-budget test chaos slo-smoke corruption-drill shard-drill gridbench-smoke bench-smoke bench-gate

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
