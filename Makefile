.PHONY: all build test check bench bench-diff bench-pair fmt exec-smoke \
  trace-smoke telemetry-smoke fault-smoke profile-smoke fleet-smoke \
  interference-smoke e2e-smoke config-smoke artifacts artifacts-diff clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate: full build, full test suite, and a smoke pass of the
# benchmark harness (a few runs per benchmark, JSON export exercised).
check:
	dune build
	dune runtest
	dune exec bench/main.exe -- --dry-run --json _build/bench_smoke.json

# Full benchmark run with committed JSON artifact.
bench:
	dune exec bench/main.exe -- --json BENCH_9.json

# Regression gate over the two most recent committed artifacts: every row
# present in both is compared against its group's threshold ratio
# (bench/diff.ml); nonzero exit on any regression beyond threshold. The
# comparison must also refuse a malformed artifact: the first 2000 bytes
# of BENCH_9.json have to exit 2, not compare as a shorter run.
TRUNCATED = _build/bench-diff-truncated.json

bench-diff:
	dune exec bench/diff.exe -- BENCH_8.json BENCH_9.json
	@head -c 2000 BENCH_9.json > $(TRUNCATED)
	@dune exec bench/diff.exe -- BENCH_8.json $(TRUNCATED) \
	  > $(TRUNCATED).out 2>&1; \
	  code=$$?; \
	  if [ $$code -ne 2 ]; then \
	    echo "bench-diff: truncated BENCH_9.json exited $$code, not 2:"; \
	    cat $(TRUNCATED).out; exit 1; \
	  fi; \
	  echo "bench-diff: truncated artifact refused: $$(cat $(TRUNCATED).out)"

# Paired end-to-end runs against an earlier revision:
#   make bench-pair BASE=<rev> [WORKLOAD=<name>] [PAIRS=10] [SEED=1]
# checks BASE out in a git worktree under _build (as artifacts-diff does),
# builds bench/e2e/e2e.exe there and here, and runs PAIRS alternating pairs
# of `e2e.exe --workload W --seed SEED` for BENCHMARK.json's run_seconds,
# swapping which side goes first every pair (bench/pair.ml), for W the
# named WORKLOAD or, without one, every workload BENCHMARK.json lists, in
# turn. Per workload it prints each end-to-end metric's median and Q1-Q3
# on both sides and the pairs the change won, then the attempted and
# failed totals, and it fails if any run's result is not "correct": true.
# The worktree is removed either way.
PAIR_DIR = $(CURDIR)/_build/bench-pair
PAIRS ?= 10
SEED ?= 1

bench-pair:
	@test -n "$(BASE)" || { \
	  echo "usage: make bench-pair BASE=<rev> [WORKLOAD=<name>] [PAIRS=N]" \
	    "[SEED=K]"; exit 2; }
	rm -rf $(PAIR_DIR)
	git worktree prune
	git worktree add --detach $(PAIR_DIR)/tree $(BASE)
	@status=0; \
	(cd $(PAIR_DIR)/tree && dune build --root . bench/e2e/e2e.exe) \
	  || status=1; \
	test $$status -ne 0 || dune build bench/e2e/e2e.exe bench/pair.exe \
	  || status=1; \
	test $$status -ne 0 || $(CURDIR)/_build/default/bench/pair.exe \
	  $(if $(WORKLOAD),--workload $(WORKLOAD)) --pairs $(PAIRS) --seed $(SEED) \
	  $(PAIR_DIR)/tree $(CURDIR) || status=1; \
	git worktree remove --force $(PAIR_DIR)/tree; \
	exit $$status

# Format gate: the build image carries no ocamlformat, so the gate enforces
# the cheap invariants every formatter run would — no tab characters and no
# trailing whitespace in OCaml sources or dune files.
#
# It also keeps polymorphic min/max off the tick path. Stdlib.min and
# Stdlib.max are ordinary polymorphic functions, not primitives specialised
# at int, and dune's dev profile compiles every library with -opaque, so no
# call is inlined: each one ends in a C call to the generic compare. The
# libraries a tick runs through use Int.min/Int.max or Time.min/Time.max.
# The gate flags Stdlib.min/Stdlib.max and unqualified min/max applied to
# an argument; record fields and labels named min or max (`max = n`,
# `{ size; max }`, `~max`), text in string literals and text after a
# comment opener on the same line are not applications.
MINMAX_PATHS = lib/core lib/exec lib/fleet lib/ipc lib/pos lib/spatial \
  lib/obs lib/sim/time.ml
MINMAX = ^(?:[^"(]|\((?!\*)|"(?:[^"\\]|\\.)*")*?(?:\bStdlib\.(?:min|max)\b|(?<![\w.\x27~?])(?<!let )(?:min|max)\s+(?=[\w(!\x27-]))

fmt:
	@if grep -rnP '\t|[ \t]+$$' --include='*.ml' --include='*.mli' \
	  --include=dune lib bin test bench; then \
	  echo 'fmt: tabs or trailing whitespace (listed above)'; exit 1; \
	else echo 'fmt: clean'; fi
	@if grep -rnP '$(MINMAX)' --include='*.ml' $(MINMAX_PATHS); then \
	  echo 'fmt: polymorphic min/max on the tick path (listed above)'; \
	  exit 1; \
	else echo 'fmt: no polymorphic min/max'; fi

# End-to-end executive pass: the example module sharded over two cores,
# advanced once under the skip-ahead executive and once per-tick with the
# telemetry exports compared byte for byte; then the document's seeded
# fault campaigns through the multicore skip-ahead executive (containment
# and reproducibility enforced by the exit code).
exec-smoke:
	dune exec bin/air_run.exe -- examples/configs/leo_satellite.air \
	  --cores 2 -t 20000 --speed --telemetry-json /tmp/air_exec_skip.json
	dune exec bin/air_run.exe -- examples/configs/leo_satellite.air \
	  --cores 2 -t 20000 --no-skip --telemetry-json /tmp/air_exec_ref.json
	cmp /tmp/air_exec_skip.json /tmp/air_exec_ref.json
	dune exec bin/air_run.exe -- examples/configs/leo_satellite.air \
	  --faults --cores 2 --campaign-json /tmp/air_exec_campaign.json

# End-to-end flight-recorder pass: run an example configuration with the
# recorder attached, export the Chrome trace and replay-check the event
# trace against the configured schedules (nonzero exit on any violation).
trace-smoke:
	dune exec bin/air_run.exe -- examples/configs/leo_satellite.air \
	  -t 3000 --trace-json /tmp/air_trace.json --check-trace

# End-to-end telemetry pass: run an example configuration with the frame
# accumulator attached, export CSV + JSON, and validate both artifacts
# (JSON well-formedness, schema marker, CSV column discipline).
telemetry-smoke:
	dune build test/telemetry_smoke.exe
	dune exec bin/air_run.exe -- examples/configs/leo_satellite.air \
	  -t 8000 --telemetry-json /tmp/air_telemetry.json \
	  --telemetry-csv /tmp/air_telemetry.csv
	dune exec test/telemetry_smoke.exe -- \
	  /tmp/air_telemetry.json /tmp/air_telemetry.csv

# End-to-end fault-injection pass: run the example document's seeded
# campaigns twice through the engine + containment oracle, export both
# reports, and validate them (JSON well-formedness, schema marker, all
# campaigns contained and reproducible, byte-identical reruns).
fault-smoke:
	dune build test/fault_smoke.exe
	dune exec bin/air_run.exe -- examples/configs/leo_satellite.air \
	  --faults --campaign-json /tmp/air_campaign_a.json
	dune exec bin/air_run.exe -- examples/configs/leo_satellite.air \
	  --faults --campaign-json /tmp/air_campaign_b.json
	dune exec test/fault_smoke.exe -- \
	  /tmp/air_campaign_a.json /tmp/air_campaign_b.json

# End-to-end self-profiler pass: run the example module under the default
# adaptive executive with the profiler attached, export the air-profile/1
# JSON and validate it (well-formedness, schema marker, step/batch/skip
# bucket ticks partitioning the requested horizon exactly, consistent
# probe accounting).
profile-smoke:
	dune build test/profile_smoke.exe
	dune exec bin/air_run.exe -- examples/configs/leo_satellite.air \
	  -t 20000 --speed --profile-json /tmp/air_profile.json
	dune exec test/profile_smoke.exe -- /tmp/air_profile.json 20000

# End-to-end parallel-fleet pass: advance the shipped constellation
# document sequentially and across 1, 2 and 4 OCaml domains, and require
# the four observations (Air.Observe: bus and every module's state,
# trace, telemetry, flows, spans and metrics) to be byte-identical — the
# conservative engine's bit-identity guarantee, enforced by the exit
# code, which names the first differing section (e.g. m3.metrics). Also
# lints the fleet's stats JSON.
fleet-smoke:
	dune build test/fleet_smoke.exe
	dune exec test/fleet_smoke.exe -- examples/configs/constellation.air 5000

# End-to-end interference pass: replay the bus-hog scenario against the
# example satellite sharded over two lanes, and validate the interference
# telemetry (throttled ticks on a partition other than the hog, JSON
# well-formedness) and the health-monitor discipline (temporal
# degradation exactly once per offending frame).
interference-smoke:
	dune build test/interference_smoke.exe
	dune exec test/interference_smoke.exe -- \
	  examples/configs/leo_satellite.air CAMERA

# End-to-end benchmark pass: one round of each shipped workload through
# the benchmark harness (bench/e2e), whose adaptive run must reproduce
# its per-tick or sequential-cluster fingerprint (campaigns: contained
# and reproducible). Fails unless every result line reads
# "correct": true, and unless the round's peak_rss_mb stays under the
# memory ceiling of leo (12 MB), leo-observed-2core (14 MB) and
# constellation (13 MB). Each module keeps the newest 16 384 events, the
# default retention, which holds them near 9.1, 11 and 10.7 MB; a return
# to whole traces by default fails here, since they took 16, 15 and 23 MB
# in byte-stream chunks (30, 24 and 56 MB as three ints per entry in
# int-array chunks, 61, 41 and 137 MB as a queue of boxed tuples).
e2e-smoke:
	dune build bench/e2e/e2e.exe
	@for w in leo:12 leo-observed-2core:14 constellation:13 campaign-sweep; do \
	  ceiling=$${w#*:}; w=$${w%:*}; \
	  line=$$(dune exec --display=quiet bench/e2e/e2e.exe -- \
	    --workload $$w --seconds 0 | tail -n 1); \
	  echo "$$w: $$line"; \
	  case "$$line" in \
	    *'"correct": true'*) ;; \
	    *) echo "e2e-smoke: $$w failed"; exit 1 ;; \
	  esac; \
	  test "$$ceiling" = "$$w" && continue; \
	  rss=$$(echo "$$line" | sed -n 's/.*"peak_rss_mb": {"value": \([0-9.]*\).*/\1/p'); \
	  awk -v rss="$$rss" -v max="$$ceiling" 'BEGIN { exit !(rss != "" && rss <= max) }' \
	    || { echo "e2e-smoke: $$w peak_rss_mb $$rss MB over $$ceiling MB"; exit 1; }; \
	done

# Configuration robustness pass: air_validate accepts the four shipped
# module documents and the two group documents. Three broken copies of
# leo_satellite.air (a zero MTF, a zero queue depth, two overlapping
# windows against eq. (21)) make both air_validate and air_run exit 1
# with a "PATH: …" diagnostic and no escaped exception. So does a copy of
# crosslink.air whose link names a gateway the platform module lacks
# (ATT_GWW): the diagnostic reads "PATH: air-cluster: …" and names the
# port, where air_run once ran the link dead. Flags only a module run
# reads (--check-trace, --metrics-json, --export, …) on crosslink.air make
# air_run exit 1 naming them, and write no file, where it once exited 0
# having checked and written nothing. A --domains or --watch below
# 1 is a usage error (exit 124), and a fleet run reports the domain count
# it ran on: --domains 13 over the 12-module constellation runs on 12,
# or on fewer when a warning says the machine recommends fewer.
SMOKE = _build/config-smoke
AIR_VALIDATE = $(CURDIR)/_build/default/bin/air_validate.exe
LEO = $(CONFIGS)/leo_satellite.air

config-smoke:
	dune build bin/air_validate.exe bin/air_run.exe
	@for doc in leo_satellite payload platform constellation_node \
	  crosslink constellation; do \
	  $(AIR_VALIDATE) $(CONFIGS)/$$doc.air > /dev/null || exit 1; \
	done
	@mkdir -p $(SMOKE)
	@sed 's/(mtf 2000)/(mtf 0)/' $(LEO) > $(SMOKE)/mtf0.air
	@sed 's/(depth 8)/(depth 0)/' $(LEO) > $(SMOKE)/depth0.air
	@sed 's/(offset 150) (duration 350)/(offset 100) (duration 350)/' \
	  $(LEO) > $(SMOKE)/overlap.air
	@for doc in mtf0 depth0 overlap; do \
	  for tool in $(AIR_VALIDATE) $(AIR_RUN); do \
	    $$tool $(SMOKE)/$$doc.air > $(SMOKE)/out 2>&1; code=$$?; \
	    if [ $$code -ne 1 ] \
	      || ! grep -q "^$(SMOKE)/$$doc.air: " $(SMOKE)/out \
	      || grep -q 'uncaught exception' $(SMOKE)/out; then \
	      echo "config-smoke: $$(basename $$tool) $$doc.air exited $$code:"; \
	      cat $(SMOKE)/out; exit 1; \
	    fi; \
	    echo "$$(basename $$tool) $$doc.air: $$(grep -m1 "^$(SMOKE)/" $(SMOKE)/out)"; \
	  done; \
	done
	@cp $(CONFIGS)/platform.air $(CONFIGS)/payload.air $(SMOKE)/
	@sed 's/(from platform ATT_GW)/(from platform ATT_GWW)/' \
	  $(CONFIGS)/crosslink.air > $(SMOKE)/gateway.air
	@for tool in $(AIR_VALIDATE) $(AIR_RUN); do \
	  $$tool $(SMOKE)/gateway.air > $(SMOKE)/out 2>&1; code=$$?; \
	  if [ $$code -ne 1 ] \
	    || ! grep -q "^$(SMOKE)/gateway.air: air-cluster: .*ATT_GWW" \
	      $(SMOKE)/out \
	    || grep -q 'uncaught exception' $(SMOKE)/out; then \
	    echo "config-smoke: $$(basename $$tool) gateway.air exited $$code:"; \
	    cat $(SMOKE)/out; exit 1; \
	  fi; \
	  echo "$$(basename $$tool) gateway.air: $$(grep -m1 "^$(SMOKE)/" $(SMOKE)/out)"; \
	done
	@rm -f $(SMOKE)/m.json $(SMOKE)/t.trace
	@$(AIR_RUN) $(CONFIGS)/crosslink.air -t 200 --check-trace \
	  --metrics-json $(SMOKE)/m.json --export $(SMOKE)/t.trace \
	  > $(SMOKE)/out 2>&1; \
	  code=$$?; \
	  if [ $$code -ne 1 ] || [ -e $(SMOKE)/m.json ] || [ -e $(SMOKE)/t.trace ] \
	    || ! grep -q "^$(CONFIGS)/crosslink.air: --check-trace, --export, --metrics-json run against a module document$$" \
	      $(SMOKE)/out; then \
	    echo "config-smoke: module-only flags on crosslink.air exited $$code:"; \
	    cat $(SMOKE)/out; exit 1; \
	  fi; \
	  echo "air_run crosslink.air --check-trace: $$(cat $(SMOKE)/out)"
	@$(AIR_RUN) $(CONFIGS)/constellation.air --domains 0 > $(SMOKE)/out 2>&1; \
	  code=$$?; \
	  if [ $$code -ne 124 ] || ! grep -q -- "'--domains'" $(SMOKE)/out; then \
	    echo "config-smoke: --domains 0 exited $$code:"; \
	    cat $(SMOKE)/out; exit 1; \
	  fi
	@$(AIR_RUN) $(LEO) --watch 0 > $(SMOKE)/out 2>&1; \
	  code=$$?; \
	  if [ $$code -ne 124 ] || ! grep -q -- "'--watch'" $(SMOKE)/out; then \
	    echo "config-smoke: --watch 0 exited $$code:"; \
	    cat $(SMOKE)/out; exit 1; \
	  fi
	@$(AIR_RUN) $(CONFIGS)/constellation.air --domains 13 -t 200 \
	  > $(SMOKE)/out 2>&1; \
	  code=$$?; \
	  k=$$(sed -n 's/^warning: .* clamped to \([0-9]*\) .*/\1/p' $(SMOKE)/out); \
	  k=$${k:-12}; test "$$k" -gt 12 && k=12; \
	  if [ $$code -ne 0 ] \
	    || ! grep -q "^fleet ran 200 ticks on $$k domains*:" $(SMOKE)/out; then \
	    echo "config-smoke: --domains 13 exited $$code (expected $$k domains):"; \
	    cat $(SMOKE)/out; exit 1; \
	  fi
	@echo "config-smoke: ok"

# Byte-identity artifact set: every deterministic air_run export of the
# shipped documents, written under OUT, so two checkouts can be compared:
#   make artifacts OUT=/path/a      (in the first checkout)
#   make artifacts OUT=/path/b      (in the second)
#   diff -r /path/a /path/b
# Module documents: the event trace, metrics, Chrome trace and telemetry
# JSON/CSV at the default core count, --cores 1 and --cores 2, each with
# and without --no-skip, and one run printing every stdout view (flows,
# timeline, trace check, Gantt chart, trace tail) as <doc>.observe.stdout.
# Documents with (faults …): the campaign report at 1 and 2 cores.
# Cluster and fleet documents: the Chrome trace (the only file export
# they take) and the flows table. Each run's stdout is kept too, minus the
# fleet's wall-clock blocked time; runs start inside OUT with relative
# file names, so stdout does not depend on where OUT is.
# Exit 2 (module halted, campaign not contained) is a result, not an error.
OUT ?= _build/artifacts
AIR_RUN = $(CURDIR)/_build/default/bin/air_run.exe
CONFIGS = $(CURDIR)/examples/configs

artifacts:
	dune build --root . bin/air_run.exe
	mkdir -p $(OUT)
	cd $(OUT) && for doc in leo_satellite payload platform constellation_node; do \
	  for cores in default 1 2; do \
	    for skip in skip no-skip; do \
	      tag=$$doc.$$cores.$$skip; \
	      $(AIR_RUN) $(CONFIGS)/$$doc.air -t 20000 \
	        $$(test $$cores = default || echo --cores $$cores) \
	        $$(test $$skip = skip || echo --no-skip) \
	        --export $$tag.trace --metrics-json $$tag.metrics.json \
	        --trace-json $$tag.chrome.json \
	        --telemetry-json $$tag.telemetry.json \
	        --telemetry-csv $$tag.telemetry.csv \
	        > $$tag.stdout || test $$? -eq 2 || exit 1; \
	    done; \
	  done; \
	done
	cd $(OUT) && for doc in leo_satellite payload platform constellation_node; do \
	  $(AIR_RUN) $(CONFIGS)/$$doc.air -t 20000 --flows --timeline \
	    --check-trace --gantt --trace \
	    > $$doc.observe.stdout || test $$? -eq 2 || exit 1; \
	done
	cd $(OUT) && for doc in leo_satellite constellation_node; do \
	  for cores in 1 2; do \
	    $(AIR_RUN) $(CONFIGS)/$$doc.air --faults --cores $$cores \
	      --campaign-json $$doc.$$cores.campaign.json \
	      > $$doc.$$cores.campaign.stdout || test $$? -eq 2 || exit 1; \
	  done; \
	done
	cd $(OUT) && for doc in constellation crosslink; do \
	  $(AIR_RUN) $(CONFIGS)/$$doc.air -t 20000 --trace-json $$doc.chrome.json \
	    --flows > $$doc.out || test $$? -eq 2 || exit 1; \
	  sed 's/blocked [0-9.]*s/blocked -/' $$doc.out > $$doc.stdout; \
	  rm $$doc.out; \
	done
	@echo "artifacts: $$(ls $(OUT) | wc -l) files in $(OUT)"

# Byte identity against an earlier revision:
#   make artifacts-diff BASE=<rev>
# checks BASE out in a git worktree under _build, runs this Makefile's
# artifacts recipe in that tree and in this one, and fails unless
# `diff -r` finds no difference. The worktree is removed either way. The
# artifacts recipe builds with `--root .` because dune, started inside
# the worktree, would otherwise take this checkout as its root.
DIFF_DIR = $(CURDIR)/_build/artifacts-diff

artifacts-diff:
	@test -n "$(BASE)" || { echo "usage: make artifacts-diff BASE=<rev>"; exit 2; }
	rm -rf $(DIFF_DIR)
	git worktree prune
	git worktree add --detach $(DIFF_DIR)/tree $(BASE)
	@status=0; \
	$(MAKE) -f $(CURDIR)/Makefile -C $(DIFF_DIR)/tree artifacts \
	  OUT=$(DIFF_DIR)/base || status=1; \
	test $$status -ne 0 || $(MAKE) artifacts OUT=$(DIFF_DIR)/head || status=1; \
	test $$status -ne 0 || diff -r $(DIFF_DIR)/base $(DIFF_DIR)/head || status=1; \
	git worktree remove --force $(DIFF_DIR)/tree; \
	if [ $$status -eq 0 ]; then \
	  echo "artifacts-diff: $$(ls $(DIFF_DIR)/head | wc -l) files identical to $(BASE)"; \
	else echo "artifacts-diff: differs from $(BASE) (or failed)"; fi; \
	exit $$status

clean:
	dune clean
