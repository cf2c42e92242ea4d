.PHONY: all build test check bench bench-diff fmt exec-smoke trace-smoke \
  telemetry-smoke fault-smoke profile-smoke fleet-smoke \
  interference-smoke e2e-smoke artifacts clean

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
# (bench/diff.ml); nonzero exit on any regression beyond threshold.
bench-diff:
	dune exec bench/diff.exe -- BENCH_8.json BENCH_9.json

# Format gate: the build image carries no ocamlformat, so the gate enforces
# the cheap invariants every formatter run would — no tab characters and no
# trailing whitespace in OCaml sources or dune files.
fmt:
	@if grep -rnP '\t|[ \t]+$$' --include='*.ml' --include='*.mli' \
	  --include=dune lib bin test bench; then \
	  echo 'fmt: tabs or trailing whitespace (listed above)'; exit 1; \
	else echo 'fmt: clean'; fi

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
# document sequentially and across 2 and 4 OCaml domains, and require the
# three observable fingerprints (traces, counters, bus state) to be
# byte-identical — the conservative engine's bit-identity guarantee,
# enforced by the exit code. Also lints the fleet's stats JSON.
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
# "correct": true.
e2e-smoke:
	dune build bench/e2e/e2e.exe
	@for w in leo leo-observed-2core constellation campaign-sweep; do \
	  line=$$(dune exec --display=quiet bench/e2e/e2e.exe -- \
	    --workload $$w --seconds 0 | tail -n 1); \
	  echo "$$w: $$line"; \
	  case "$$line" in \
	    *'"correct": true'*) ;; \
	    *) echo "e2e-smoke: $$w failed"; exit 1 ;; \
	  esac; \
	done

# Byte-identity artifact set: every deterministic air_run export of the
# shipped documents, written under OUT, so two checkouts can be compared:
#   make artifacts OUT=/path/a      (in the first checkout)
#   make artifacts OUT=/path/b      (in the second)
#   diff -r /path/a /path/b
# Module documents: the event trace, metrics, Chrome trace and telemetry
# JSON/CSV at the default core count, --cores 1 and --cores 2, each with
# and without --no-skip. Documents with (faults …): the campaign report at
# 1 and 2 cores. Cluster and fleet documents: the Chrome trace (the only
# file export they take). Each run's stdout is kept too, minus the fleet's
# wall-clock blocked time; runs start inside OUT with relative file names,
# so stdout does not depend on where OUT is.
# Exit 2 (module halted, campaign not contained) is a result, not an error.
OUT ?= _build/artifacts
AIR_RUN = $(CURDIR)/_build/default/bin/air_run.exe
CONFIGS = $(CURDIR)/examples/configs

artifacts:
	dune build bin/air_run.exe
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
	cd $(OUT) && for doc in leo_satellite constellation_node; do \
	  for cores in 1 2; do \
	    $(AIR_RUN) $(CONFIGS)/$$doc.air --faults --cores $$cores \
	      --campaign-json $$doc.$$cores.campaign.json \
	      > $$doc.$$cores.campaign.stdout || test $$? -eq 2 || exit 1; \
	  done; \
	done
	cd $(OUT) && for doc in constellation crosslink; do \
	  $(AIR_RUN) $(CONFIGS)/$$doc.air -t 20000 --trace-json $$doc.chrome.json \
	    > $$doc.out || test $$? -eq 2 || exit 1; \
	  sed 's/blocked [0-9.]*s/blocked -/' $$doc.out > $$doc.stdout; \
	  rm $$doc.out; \
	done
	@echo "artifacts: $$(ls $(OUT) | wc -l) files in $(OUT)"

clean:
	dune clean
