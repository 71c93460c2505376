# womcpcm build/verify entry points. `make verify` is the tier-1 gate
# (build + test); `make race` and `make fuzz` are the deeper checks the
# service subsystem relies on.

GO ?= go
FUZZTIME ?= 30s

.PHONY: all build test vet fmt-check race fuzz bench bench-probe cluster-smoke cluster-demo loadgen-smoke alerts-smoke history-smoke verify clean

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Round-trip fuzzing of the trace codecs womd exposes to uploads, of
# segment replay over arbitrary bytes (resultstore and tsdb logs), and of
# the exposition parser federation runs on worker /metrics text.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzTrace -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzReplay -fuzztime=$(FUZZTIME) ./internal/seglog/
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/metrics/

bench:
	$(GO) test -run=NONE -bench=. -benchmem .

# Probe overhead benchmarks: RunNilProbe is the zero-overhead baseline the
# instrumentation contract promises (compare against Counter/Telemetry). The
# event loop itself is allocation-free, so RunNilProbe's allocs/op counts
# controller construction only. ReplayTelemetry prices the telemetry plane
# at the paper's geometry: a replay job's four runs without and with it.
bench-probe:
	$(GO) test -run=NONE -bench=Probe -benchmem ./internal/memctrl/
	$(GO) test -run=NONE -bench=ReplayTelemetry -benchmem ./internal/sim/

# End-to-end cluster check against real processes: coordinator + worker on
# localhost, one job over the wire, asserted to have run on the worker.
cluster-smoke:
	scripts/cluster_smoke.sh

# End-to-end multi-tenant load check: womd -tenants + womtool loadgen over
# a short Poisson run, interactive SLO asserted, SIGHUP reload exercised.
# The womcpcm-loadgen-v1 report lands at ./loadgen-report.json.
loadgen-smoke:
	scripts/loadgen_smoke.sh

# End-to-end alerting check: standalone womd with an aggressive rules
# file, queue saturated with slow jobs, /readyz 503 + firing queue-hot
# alert + womd_alert_* families asserted. The firing alert list lands at
# ./alerts-smoke.json.
alerts-smoke:
	scripts/alerts_smoke.sh

# End-to-end metric-history check: womd with a persistent -history-dir,
# query_range + series + alert journal asserted, restart continuity with
# the journaled alert reinstalled, and a womtool graph dashboard rendered
# to ./history-smoke.html.
history-smoke:
	scripts/history_smoke.sh

# Interactive cluster on localhost: coordinator on :8080, two workers on
# :8081/:8082. Submit jobs to http://127.0.0.1:8080/v1/jobs and watch
# /cluster/v1/workers; Ctrl-C tears the fleet down.
cluster-demo:
	@$(GO) build -o /tmp/womd-demo ./cmd/womd; \
	/tmp/womd-demo -role=worker -addr :8081 -coordinator http://127.0.0.1:8080 -cluster-name demo-a & W1=$$!; \
	/tmp/womd-demo -role=worker -addr :8082 -coordinator http://127.0.0.1:8080 -cluster-name demo-b & W2=$$!; \
	trap "kill $$W1 $$W2 2>/dev/null" EXIT INT TERM; \
	/tmp/womd-demo -role=coordinator -addr :8080

# Fails listing the files gofmt would rewrite; CI runs this on every push.
fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

verify: build test vet fmt-check

clean:
	$(GO) clean ./...
