# womcpcm build/verify entry points. `make verify` is the tier-1 gate
# (build + test); `make race` and `make fuzz` are the deeper checks the
# service subsystem relies on.

GO ?= go
FUZZTIME ?= 30s

.PHONY: all build test vet fmt-check race fuzz bench bench-probe tenants-smoke alerts-smoke history-smoke verify clean

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Round-trip fuzzing of the trace codecs womd exposes to uploads and of
# segment replay over arbitrary bytes (resultstore and tsdb logs).
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzTrace -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzReplay -fuzztime=$(FUZZTIME) ./internal/seglog/

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

# End-to-end multi-tenant check: womd -tenants, a few curl submissions
# counted in womd_tenant_admitted_total, SIGHUP reload exercised.
tenants-smoke:
	scripts/tenants_smoke.sh

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

# Fails listing the files gofmt would rewrite; CI runs this on every push.
fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

verify: build test vet fmt-check

clean:
	$(GO) clean ./...
