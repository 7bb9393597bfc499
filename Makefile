# Common developer targets.

.PHONY: install test bench chaos serve obs experiments examples all

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

chaos:
	python -m repro chaos --quick

serve:
	python -m repro serve bench --requests 400 --verify all

# Observability smoke: chaos crash -> parseable flight-recorder dump,
# and an SLO-gated span-traced serving replay.
obs:
	python -m repro chaos --quick --flight-recorder /tmp/obs_flight.json
	python -m repro obs postmortem /tmp/obs_flight.json
	python -m repro obs export /tmp/obs_flight.json --out /tmp/obs_flight_trace.json
	python -m repro serve bench --requests 400 --verify none \
		--spans /tmp/obs_spans.json --report-json /tmp/obs_report.json \
		--slo "ttft_p99<=200" --slo "latency_p99<=400"
	python -m repro obs spans /tmp/obs_spans.json --limit 3
	python -m repro obs slo /tmp/obs_report.json --objective "ttft_p99<=200"

# Regenerate every paper table/figure into results/ (the committed
# results/*.json; tests/test_results_current.py checks they are current).
experiments:
	python -m repro experiment table1 --json results
	python -m repro experiment table2 --json results
	python -m repro experiment table3 --json results
	python -m repro experiment figure1 --json results
	python -m repro experiment figure8_9 --json results
	python -m repro experiment figure10 --json results
	python -m repro experiment figure11 --json results
	python -m repro experiment figure12 --json results
	python -m repro experiment figure13 --json results
	python -m repro experiment figure14 --json results
	python -m repro experiment scaling_study --json results
	python -m repro experiment hardware_sensitivity --json results

examples:
	for f in examples/*.py; do python $$f; done

all: test bench
