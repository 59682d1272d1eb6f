#!/bin/sh
# Repository check: the tier-1 test suite, the smoke and differential
# re-runs, the examples, the paper reproduction and the benchmark's own
# tests.  CI runs this script and nothing else.
#
# Tier-1 (must stay green):     PYTHONPATH=src python -m pytest -x -q
#
# Speed is measured by perfbench alone (BENCHMARK.json): alternating
# parent/change pairs of `python3 perfbench/run.py` (see docs/PERF.md).
set -e
cd "$(dirname "$0")/.."

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "== tier-1: pytest =="
python -m pytest -x -q

echo "== fuzz smoke: fixed-seed coverage-guided canary =="
python -m pytest -q -m fuzz_smoke

echo "== debug-server smoke: spawn, session, run, trace, shutdown =="
python -m pytest -q -m debug_smoke

echo "== chaos smoke: fixed-seed host-fault injection, golden bytes =="
python -m pytest -q -m chaos_smoke

echo "== batch smoke: lane-vs-from-reset byte-identity canary =="
python -m pytest -q -m batch_smoke

echo "== examples smoke: every examples/*.py exits 0 =="
for example in examples/*.py; do
    echo "-- $example"
    python "$example" > /dev/null
done

echo "== block-cache differential under REPRO_FORCE_DEOPT=1 =="
REPRO_FORCE_DEOPT=1 python -m pytest -q -m blockcache

echo "== block-cache differential under REPRO_NO_BLOCKCACHE=1 =="
REPRO_NO_BLOCKCACHE=1 python -m pytest -q -m blockcache

echo "== paper reproduction: benchmarks/ suite, outputs byte-stable =="
python -m pytest -q benchmarks
git diff --exit-code -- benchmarks/out

echo "== benchmark self-tests: perfbench =="
python3 -m pytest perfbench -q
