#!/usr/bin/env bash
# Builds everything, runs the full test suite, regenerates every figure,
# and leaves test_output.txt / bench_output.txt in the repository root
# and the figure report in results/figures.json.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# Every Section 5 figure through the one figure driver; the JSON report
# lands in results/figures.json, the per-point summary in bench_output.txt.
mkdir -p results
build/tools/hamband_bench_report --figures paper --out results/figures.json \
  2>&1 | tee bench_output.txt

echo
echo "Examples:"
for e in build/examples/*; do
  echo "===== $e ====="
  "$e"
done

echo
echo "Coordination analysis of every registered type:"
build/tools/hamband_analyze all
