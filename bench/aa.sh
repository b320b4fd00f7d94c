#!/usr/bin/env bash
# A/A check: two full sets of the same code, back to back, must agree within
# the benchmark's own bounds in both directions, with no pair unresolved.
#   bash bench/aa.sh [seconds-per-workload]
set -euo pipefail
seconds="${1:-20}"
bash bench/run.sh -seconds "$seconds" -out bench/out/aa-a
bash bench/run.sh -seconds "$seconds" -out bench/out/aa-b
bash bench/run.sh -compare bench/out/aa-a/records.json bench/out/aa-b/records.json
bash bench/run.sh -compare bench/out/aa-b/records.json bench/out/aa-a/records.json
