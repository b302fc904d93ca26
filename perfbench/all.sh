#!/bin/sh
# Run every workload once, each in a fresh process, from the root of a hitkit checkout:
#   sh perfbench/all.sh [seed] [seconds] [trace]
set -e
for workload in train-clf embed generate; do
    python3 perfbench/run.py --workload "$workload" --seed "${1:-0}" --seconds "${2:-25}" --trace "${3:-0}"
done
