#!/usr/bin/env bash
# Regenerates every table and figure of the paper and stores the logs under
# results/. Knobs: RACESIM_SCALE (default 512), RACESIM_BUDGET (default 12000);
# `ablations` ignores them (its constants are fixed).
set -euo pipefail

cargo build --release -p racesim-bench

mkdir -p results
for exp in table1 table2 fig2_race fig4 fig5 fig6 fig7 fig8 ablations; do
    echo "=== running $exp ==="
    ./target/release/$exp | tee "results/$exp.log"
done
echo "all experiment logs and CSVs are under results/"
