#!/usr/bin/env bash
# Run every figure-reproduction bench and record the output, then splice
# the results into EXPERIMENTS.md. train_epoch also writes
# BENCH_train.json at the repo root.
#
#   scripts/run_benches.sh [build-dir]
#
# Scale knobs (see bench/bench_common.hpp):
#   NEUROPLAN_TOPOS=ABC        restrict preset topologies
#   NEUROPLAN_EPOCHS=256       override RL epochs everywhere
#   NEUROPLAN_SEED=7           RL / workload seed
#   NEUROPLAN_ILP_TIME=300     exact-ILP budget (seconds)
#   NEUROPLAN_STAGE2_TIME=180  second-stage budget (seconds)
set -euo pipefail

build_dir="${1:-build}"
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/bench_output.txt"

: > "$out"
for b in "$root/$build_dir"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "===== $b ====="
  echo "===== $b =====" >> "$out"
  case "$(basename "$b")" in
    train_epoch) "$b" "$root/BENCH_train.json" 2>&1 | tee -a "$out" ;;
    *) "$b" 2>&1 | tee -a "$out" ;;
  esac
  echo >> "$out"
done

python3 "$root/scripts/update_experiments.py"
echo "wrote $out and refreshed EXPERIMENTS.md"
