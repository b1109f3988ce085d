#!/usr/bin/env bash
# benchmark/repeat.sh N — run N untraced sets of every workload (seeds
# 1..N) and print, per metric × workload, the quartiles, the median and
# their spread as a share of the median beside the metric's bound.
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --repeat "${1:-5}"
