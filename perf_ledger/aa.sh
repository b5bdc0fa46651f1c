#!/usr/bin/env bash
# A/A check of the benchmark on one commit: two sets of runs (default: ten
# seeds per workload per set, plus one traced run each), the second set in
# reverse workload order. Prints, per end-to-end metric x workload, the
# quartile spread of each set and the drift of the second median from the
# first against the metric's bound; exits non-zero on any breach.
#
#   perf_ledger/aa.sh                    # the full procedure (~40 min)
#   perf_ledger/aa.sh --runs 3           # a quick look
#   perf_ledger/aa.sh --write-baseline   # also rewrite BASELINE.md + baseline.json
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --quiet --release --offline --manifest-path perf_ledger/Cargo.toml -- --aa "$@"
