#!/usr/bin/env bash
# Compares the `fingerprint` line fleetbench prints for each gated
# workload (`--smoke`, seed 7) with the line pinned for it in
# .github/fleetbench-fingerprints. A fingerprint counts hops,
# migrations, admissions and refusals and hashes the final Φ and state,
# so any change of a decision fails here. A change meant to move
# decisions updates the pinned lines and says why.
#
# Usage: .github/check-fingerprints.sh [path to a release fleetbench]
set -euo pipefail
pinned="$(dirname "$0")/fleetbench-fingerprints"
bin="${1:-target/release/fleetbench}"
status=0
while read -r workload want; do
  got=$("$bin" --workload "$workload" --smoke --seed 7 </dev/null | sed -n 's/^ *fingerprint //p')
  if [ "$got" != "$want" ]; then
    echo "$workload: the fleetbench fingerprint moved" >&2
    echo "  pinned: $want" >&2
    echo "  now:    $got" >&2
    status=1
  fi
done <"$pinned"
exit "$status"
