#!/usr/bin/env bash
# Byte-identity check for changes that must not move any artifact.
#
# Builds two checkouts of this repository, release and release with
# `--features audit`, runs the same command set with each in fresh
# directories, and compares every pair of directories with `diff -r`:
#
#   verify --seed 7 --metrics-out m.json --deterministic-metrics
#                                    (at --jobs 1 and at --jobs 4)
#   faults --seed 42
#   serve --seed 7
#   overload --seed 7
#   fig16 fig17                      (DRAM calibration at 1-64 DIMMs
#                                     and 1-4 ranks per DIMM)
#   audit --jobs 4                   (the audit build)
#
# Each directory holds what the command wrote (results/, m.json) and
# its stdout. No file there carries wall-clock data, so a deterministic
# refactor leaves every pair equal.
#
# Usage: scripts/byte_identity.sh <parent-checkout> [<change-checkout>]
#
# <change-checkout> defaults to the checkout holding this script. The
# plain build goes to each checkout's target/, the audit build to
# target/byte-identity-audit/. Exits 1 if any pair differs.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <parent-checkout> [<change-checkout>]" >&2
    exit 2
fi
PARENT=$(readlink -f "$1")
CHANGE=$(readlink -f "${2:-$(dirname "$0")/..}")

build() {
    local dir=$1
    cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" \
        -p experiments --bin metanmp-experiments
    cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" \
        -p experiments --bin metanmp-experiments --features audit \
        --target-dir "$dir/target/byte-identity-audit"
}

work=$(mktemp -d "${TMPDIR:-/tmp}/byte-identity.XXXXXX")
trap 'rm -rf "$work"' EXIT

# name | build (plain or audit) | arguments
CASES=(
    "verify-jobs1|plain|verify --seed 7 --metrics-out m.json --deterministic-metrics --jobs 1"
    "verify-jobs4|plain|verify --seed 7 --metrics-out m.json --deterministic-metrics --jobs 4"
    "faults|plain|faults --seed 42"
    "serve|plain|serve --seed 7"
    "overload|plain|overload --seed 7"
    "fig16-fig17|plain|fig16 fig17"
    "audit|audit|audit --jobs 4"
)

for side in parent change; do
    if [ "$side" = parent ]; then dir=$PARENT; else dir=$CHANGE; fi
    echo "== building $side ($dir)"
    build "$dir"
    for case in "${CASES[@]}"; do
        IFS='|' read -r name flavor args <<<"$case"
        if [ "$flavor" = audit ]; then
            bin=$dir/target/byte-identity-audit/release/metanmp-experiments
        else
            bin=$dir/target/release/metanmp-experiments
        fi
        out=$work/$side/$name
        mkdir -p "$out"
        echo "   $side: $args"
        # shellcheck disable=SC2086  # the arguments split on purpose
        (cd "$out" && "$bin" $args >stdout.txt)
    done
done

status=0
for case in "${CASES[@]}"; do
    name=${case%%|*}
    if diff -r "$work/parent/$name" "$work/change/$name"; then
        echo "same:    $name"
    else
        echo "DIFFERS: $name"
        status=1
    fi
done
exit $status
