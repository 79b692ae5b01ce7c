#!/usr/bin/env bash
# Committed mutants: each `tests/mutants/NAME.patch` breaks one condition a
# test exists to guard, and names that test in `# target: CARGO-TEST-ARGS`
# header lines. For every patch this script applies it to the checkout,
# builds and runs each named target, expects every one to fail, and reverts
# the patch. It exits non-zero when a named target fails on the unpatched
# checkout, a patch does not apply, a mutant does not build, or a named
# target passes with the mutant in place.
#
#   tests/mutants/run.sh              # every patch
#   tests/mutants/run.sh NAME.patch   # selected patches (paths or names)
#
# The patches touch the working tree, so run it on a clean checkout.
set -u
cd "$(git rev-parse --show-toplevel)"
dir=tests/mutants
if [ $# -gt 0 ]; then
  patches=()
  for p in "$@"; do patches+=("$dir/$(basename "$p")"); done
else
  patches=("$dir"/*.patch)
fi

applied=""
revert() { [ -n "$applied" ] && git apply -R "$applied" && applied=""; }
trap revert EXIT INT TERM

# A target that already fails would count every mutant as killed.
failures=0
while read -r target; do
  # shellcheck disable=SC2086 # the target is a list of cargo arguments
  if ! cargo test -q $target >/dev/null 2>&1; then
    echo "baseline: $target FAILS without a mutant"; failures=$((failures + 1))
  fi
done < <(sed -n 's/^# target: //p' "${patches[@]}" | sort -u)
[ "$failures" -eq 0 ] || exit 1

for patch in "${patches[@]}"; do
  name=$(basename "$patch" .patch)
  mapfile -t targets < <(sed -n 's/^# target: //p' "$patch")
  if [ ${#targets[@]} -eq 0 ]; then
    echo "mutant $name: FAILED (no '# target:' line)"; failures=$((failures + 1)); continue
  fi
  if ! git apply "$patch"; then
    echo "mutant $name: FAILED (does not apply)"; failures=$((failures + 1)); continue
  fi
  applied=$patch
  for target in "${targets[@]}"; do
    # shellcheck disable=SC2086 # the target is a list of cargo arguments
    if ! cargo test -q $target --no-run >/dev/null 2>&1; then
      echo "mutant $name: FAILED (does not build for $target)"; failures=$((failures + 1))
    elif cargo test -q $target >/dev/null 2>&1; then
      echo "mutant $name: SURVIVED $target"; failures=$((failures + 1))
    else
      echo "mutant $name: killed by $target"
    fi
  done
  revert
done
echo "$failures mutant check(s) failed"
[ "$failures" -eq 0 ]
