#!/usr/bin/env sh
# Campaign smoke check (ctest -L campaign): a small fixed-seed sweep over all
# campaign targets must end with every verdict met — clean targets clean,
# seeded-buggy targets caught, every shrunk tape replay-verified — and must
# emit a schema-valid efd-campaign-farm-v1 "final" record (checked with
# bench_diff.py --validate when python3 is available). Small N keeps this
# fast enough to run under EFD_SANITIZE=address/thread builds, where the full
# sweep would not be.
#
# usage: campaign_smoke.sh <efd_campaign-binary> [workdir]
set -eu

campaign="$1"
work="${2:-$(mktemp -d)}"
script_dir="$(cd "$(dirname "$0")" && pwd)"
rm -rf "$work"
mkdir -p "$work"
out="$work/campaign_smoke.json"

# Exit 0 is the verdict line: nonzero means a clean target violated or a
# seeded bug escaped. The torn-commit target (tw) is excluded: its bug fires
# in only ~4% of plans, so a seeded 8-plan sweep cannot reliably catch it —
# it is covered by test_campaign's checker tests and the full E15 sweep.
"$campaign" run --seed 42 --plans 8 --save-dir "$work/pending" --out "$out" \
  --target cons --target ksa --target ren --target p1c \
  --target synth --target bcf --target brn

grep -q '"schema": "efd-campaign-farm-v1"' "$out" || {
  echo "FAIL: $out is not an efd-campaign-farm-v1 record" >&2
  exit 1
}
grep -q '"mode": "final"' "$out" || {
  echo "FAIL: $out is not the final farm record" >&2
  exit 1
}
grep -q '"target": "cons"' "$out" || {
  echo "FAIL: $out is missing the consensus target" >&2
  exit 1
}

if command -v python3 >/dev/null 2>&1; then
  python3 "$script_dir/bench_diff.py" --validate "$out"
fi

# Novel findings of the seeded-buggy targets must be stored as corpus tapes
# carrying the plan provenance line.
found=0
for tape in "$work"/pending/*.tape; do
  [ -e "$tape" ] || continue
  found=1
  head -1 "$tape" | grep -q '^efd-tape-v1$' || {
    echo "FAIL: $tape is not an efd-tape-v1 artifact" >&2
    exit 1
  }
done
if [ "$found" = "0" ]; then
  echo "FAIL: the seeded-buggy targets produced no violation tapes" >&2
  exit 1
fi
grep -lq '^plan plan-v1' "$work"/pending/*.tape || {
  echo "FAIL: no violation tape carries a plan provenance line" >&2
  exit 1
}
grep -lq '^finding ' "$work"/pending/*.tape || {
  echo "FAIL: no violation tape carries a finding verdict line" >&2
  exit 1
}

# An unwritable save-dir must fail up front with the distinct IO exit code
# (7), not silently drop tapes plan by plan. A plain file blocks the
# create_directories call on every platform, root or not.
touch "$work/not_a_dir"
rc=0
"$campaign" run --seed 42 --plans 1 --target cons \
  --save-dir "$work/not_a_dir/pending" --out "$work/unused.json" 2>/dev/null || rc=$?
if [ "$rc" != "7" ]; then
  echo "FAIL: malformed save-dir exited $rc, want 7" >&2
  exit 1
fi

echo "campaign smoke ok: $out"
