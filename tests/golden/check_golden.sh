#!/usr/bin/env sh
# Runs a command in a fresh process and compares the JSON tail of its
# stdout (everything from the first line that is exactly "{") against a
# committed golden file, byte for byte.
#
# Usage: check_golden.sh GOLDEN CMD [ARGS...]
# With GPLUS_REGEN_GOLDEN=1 the golden file is rewritten instead; do that
# only after an intentional change to metric names or counts.
set -eu

golden="$1"
shift
tmp="${TMPDIR:-/tmp}/gplus_golden_$$"
trap 'rm -f "$tmp.raw" "$tmp.json"' EXIT

"$@" > "$tmp.raw"
sed -n '/^{$/,$p' "$tmp.raw" > "$tmp.json"

if [ -n "${GPLUS_REGEN_GOLDEN:-}" ]; then
  cp "$tmp.json" "$golden"
  echo "regenerated $golden"
  exit 0
fi
if ! cmp -s "$tmp.json" "$golden"; then
  echo "registry dump drifted from $golden:"
  diff "$golden" "$tmp.json" || true
  exit 1
fi
