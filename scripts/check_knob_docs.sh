#!/usr/bin/env bash
# Knob documentation gate: the CCDB_* environment variables that
# EngineConfig::FromEnv parses (src/base/config.cc) must be exactly the
# rows of README's Configuration table (lines starting "| `CCDB_"). A knob
# added, renamed or deleted on one side without the other fails the build.
#
# Usage: scripts/check_knob_docs.sh [repo-root]
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

parsed="$(grep -o 'getenv("CCDB_[A-Z0-9_]*")' "$root/src/base/config.cc" |
  sed 's/getenv("\(.*\)")/\1/' | sort -u)"
documented="$(grep -o '^| `CCDB_[A-Z0-9_]*`' "$root/README.md" |
  sed 's/^| `\(.*\)`/\1/' | sort -u)"

if [ -z "$parsed" ]; then
  echo "check_knob_docs: no CCDB_* knobs found in src/base/config.cc" >&2
  exit 1
fi
if [ "$parsed" != "$documented" ]; then
  echo "check_knob_docs: src/base/config.cc and README's Configuration table disagree:" >&2
  diff <(printf '%s\n' "$parsed") <(printf '%s\n' "$documented") |
    sed -n 's/^< /  parsed, not documented: /p; s/^> /  documented, not parsed: /p' >&2
  exit 1
fi
echo "check_knob_docs: ok ($(printf '%s\n' "$parsed" | wc -l | tr -d ' ') knobs)"
