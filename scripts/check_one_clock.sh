#!/usr/bin/env bash
# Instrumentation gate: the engine has one stopwatch, the trace span
# (src/base/trace.h). Every wall time it reports — EXPLAIN's stage times,
# ProfileNode::inclusive_us, the query log's elapsed_seconds — is the
# elapsed time of the span covering that stage, so a stage's time and its
# trace event are one measurement. A monotonic-clock read anywhere else in
# src/ starts a second, parallel timer; this gate fails the build when one
# appears.
#
# Allowlist:
#   src/base/trace.{h,cc}    — the span's clock (Tracer::NowMicros)
#   src/base/resource.{h,cc} — the governor's deadline: a budget the query
#                              runs against, not instrumentation.
#
# Usage: scripts/check_one_clock.sh [repo-root]
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
allowlist=("src/base/trace.h" "src/base/trace.cc"
           "src/base/resource.h" "src/base/resource.cc")

offenders="$(grep -rn --include='*.cc' --include='*.h' \
    -e 'steady_clock' -e 'high_resolution_clock' "$root/src" |
  { while IFS= read -r line; do
      rel="${line#"$root"/}"
      file="${rel%%:*}"
      allowed=0
      for ok in "${allowlist[@]}"; do
        [ "$file" = "$ok" ] && allowed=1 && break
      done
      [ "$allowed" = 0 ] && printf '%s\n' "$rel"
    done; })"

if [ -n "$offenders" ]; then
  echo "check_one_clock: monotonic clock read outside the span clock:" >&2
  printf '%s\n' "$offenders" >&2
  echo "Time the stage with a TraceSpan (src/base/trace.h) and read its" >&2
  echo "ElapsedUs() instead." >&2
  exit 1
fi
echo "check_one_clock: ok (monotonic clock confined to: ${allowlist[*]})"
