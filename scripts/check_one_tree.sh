#!/usr/bin/env bash
# Attribution gate: EXPLAIN ANALYZE has one tree, the query's span tree
# (src/base/trace.h). A span opened under a collecting span is a
# ProfileNode; its label and counters are set through the span
# (TraceSpan::SetLabel / AddCounter). Code outside src/base/ that builds a
# ProfileNode by hand, or writes counters into one, starts a second,
# parallel attribution tree; this gate fails the build when one appears.
#
# Fails when, in src/:
#   * ProfileSink (the removed hand-built round collector) is named at all;
#   * outside src/base/, ProfileNode is named other than as
#     std::optional<ProfileNode> or const ProfileNode& (a read-only view of
#     a collected tree);
#   * outside src/base/, AddCounter is called on anything but a span
#     (a receiver named `span` or `*_span`).
#
# Usage: scripts/check_one_tree.sh [repo-root]
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
src="$root/src"

sinks="$(grep -rn --include='*.cc' --include='*.h' 'ProfileSink' "$src")"

nodes="$(grep -rn --include='*.cc' --include='*.h' 'ProfileNode' "$src" |
  grep -v "^$src/base/" |
  sed -E 's/std::optional<ProfileNode>//g; s/const ProfileNode&//g' |
  grep 'ProfileNode')"

counters="$(grep -rn --include='*.cc' --include='*.h' 'AddCounter' "$src" |
  grep -v "^$src/base/" |
  sed -E 's/(^|[^A-Za-z0-9_])([a-z0-9_]*_)?span\.AddCounter\(//g' |
  grep 'AddCounter')"

status=0
for finding in "$sinks" "$nodes" "$counters"; do
  if [ -n "$finding" ]; then
    printf '%s\n' "${finding//"$root"\//}" >&2
    status=1
  fi
done
if [ "$status" != 0 ]; then
  echo "check_one_tree: hand-built attribution outside the span tree." >&2
  echo "Open a TraceSpan for the stage and set its label and counters" >&2
  echo "with SetLabel / AddCounter (src/base/trace.h) instead." >&2
  exit 1
fi
echo "check_one_tree: ok (ProfileNodes built only by spans in src/base/)"
