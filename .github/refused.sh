#!/usr/bin/env bash
# Run a command that must refuse its input, and hold it to the refusal
# contract: exit status 1, "invalid input" on stderr, no Python traceback, and
# no output file left behind.
#
#   bash .github/refused.sh OUTPUT COMMAND [ARG...]
#
# OUTPUT is the path the command must not leave behind. The command's stderr is
# printed on standard output, so a caller can check it for more; a broken
# clause is named on standard error and the script exits 1.
set -u
if [ "$#" -lt 2 ]; then
  echo "usage: refused.sh OUTPUT COMMAND [ARG...]" >&2
  exit 2
fi
out=$1
shift
err=$(mktemp)
trap 'rm -f "$err"' EXIT
rc=0
"$@" 2> "$err" || rc=$?
cat "$err"
command_line="$*"
fail() {
  echo "refused.sh: $1, running: $command_line" >&2
  exit 1
}
[ "$rc" -eq 1 ] || fail "exit status $rc, not 1"
grep -q "invalid input" "$err" || fail "no 'invalid input' on stderr"
if grep -q Traceback "$err"; then
  fail "a Python traceback on stderr"
fi
[ ! -e "$out" ] || fail "$out was left behind"
