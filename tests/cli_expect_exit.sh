#!/bin/sh
# usage: cli_expect_exit.sh <code> <command> [args...]
#
# Runs the command and passes only when it exits with exactly <code>:
# a crash (signal) or a different failure code fails the test, unlike
# ctest's WILL_FAIL, which accepts any nonzero exit.
want=$1
shift
"$@"
rc=$?
if [ "$rc" -ne "$want" ]; then
    echo "expected exit $want, got $rc from: $*" >&2
    exit 1
fi
