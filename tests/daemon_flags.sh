#!/usr/bin/env bash
# Daemon flag validation (ctest: daemon_flags): qtserved and qtrouterd
# refuse bad flag values before they bind a socket.
#
#   - an out-of-range port, --max-hot/--workers/--max-queue below 1,
#     a negative count or one that overflows its field, and the retired
#     checkpoint flags are usage errors: exit 2, like any unknown flag;
#   - a malformed number (--port=abc) aborts in CliFlags instead of
#     parsing as 0 and binding a random port.
#
# Each daemon runs under a short timeout, so one that wrongly starts
# serving shows up as exit 124 instead of hanging the test.
#
# Usage: daemon_flags.sh <qtserved> <qtrouterd>
set -uo pipefail

QTSERVED="$1"
QTROUTERD="$2"
failures=0

run() {
  local rc=0
  timeout 5 "$@" >/dev/null 2>&1 || rc=$?
  echo "$rc"
}

expect_usage_error() {
  local rc
  rc=$(run "$@")
  if [ "$rc" -ne 2 ]; then
    echo "daemon_flags: expected exit 2, got $rc: $*"
    failures=$((failures + 1))
  fi
}

expect_refused() {
  local rc
  rc=$(run "$@")
  if [ "$rc" -eq 0 ] || [ "$rc" -eq 124 ] || [ "$rc" -eq 2 ]; then
    echo "daemon_flags: expected an abort, got $rc: $*"
    failures=$((failures + 1))
  fi
}

expect_usage_error "$QTSERVED" --port=70000
expect_usage_error "$QTSERVED" --port=-1
expect_usage_error "$QTSERVED" --port=0 --http-port=70000
expect_usage_error "$QTSERVED" --port=0 --max-hot=0
expect_usage_error "$QTSERVED" --port=0 --workers=0
expect_usage_error "$QTSERVED" --port=0 --workers=-1
expect_usage_error "$QTSERVED" --port=0 --workers=4294967296
expect_usage_error "$QTSERVED" --port=0 --max-queue=0
expect_usage_error "$QTSERVED" --port=0 --max-queue=-1
expect_usage_error "$QTSERVED" --port=0 --flight-capacity=-1
expect_usage_error "$QTSERVED" --port=0 --sync-park
expect_usage_error "$QTSERVED" --port=0 --park-format=v2
expect_usage_error "$QTSERVED" --port=0 --migrate-format=v2
expect_usage_error "$QTSERVED" --port=0 --max-delta-chain=4
expect_refused "$QTSERVED" --port=abc

expect_usage_error "$QTROUTERD" --port=70000 --shards=127.0.0.1:1
expect_usage_error "$QTROUTERD" --port=0 --http-port=70000 \
  --shards=127.0.0.1:1
expect_usage_error "$QTROUTERD" --port=0 --shards=127.0.0.1:70000
for flag in vnodes checkpoint-every migrate-every; do
  expect_usage_error "$QTROUTERD" --port=0 --shards=127.0.0.1:1 "--$flag=-1"
  expect_usage_error "$QTROUTERD" --port=0 --shards=127.0.0.1:1 \
    "--$flag=4294967296"
done
expect_usage_error "$QTROUTERD" --port=0 --shards=127.0.0.1:1 \
  --flight-capacity=-1

if [ "$failures" -ne 0 ]; then
  echo "daemon_flags: $failures case(s) failed"
  exit 1
fi
echo "daemon_flags: all cases refused as expected"
