#!/usr/bin/env bash
# Frames that arrive together with the peer's close (ctest:
# qtserved_eof_frames): qtserved must submit every complete frame it
# has read before it reaps the connection.
#
# The daemon is stopped (SIGSTOP) while a client connects, writes one
# framed Shutdown request and closes, so the request and the EOF are
# both waiting when the daemon resumes (SIGCONT) and reads them in one
# go. The Shutdown must still run: qtserved drains and exits 0. A
# daemon that drops the frame keeps serving and fails the wait below.
#
# Usage: qtserved_eof.sh <qtserved> <shutdown request payload>
set -euo pipefail

QTSERVED=$(readlink -f "$1")
PAYLOAD=$(readlink -f "$2")

WORK=$(mktemp -d)
PID=""
cleanup() {
  if [ -n "$PID" ]; then
    kill -CONT "$PID" 2>/dev/null || true
    kill "$PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT
cd "$WORK"

"$QTSERVED" --port=0 --port-file=port >/dev/null &
PID=$!
for _ in $(seq 100); do [ -s port ] && break; sleep 0.1; done
[ -s port ] || { echo "qtserved_eof: qtserved never published a port"; exit 1; }

# One QTSERVE-WIRE frame: the u32le payload length, then the payload.
len=$(wc -c <"$PAYLOAD")
printf "$(printf '\\x%02x\\x%02x\\x%02x\\x%02x' $((len & 255)) \
  $((len >> 8 & 255)) $((len >> 16 & 255)) $((len >> 24 & 255)))" >frame.bin
cat "$PAYLOAD" >>frame.bin

kill -STOP "$PID"
exec 3<>"/dev/tcp/127.0.0.1/$(cat port)"
cat frame.bin >&3
exec 3>&-
kill -CONT "$PID"

for _ in $(seq 50); do
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$PID" 2>/dev/null; then
  echo "qtserved_eof: qtserved still running 5 s after a Shutdown" \
    "that arrived with the peer's close"
  exit 1
fi
rc=0
wait "$PID" || rc=$?
PID=""
if [ "$rc" -ne 0 ]; then
  echo "qtserved_eof: qtserved exited $rc, expected 0"
  exit 1
fi
echo "qtserved_eof: OK"
