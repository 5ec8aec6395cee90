#!/usr/bin/env bash
# serve_run.sh <port> <spec> <out>
#
# One run against an anton2serve already listening on 127.0.0.1:<port>: wait
# for /healthz, POST <spec> (a JSON request body) to /v1/runs, poll the run
# until it completes (a failed run fails the script), and fetch its canonical
# artifact into <out>. The run id goes to stdout, so a caller can keep
# talking to the server about the same run: ID=$(serve_run.sh ...). A spec
# the server already holds (finished, in flight, or re-admitted from the
# write-ahead log after a crash) is joined, not re-run, so the script is also
# how a smoke job waits out a resumed run.
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 <port> <spec> <out>" >&2
  exit 2
fi
BASE="http://127.0.0.1:$1"
SPEC=$2
OUT=$3

for _ in $(seq 1 100); do
  curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
ID=$(curl -fsS -X POST -d "$SPEC" "$BASE/v1/runs" | jq -r .id)
echo "run id: $ID" >&2
STATE=
for _ in $(seq 1 600); do
  STATE=$(curl -fsS "$BASE/v1/runs/$ID" | jq -r .state)
  [ "$STATE" = completed ] && break
  [ "$STATE" = failed ] && { echo "run $ID failed" >&2; exit 1; }
  sleep 0.5
done
[ "$STATE" = completed ] || { echo "run $ID still $STATE after 300 s" >&2; exit 1; }
curl -fsS "$BASE/v1/runs/$ID/artifact" -o "$OUT"
echo "$ID"
