#!/usr/bin/env bash
# Stop `repro serve` supervisors with SIGTERM and fail unless nothing is
# left behind: each supervisor exits within 10 s, no `repro serve`
# process remains (a forked worker included), and no served port still
# accepts a connection.
#
# Usage: stop_servers.sh PID_FILE... -- PORT...
set -eo pipefail

pids=()
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
  pids+=("$(cat "$1")")
  shift
done
shift
ports=("$@")

alive() {
  # A zombie waiting to be reaped has exited.
  local stat
  stat=$(ps -o stat= -p "$1") || return 1
  [[ "$stat" != Z* ]]
}

kill "${pids[@]}"
for pid in "${pids[@]}"; do
  for _ in $(seq 1 100); do
    alive "$pid" || break
    sleep 0.1
  done
  if alive "$pid"; then
    echo "supervisor $pid still running 10 s after SIGTERM"
    exit 1
  fi
done
if pgrep -af -- "-m repro serve "; then
  echo "repro serve processes left running (listed above)"
  exit 1
fi
for port in "${ports[@]}"; do
  if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
    echo "port $port still accepts connections"
    exit 1
  fi
done
echo "stopped ${pids[*]}; nothing accepts on ${ports[*]}"
