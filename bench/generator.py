"""Load generator for the realtime-ingest workload, run in its own process:

    python3 bench/generator.py   (driven by workloads.run_session)

It imports nothing from aisd: frames arrive already encoded, so the generator
is the same program whatever the server does.  It holds two connections, one
thread each: the sender (antigen role) and one response subscriber.

Standard input first carries one JSON line {"port", "server_t0", "batch",
"core", "due", "size"} and then ``size`` bytes of newline-terminated frames;
after that, one command per line, each answered by one JSON line on standard
output:

    fixed <t0>  send every frame at t0 + due[i] (open loop)
                -> ["fixed_done", lateness in seconds per send]
    batch       send the first ``batch`` frames back to back, as fast as the
                socket takes them (closed loop)      -> ["batch_sent", start]
    bye         send BYE and close the sender         -> ["bye_done", sent]
    collect     after the server stopped  -> ["responses", [[nr, latency]]]

A send that fails because the server closed the session answers ["error",
message] in place of its reply.  Times are ``time.monotonic()``, which all
processes on the host share.
"""
from __future__ import annotations

import bisect
import json
import os
import socket
import sys
import threading
import time

HOST = "127.0.0.1"


def _subscribe(port: int, server_t0: float, received: list) -> threading.Thread:
    sub = socket.create_connection((HOST, port), timeout=30)
    sub.settimeout(None)
    sub.sendall(b"HELLO 1 response\n")

    def read() -> None:
        try:
            with sub, sub.makefile("rb") as lines:
                for line in lines:
                    now = time.monotonic()
                    parts = line.split()
                    if len(parts) == 4 and parts[0] == b"RESPONSE":
                        latency = now - (server_t0 + float(parts[3]))
                        received.append((int(parts[1]), latency))
        except OSError:
            pass

    reader = threading.Thread(target=read, daemon=True, name="subscriber")
    reader.start()
    return reader


def run_schedule(sock: socket.socket, t0: float, due, frames) -> list[float]:
    """Send frames at their due times, batching those already due.

    Returns, per batch, how late the generator itself sent it: the time from
    when it could first have sent (the batch's first due time, or the end of
    the previous send if the socket was still blocked) to the send.  Time
    blocked in ``sendall`` is the server's backlog, not lateness.
    """
    late: list[float] = []
    mono = time.monotonic
    i, n = 0, len(due)
    free_at = t0
    while i < n:
        now = mono()
        rel = now - t0
        if due[i] > rel:
            time.sleep(due[i] - rel)
            continue
        j = bisect.bisect_right(due, rel, i)
        late.append(now - max(t0 + due[i], free_at))
        sock.sendall(b"".join(frames[i:j]))
        free_at = mono()
        i = j
    return late


def main() -> int:
    commands = sys.stdin.buffer
    config = json.loads(commands.readline())
    frames = commands.read(config["size"]).splitlines(keepends=True)
    due, batch = config["due"], config["batch"]
    if config["core"] is not None:
        os.sched_setaffinity(0, {config["core"]})

    def reply(*message) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    received: list = []
    reader = _subscribe(config["port"], config["server_t0"], received)
    sock = socket.create_connection((HOST, config["port"]), timeout=30)
    sock.settimeout(None)
    sock.sendall(b"HELLO 1 antigen\n")
    blob = b"".join(frames[:batch])
    time.sleep(0.2)  # lets the server register the subscriber before any antigen
    reply("ready")
    sent = 0
    with sock:
        for line in commands:
            command = line.split()
            try:
                if command[0] == b"fixed":
                    sent += len(frames)
                    reply("fixed_done", run_schedule(sock, float(command[1]), due, frames))
                elif command[0] == b"batch":
                    sent += batch
                    start = time.monotonic()
                    sock.sendall(blob)
                    reply("batch_sent", start)
                elif command[0] == b"bye":
                    sock.sendall(b"BYE\n")
                    break
                else:
                    raise ValueError(f"unknown command {line!r}")
            except OSError as exc:
                # The server closed the session: frames counted as sent and
                # never accepted show up as lost.
                reply("error", str(exc))
                if command[0] == b"bye":
                    break
    reply("bye_done", sent)
    if commands.readline().strip() != b"collect":  # sent once the server has stopped
        raise ValueError("expected the collect command")
    reader.join(timeout=10)
    reply("responses", received)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # the parent gave up on this run and closed the pipes
        sys.exit(1)
