#!/usr/bin/env python3
"""NDJSON smoke test for leqa_server (used by CI's server-smoke job).

Four phases:
  1. stdio: pipes a ten-step script -- estimate, map, a sweep on each of
     the four axes, a bad source, a cancel, a design-space explore, then
     EOF -- into the daemon and validates every response (one per id,
     completion order free, the daemon drains on EOF and exits 0);
  2. TCP: starts the daemon with --listen 0, parses the announced
     ephemeral port, replays the same script over a real socket, validates
     the same responses, then SIGTERMs the server and expects exit 0;
  3. line cap: over TCP with --max-line 256, an overlong junk line must
     answer {"id":0,"error":{"code":"ParseError",...}} and the stream must
     resynchronize (the next well-formed request still works);
  4. signal drain (stdio): SIGTERM mid-job must still deliver the job's
     response and exit 0.

Usage: server_smoke.py path/to/leqa_server
"""
import json
import signal
import socket
import subprocess
import sys
import time

SERVER = sys.argv[1] if len(sys.argv) > 1 else "./build/leqa_server"

# Job 1 is big enough (~0.1 s) to pin the single worker while the reader
# ingests the rest of the script, so job 2 is still queued when the cancel
# for it arrives.
REQUESTS = [
    {"id": 1, "op": "estimate", "source": "bench:gf2^128mult"},
    {"id": 2, "op": "estimate", "source": "bench:hwb15ps"},
    {"id": 3, "op": "map", "source": "bench:ham3"},
    {"id": 4, "op": "sweep", "source": "bench:ham3", "axis": "fabric_sides",
     "values": [40, 50, 60]},
    {"id": 5, "op": "estimate", "source": "bench:nosuchbench"},
    {"id": 6, "op": "cancel", "target": 2},
    {"id": 7, "op": "explore", "source": "bench:ham3",
     "topologies": ["grid", "torus"], "sides": [8, 10], "nc": [3, 5],
     "threads": 2},
    {"id": 8, "op": "sweep", "source": "bench:ham3", "axis": "nc",
     "values": [1, 3, 5]},
    {"id": 9, "op": "sweep", "source": "bench:ham3", "axis": "v",
     "values": [0.001, 0.004]},
    {"id": 10, "op": "sweep", "source": "bench:ham3", "axis": "topology",
     "kinds": ["grid", "torus", "line"]},
]

script = "".join(json.dumps(request) + "\n" for request in REQUESTS)


def index_responses(lines):
    responses = {}
    for line in lines:
        if not line.strip():
            continue
        response = json.loads(line)
        assert response["id"] not in responses, f"duplicate response id: {line}"
        responses[response["id"]] = response
    return responses


def validate(responses):
    assert set(responses) == set(range(1, 11)), sorted(responses)

    assert responses[1]["result"]["estimate"]["latency_us"] > 0.0
    assert responses[1]["result"]["mapping"] is None

    cancelled = responses[2]["error"]
    assert cancelled["code"] == "Cancelled", cancelled
    assert cancelled["origin"] == "queue", cancelled

    assert responses[3]["result"]["mapping"]["latency_us"] > 0.0
    assert responses[3]["result"]["estimate"] is None

    # One sweep per axis: (id, point count, the fabric field the axis moves).
    for sweep_id, count, field in ((4, 3, "width"), (8, 3, "nc"), (9, 2, "v"),
                                   (10, 3, "topology")):
        sweep = responses[sweep_id]["result"]["sweep"]
        assert len(sweep["points"]) == count, sweep
        assert all(point["latency_us"] > 0.0 for point in sweep["points"])
        moved = {point["fabric"][field] for point in sweep["points"]}
        assert len(moved) == count, (sweep_id, moved)
        assert 0 <= sweep["best_index"] < count, sweep
    # A faster qubit never makes the estimate slower.
    speeds = responses[9]["result"]["sweep"]["points"]
    assert speeds[1]["latency_us"] <= speeds[0]["latency_us"], speeds

    not_found = responses[5]["error"]
    assert not_found["code"] == "NotFound", not_found
    assert "nosuchbench" in not_found["message"], not_found

    ack = responses[6]["result"]
    assert ack == {"target": 2, "cancelled": True}, ack

    exploration = responses[7]["result"]["exploration"]
    assert exploration["points_total"] == 8, exploration["points_total"]
    assert len(exploration["points"]) == 8
    assert all(point["latency_us"] > 0.0 for point in exploration["points"])
    assert 0 <= exploration["best_index"] < 8
    assert {entry["topology"] for entry in exploration["best_per_topology"]} == \
        {"grid", "torus"}
    assert len(exploration["pareto_front"]) >= 1
    best = exploration["points"][exploration["best_index"]]["latency_us"]
    assert all(entry["latency_us"] >= best
               for entry in exploration["pareto_front"])


def spawn_tcp(*extra_args):
    """Start the daemon on an ephemeral port; return (process, port)."""
    proc = subprocess.Popen([SERVER, "--threads", "1", "--listen", "0",
                             *extra_args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    banner = proc.stdout.readline()
    assert banner.startswith("listening on 127.0.0.1:"), banner
    return proc, int(banner.rsplit(":", 1)[1])


def stop_and_expect_clean_exit(proc):
    proc.send_signal(signal.SIGTERM)
    _, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 0, f"exit {proc.returncode}: {stderr}"


# --- phase 1: stdio -------------------------------------------------------
proc = subprocess.run([SERVER, "--threads", "1"], input=script,
                      capture_output=True, text=True, timeout=300)
assert proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr}"
stdio_responses = index_responses(proc.stdout.splitlines())
validate(stdio_responses)

# --- phase 2: the same script over TCP ------------------------------------
proc, port = spawn_tcp()
with socket.create_connection(("127.0.0.1", port), timeout=300) as conn:
    conn.sendall(script.encode())
    conn.shutdown(socket.SHUT_WR)  # half-close: server drains, then closes
    stream = conn.makefile("r")
    tcp_responses = index_responses(stream.readlines())  # until server EOF
validate(tcp_responses)
stop_and_expect_clean_exit(proc)

# --- phase 3: line cap + resynchronization over TCP -----------------------
proc, port = spawn_tcp("--max-line", "256")
with socket.create_connection(("127.0.0.1", port), timeout=300) as conn:
    conn.sendall(b"x" * 4096 + b"\n")
    conn.sendall(json.dumps(
        {"id": 9, "op": "estimate", "source": "bench:ham3"}).encode() + b"\n")
    conn.shutdown(socket.SHUT_WR)
    lines = conn.makefile("r").readlines()
capped = index_responses(lines)
assert set(capped) == {0, 9}, sorted(capped)
assert capped[0]["error"]["code"] == "ParseError", capped[0]
assert capped[9]["result"]["estimate"]["latency_us"] > 0.0
stop_and_expect_clean_exit(proc)

# --- phase 4: SIGTERM mid-job drains stdio --------------------------------
proc = subprocess.Popen([SERVER, "--threads", "1"], stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                        text=True)
proc.stdin.write(json.dumps(
    {"id": 1, "op": "estimate", "source": "bench:gf2^128mult"}) + "\n")
proc.stdin.flush()
time.sleep(0.5)  # let the request reach the queue before the signal
proc.send_signal(signal.SIGTERM)
stdout, stderr = proc.communicate(timeout=300)
assert proc.returncode == 0, f"exit {proc.returncode}: {stderr}"
drained = index_responses(stdout.splitlines())
assert set(drained) == {1}, sorted(drained)
assert drained[1]["result"]["estimate"]["latency_us"] > 0.0

print("server smoke OK: stdio", len(stdio_responses), "responses, tcp",
      len(tcp_responses), "responses, line cap + signal drain clean")
