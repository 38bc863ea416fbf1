#!/usr/bin/env python3
"""End-to-end benchmark of `fastod serve`: CSV bytes in, last result byte out.

Builds the fastod CLI and the in-process probe from the enclosing source
tree, starts a fresh `fastod serve` on loopback for every run, drives it
from this one client process (one thread per client, closed loop), checks
every result, and prints one JSON record per metric followed by a last
line {"correct", "attempted", "failed", "metrics"}.

    python3 odbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Workloads (see odbench/GLOSSARY.md for the rationale and every metric):
  ingest   flight-like 200k x 10 CSV posted inline per session, threads=1
  lattice  hepatitis-like 155 x 16 resident dataset, threads=4, streamed
  append   flight-like 200k x 10 resident; a writer appends 2,000-row
           deltas and runs `incremental`, a reader runs fastod beside it

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics (spans recorded around each layer's calls, self time per layer)
and the tracing overhead. Exit status: 0 when every check passed, 1 on an
output mismatch or a failed setup, 2 on bad usage.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Client poll interval while a non-streamed session runs.
POLL_S = 0.004
# Back-off after a refused (429/503) request before the client retries.
REFUSED_BACKOFF_S = 0.05
TERMINAL_WAIT_S = 120.0

WORKLOADS = {
    # delta_rows x deltas rows are generated past the base: the append
    # chain, and on the other workloads the 1% delta the traced pass
    # appends to exercise the data.append and incremental layers.
    # `datasets` relations come from generator seeds seed..seed+datasets-1
    # and ops rotate over them, so a run's medians average over datasets
    # rather than ride on one seed's accidental OD count.
    "ingest": dict(kind="flight", rows=200_000, attrs=10, threads=1,
                   workers=1, setups=15, trace_reps=3, delta_rows=2000,
                   deltas=1, datasets=1),
    "lattice": dict(kind="hepatitis", rows=155, attrs=16, threads=4,
                    workers=1, setups=15, trace_reps=5, delta_rows=2,
                    deltas=1, datasets=4),
    "append": dict(kind="flight", rows=200_000, attrs=10, threads=1,
                   workers=2, setups=3, trace_reps=3,
                   delta_rows=2000, deltas=24, datasets=1),
}

# Metric name -> unit; the order is the order they are printed in.
END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "setup_s": "s",
}
PER_LAYER = {
    "data.csv_parse_s": "s",
    "data.csv_parse_mb_s": "MB/s",
    "data.encode_s": "s",
    "data.l1_partitions_s": "s",
    "data.dataset_bytes_per_row": "B/row",
    "data.append_s": "s",
    "algo.execute_s": "s",
    "algo.nodes_visited": "count",
    "algo.nodes_pruned_ratio": "ratio",
    "algo.constancy_checks": "count",
    "algo.swap_checks": "count",
    "algo.key_prune_hits": "count",
    "algo.ods_per_check": "ratio",
    "partition.cache_gets": "count",
    "partition.cache_reuse_ratio": "ratio",
    "task_graph.tasks_spawned": "count",
    "task_graph.steal_ratio": "ratio",
    "task_graph.occupancy_mean": "ratio",
    "report.render_s": "s",
    "report.result_bytes": "B",
    "incremental.execute_s": "s",
    "incremental.revoked_ods": "count",
    "incremental.nodes_researched": "count",
    "service.queue_s": "s",
    "service.overhead_s": "s",
    "server.body_parse_s": "s",
    "server.post_s": "s",
    "server.result_get_s": "s",
    "server.stream_s": "s",
    "server.first_od_s": "s",
    "server.rss_after_purge_mb": "MB",
    "obs.tracing_overhead_frac": "ratio",
}


class BenchError(Exception):
    """A setup or build step failed; the run prints no result."""


def log(message):
    print(f"odbench: {message}", file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures once and builds the CLI and probe; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError(f"no fastod source tree at {ROOT}")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                       "fastod", "odbench_probe"],
                      stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return (os.path.join(out, "fastod", "fastod"),
            os.path.join(out, "odbench_probe"))


def probe(binary, *args):
    proc = subprocess.run([binary, *map(str, args)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    if proc.returncode != 0:
        raise BenchError(f"probe {args[0]} failed: "
                         f"{proc.stderr.decode(errors='replace').strip()}")
    return proc.stdout


def context(probe_binary):
    """Fields every record carries besides workload and seed."""
    commit = "none"
    try:
        # Only when ROOT itself is a work tree's top, not a directory
        # nested inside some other repository.
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL).stdout.decode().split()
        if len(out) == 2 and os.path.realpath(out[0]) == \
                os.path.realpath(ROOT):
            commit = out[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {
        "hardware_concurrency": os.cpu_count(),
        "build_type": probe(probe_binary, "build-type").decode().strip(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "machine": platform.machine(),
    }


# ------------------------------------------------------------- http client

class Refused(Exception):
    """The server answered 429 or 503: the request was not admitted."""


class HttpError(Exception):
    pass


def _exchange(port, method, path, body=b""):
    """Sends one request on its own connection (the server closes after
    each) and returns the socket to read the response from."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=60)
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
    sock.sendall(head.encode())
    if body:
        sock.sendall(body)
    return sock


def _parse_response(raw):
    end = raw.find(b"\r\n\r\n")
    if end < 0:
        raise HttpError("truncated response")
    lines = raw[:end].decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    body = raw[end + 4:]
    if headers.get("transfer-encoding") == "chunked":
        body = b"".join(decode_chunks(body))
    return status, body


def decode_chunks(data):
    """Yields the payload of each chunk of a chunked body."""
    pos = 0
    while True:
        nl = data.find(b"\r\n", pos)
        if nl < 0:
            raise HttpError("truncated chunked body")
        size = int(data[pos:nl].split(b";")[0], 16)
        if size == 0:
            return
        yield data[nl + 2:nl + 2 + size]
        pos = nl + 2 + size + 2


def request(port, method, path, body=b"", expect=(200, 201)):
    sock = _exchange(port, method, path, body)
    parts = []
    with sock:
        while True:
            data = sock.recv(1 << 20)
            if not data:
                break
            parts.append(data)
    status, payload = _parse_response(b"".join(parts))
    if status in (429, 503):
        raise Refused(f"{method} {path}: {status}")
    if status not in expect:
        raise HttpError(f"{method} {path}: HTTP {status}: {payload[:200]!r}")
    return payload


def read_stream(port, session_id):
    """Reads /stream to its end; returns (raw chunked body, time the first
    line arrived)."""
    sock = _exchange(port, "GET", f"/v1/sessions/{session_id}/stream")
    buf = bytearray()
    first = None
    body_at = -1
    with sock:
        while True:
            data = sock.recv(1 << 20)
            if not data:
                break
            buf += data
            if first is None:
                if body_at < 0:
                    end = buf.find(b"\r\n\r\n")
                    if end >= 0:
                        body_at = end + 4
                if body_at >= 0:
                    nl = buf.find(b"\r\n", body_at)
                    if nl >= 0 and len(buf) >= nl + 2 + int(
                            bytes(buf[body_at:nl]), 16):
                        first = time.perf_counter()
    status, body = _parse_response(bytes(buf))
    if status != 200:
        raise HttpError(f"stream: HTTP {status}")
    return body, first


# ----------------------------------------------------------------- server

class Server:
    """A fresh `fastod serve` process on an ephemeral loopback port."""

    def __init__(self, binary, workers, faults=None, max_sessions=0):
        env = dict(os.environ)
        env.pop("FASTOD_FAULTS", None)
        if faults:
            env["FASTOD_FAULTS"] = faults
        self.proc = subprocess.Popen(
            # One HTTP thread: every large body is parsed on the same
            # thread, so the allocator's per-thread arenas, and with them
            # peak RSS, repeat from run to run (with 8 threads ingest's
            # peak ranged 1.47-1.74 GB; with 1 it stays within 5%).
            [binary, "serve", "--port=0", f"--threads={workers}",
             "--http-threads=1", "--dataset-budget-mb=0",
             f"--max-sessions={max_sessions}", "--drain-timeout-s=5"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            self.stop()
            raise BenchError(f"server did not start: {line!r}")
        self.port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
        deadline = time.perf_counter() + 30
        while True:
            try:
                request(self.port, "GET", "/v1/algorithms")
                break
            except (OSError, HttpError, Refused):
                if time.perf_counter() > deadline:
                    self.stop()
                    raise BenchError("server never answered")
                time.sleep(0.001)

    def status_kb(self, key):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
        raise BenchError(f"no {key} in /proc status")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# --------------------------------------------------------------- results

def ods_core(report):
    """The OD arrays of a report, byte for byte: everything from
    "constancy_ods" through the last array, without the spliced trace."""
    cut = report.find(b',"trace":')
    if cut >= 0:
        report = report[:cut]
    start = report.find(b'"constancy_ods"')
    end = report.rfind(b"]")
    if start < 0 or end < start:
        raise HttpError("report without OD arrays")
    return report[start:end + 1]


def od_key(kind, od):
    if kind == "constancy":
        return (kind, tuple(sorted(od["context"])), od["attribute"])
    return (kind, tuple(sorted(od["context"])), od["a"], od["b"])


def od_set(report):
    parsed = json.loads(report)
    return frozenset(
        [od_key("constancy", od) for od in parsed["constancy_ods"]] +
        [od_key("compatibility", od) for od in parsed["compatibility_ods"]])


def stream_lines(body):
    """Streamed NDJSON lines: (OD lines, parsed end line)."""
    lines = body.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    if not lines:
        raise HttpError("empty stream")
    return lines[:-1], json.loads(lines[-1])


def result_matches_stream(report, lines):
    """/result lists each OD type in the order /stream delivered it."""
    parsed = json.loads(report)
    by_type = {"constancy": [], "compatibility": []}
    for line in lines:
        od = json.loads(line)
        by_type[od.pop("type")].append(od)
    return (by_type["constancy"] == parsed["constancy_ods"] and
            by_type["compatibility"] == parsed["compatibility_ods"])


# ------------------------------------------------------------- operations

class Tally:
    """Thread-safe op accounting shared by a workload's clients."""

    def __init__(self):
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.mismatches = []
        self.completed = 0
        self.last_done = None  # perf_counter() of the latest completion

    def fail(self, reason, mismatch=False, refused=False):
        with self.lock:
            self.failed += 1
            self.refused += refused
            if mismatch:
                self.mismatches.append(reason)

    def attempt(self):
        with self.lock:
            self.attempted += 1

    def done(self):
        with self.lock:
            self.completed += 1
            self.last_done = time.perf_counter()


class Spans:
    """Client-side spans of the traced loop (None = tracing off). Ops are
    traced in alternating runs of `period` ops, so traced and untraced
    ops interleave through the run and see the same datasets."""

    def __init__(self, period):
        self.items = []
        self.lock = threading.Lock()
        self.period = period

    def for_op(self, index):
        return self if (index // self.period) % 2 else None

    def add(self, op, name, start, end):
        with self.lock:
            self.items.append((op, name, start, end))


def timed(spans, op, name, fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    if spans is not None:
        spans.add(op, name, start, time.perf_counter())
    return out


def run_session(port, body, spans=None, op=None):
    """POST a session, poll it to a terminal state, GET its result.
    Returns (report bytes, time the result arrived)."""
    created = json.loads(timed(spans, op, "server.post", request, port,
                               "POST", "/v1/sessions", body))
    sid = created["id"]
    try:
        start = time.perf_counter()
        deadline = start + TERMINAL_WAIT_S
        while True:
            state = json.loads(request(port, "GET",
                                       f"/v1/sessions/{sid}"))["state"]
            if state not in ("created", "queued", "running"):
                break
            if time.perf_counter() > deadline:
                raise HttpError(f"session {sid} still {state}")
            time.sleep(POLL_S)
        if spans is not None:
            spans.add(op, "server.poll", start, time.perf_counter())
        if state != "done":
            raise HttpError(f"session {sid} ended {state}")
        report = timed(spans, op, "server.result_get", request, port, "GET",
                       f"/v1/sessions/{sid}/result")
        return report, time.perf_counter()
    finally:
        purge(port, sid)


def purge(port, sid):
    try:
        request(port, "DELETE", f"/v1/sessions/{sid}?purge=1",
                expect=(200, 404, 409))
    except (OSError, HttpError, Refused):
        pass


def run_streamed(port, body, spans=None, op=None):
    """POST a streamed session, read /stream to its end line, then GET
    /result. Returns (stream body, report, first-line time, end time)."""
    created = json.loads(timed(spans, op, "server.post", request, port,
                               "POST", "/v1/sessions", body))
    sid = created["id"]
    try:
        start = time.perf_counter()
        stream, first = read_stream(port, sid)
        end = time.perf_counter()
        if spans is not None:
            spans.add(op, "server.stream_wait", start, first or end)
            spans.add(op, "server.stream", first or end, end)
        report = timed(spans, op, "server.result_get", request, port, "GET",
                       f"/v1/sessions/{sid}/result")
        return stream, report, first, time.perf_counter()
    finally:
        purge(port, sid)


# -------------------------------------------------------------- workloads

class Workload:
    """Inputs, setup, one closed-loop client set and the output checks of
    one workload. Subclasses fill in the per-workload parts."""

    streamed = False  # sessions stream their ODs over /stream

    def __init__(self, name, spec, seed, data_dir, fastod, probe_binary,
                 args):
        self.name = name
        self.spec = spec
        # Any integer seed is accepted; the generators take its residue
        # mod 2^32, and seed..seed+datasets-1 stay distinct and in range.
        self.seed = seed % (1 << 32)
        self.data_dir = data_dir
        self.fastod = fastod
        self.probe = probe_binary
        self.args = args
        self.server = None

    # Inputs: generated from the seed; the same seed gives the same bytes.
    def generate(self):
        spec = self.spec
        extra = spec["delta_rows"] * spec["deltas"]
        self.data = []
        for j in range(spec["datasets"]):
            path = os.path.join(self.data_dir, f"all-{j}.csv")
            probe(self.probe, "gen", spec["kind"], spec["rows"] + extra,
                  spec["attrs"], self.seed + j, path)
            with open(path, "rb") as f:
                lines = f.read().split(b"\n")
            if lines[-1] == b"":
                lines.pop()
            base_end = 1 + spec["rows"]
            csv = b"\n".join(lines[:base_end]) + b"\n"
            base_path = self.write(f"base-{j}.csv", csv)
            order_path = os.path.join(self.data_dir, f"order-{j}.ndjson")
            reference = probe(self.probe, "ref", base_path, 1, order_path)
            with open(order_path, "rb") as f:
                order = f.read()
            self.data.append(dict(csv=csv, delta_lines=lines[base_end:],
                                  base_path=base_path, reference=reference,
                                  ref_core=ods_core(reference), order=order))
        # The traced pass and the single-dataset workloads use the first.
        first = self.data[0]
        self.csv = first["csv"]
        self.delta_lines = first["delta_lines"]
        self.base_path = first["base_path"]
        self.reference = first["reference"]

    def write(self, name, data):
        path = os.path.join(self.data_dir, name)
        with open(path, "wb") as f:
            f.write(data)
        return path

    def start_server(self):
        return Server(self.fastod, self.spec["workers"], self.args.faults,
                      self.args.max_sessions)

    def load(self, server):
        """Uploads the workload's resident datasets (part of set-up)."""

    def setup(self):
        """Sets up `setups` times, each on a fresh server, and keeps the
        last one running; returns every set-up time."""
        times = []
        for i in range(self.spec["setups"]):
            start = time.perf_counter()
            server = self.start_server()
            try:
                self.load(server)
            except BaseException:
                server.stop()
                raise
            times.append(time.perf_counter() - start)
            if i + 1 < self.spec["setups"]:
                server.stop()
        self.server = server
        self.prepare()
        return times

    def prepare(self):
        """Untimed preparation after set-up (reference sessions)."""

    def post_body(self):
        raise NotImplementedError

    def clients(self):
        """[(name, fn(tally, samples, spans, stop_at))] of the workload."""
        raise NotImplementedError

    def final_check(self, tally):
        """End-of-run checks; mismatches are recorded in the tally."""

    def stop(self):
        if self.server is not None:
            self.server.stop()
            self.server = None


class Mismatch(Exception):
    """An output check failed."""


def client_loop(tally, stop_at, op_fn):
    """Closed loop: the next op starts when the previous one completes.
    op_fn(op_index) raises on failure; failures are recorded."""
    index = 0
    while time.perf_counter() < stop_at:
        tally.attempt()
        try:
            op_fn(index)
            tally.done()
        except Refused as e:
            tally.fail(str(e), refused=True)
            time.sleep(REFUSED_BACKOFF_S)
        except Mismatch as e:
            tally.fail(str(e), mismatch=True)
        except (OSError, HttpError, ValueError, KeyError) as e:
            tally.fail(f"{type(e).__name__}: {e}")
        index += 1


class Ingest(Workload):
    def prepare(self):
        self.ref_core = ods_core(self.reference)
        self.body = json.dumps({"algorithm": "fastod",
                                "options": {"threads": self.spec["threads"]},
                                "csv": self.csv.decode()}).encode()
        # Warm-up: the first session pays the server's one-time growth.
        if ods_core(run_session(self.server.port, self.body)[0]) != \
                self.ref_core:
            raise BenchError("warm-up report differs from the in-process "
                             "report")

    def post_body(self):
        return self.body

    def clients(self):
        def client(tally, samples, spans, stop_at):
            def op(i):
                sp = spans and spans.for_op(i)
                start = time.perf_counter()
                report, end = run_session(self.server.port, self.body,
                                          sp, (0, i))
                if ods_core(report) != self.ref_core:
                    raise Mismatch("ingest: OD set differs from the "
                                   "in-process fastod run")
                samples.append((start, end - start, end - start, bool(sp)))
                if sp:
                    sp.add((0, i), "bench.op", start, end)
            client_loop(tally, stop_at, op)
        return [("ingest", client)]


class Lattice(Workload):
    streamed = True

    def load(self, server):
        for j, data in enumerate(self.data):
            request(server.port, "POST", "/v1/datasets", json.dumps(
                {"id": f"lattice-{j}", "csv": data["csv"].decode()}).encode())

    def prepare(self):
        self.bodies = [json.dumps(
            {"algorithm": "fastod", "dataset_id": f"lattice-{j}",
             "options": {"threads": self.spec["threads"]},
             "stream": True}).encode() for j in range(len(self.data))]
        # The in-process threads=1 run's emission order and report must
        # agree with each other; every op must then reproduce both.
        for data in self.data:
            lines = data["order"].split(b"\n")[:-1]
            if not result_matches_stream(data["reference"], lines):
                raise BenchError("reference report differs from its "
                                 "emission order")
            data["count"] = len(lines)
        # Warm-up: the first session pays the server's one-time growth.
        _, report, _, _ = run_streamed(self.server.port, self.bodies[0])
        if ods_core(report) != self.data[0]["ref_core"]:
            raise BenchError("warm-up report differs from the in-process "
                             "report")

    def post_body(self):
        return self.bodies[0]

    def clients(self):
        def client(tally, samples, spans, stop_at):
            def op(i):
                j = i % len(self.data)
                data = self.data[j]
                sp = spans and spans.for_op(i)
                start = time.perf_counter()
                stream, report, first, end = run_streamed(
                    self.server.port, self.bodies[j], sp, (0, i))
                lines, last = stream_lines(stream)
                if last.get("state") != "done":
                    raise HttpError(f"stream ended {last}")
                if b"".join(line + b"\n" for line in lines) != \
                        data["order"] or last.get("streamed") != data["count"]:
                    raise Mismatch("lattice: /stream differs from the "
                                   "threads=1 reference")
                if ods_core(report) != data["ref_core"]:
                    raise Mismatch("lattice: /result differs from the "
                                   "threads=1 reference")
                samples.append((start, end - start,
                                (first or end) - start, bool(sp)))
                if sp:
                    sp.add((0, i), "bench.op", start, end)
            client_loop(tally, stop_at, op)
        return [("lattice", client)]


class Append(Workload):
    """The writer appends `deltas` versions per epoch, then starts a new
    epoch by uploading the base again under a fresh id: every epoch (and
    so every run) walks the same sequence of versions, and how far a run
    gets does not change the size of what it measures."""

    def load(self, server):
        self.upload(server.port, "flight-0")

    def upload(self, port, dataset_id):
        request(port, "POST", "/v1/datasets", json.dumps(
            {"id": dataset_id, "csv": self.csv.decode()}).encode())

    def prepare(self):
        size = self.spec["delta_rows"]
        self.deltas = [
            json.dumps({"csv": (b"\n".join(
                self.delta_lines[k * size:(k + 1) * size]) + b"\n").decode()
            }).encode()
            for k in range(self.spec["deltas"])]
        self.lock = threading.Lock()
        self.epoch = 0
        self.dataset = "flight-0"
        # The first prior of every epoch: fastod on version 1.
        report, _ = run_session(self.server.port, self.reader_body())
        if ods_core(report) != ods_core(self.reference):
            raise BenchError("version-1 server report differs from the "
                             "in-process report")
        self.base_report = self.prior = report
        self.base_rows = self.rows = self.spec["rows"]
        # Every epoch replays the same versions, so results key by rows.
        self.by_rows = {self.rows: od_set(report)}
        self.reader_results = []
        self.appended = 0  # appends into the current epoch

    def reader_body(self):
        return json.dumps(
            {"algorithm": "fastod", "dataset_id": self.dataset,
             "options": {"threads": self.spec["threads"]}}).encode()

    def incremental_body(self):
        # base-rows names the version the prior was found on, so a cycle
        # that failed after its append does not misalign the next one.
        return json.dumps({"algorithm": "incremental",
                           "dataset_id": self.dataset,
                           "options": {"prior": self.prior.decode(),
                                       "base-rows": self.rows}}).encode()

    def post_body(self):
        return self.incremental_body()

    def new_epoch(self, port):
        """Drops the grown dataset, uploads the base again under the next
        id and moves both clients to it. The reader starts no session
        meanwhile; one still running on the old dataset keeps it alive
        until it ends."""
        with self.lock:
            request(port, "DELETE", f"/v1/datasets/{self.dataset}",
                    expect=(200, 404))
            self.epoch += 1
            self.dataset = f"flight-{self.epoch}"
            self.upload(port, self.dataset)
            self.prior, self.rows = self.base_report, self.base_rows
            self.appended = 0

    def clients(self):
        port = self.server.port

        def writer(tally, samples, spans, stop_at):
            def op(i):
                if self.appended == len(self.deltas):
                    self.new_epoch(port)  # not part of the timed op
                sp = spans and spans.for_op(i)
                start = time.perf_counter()
                delta = self.deltas[self.appended]
                grown = json.loads(timed(
                    sp, (0, i), "server.rows_post", request, port, "POST",
                    f"/v1/datasets/{self.dataset}/rows", delta))
                self.appended += 1
                report, end = run_session(port, self.incremental_body(),
                                          sp, (0, i))
                rows = json.loads(report)["relation"]["rows"]
                if rows != grown["rows"]:
                    raise Mismatch(f"append: incremental ran on {rows} rows, "
                                   f"version has {grown['rows']}")
                ods = od_set(report)
                with self.lock:
                    self.prior, self.rows = report, rows
                    if self.by_rows.setdefault(rows, ods) != ods:
                        raise Mismatch(f"append: epoch {self.epoch} result "
                                       f"on {rows} rows differs from an "
                                       f"earlier epoch's")
                samples.append((start, end - start, end - start, bool(sp)))
                if sp:
                    sp.add((0, i), "bench.op", start, end)
            client_loop(tally, stop_at, op)

        def reader(tally, samples, spans, stop_at):
            def op(i):
                with self.lock:
                    body = self.reader_body()
                report, _ = run_session(port, body,
                                        spans and spans.for_op(i), (1, i))
                with self.lock:
                    self.reader_results.append(
                        (json.loads(report)["relation"]["rows"],
                         od_set(report)))
            client_loop(tally, stop_at, op)

        return [("writer", writer), ("reader", reader)]

    def final_check(self, tally):
        # Incremental survivors + new ODs on the last version must equal a
        # fresh fastod run on it.
        report, _ = run_session(self.server.port, self.reader_body())
        rows = json.loads(report)["relation"]["rows"]
        if rows != self.rows:
            # The last cycle appended but its session failed: catch up.
            caught_up, _ = run_session(self.server.port,
                                       self.incremental_body())
            self.rows = json.loads(caught_up)["relation"]["rows"]
            self.by_rows.setdefault(self.rows, od_set(caught_up))
        if rows != self.rows or od_set(report) != self.by_rows.get(rows):
            tally.fail("append: incremental result on the last version "
                       "differs from fresh fastod", mismatch=True)
        # Every reader result must equal the writer's on the same version.
        for rows, ods in self.reader_results:
            if rows in self.by_rows and self.by_rows[rows] != ods:
                tally.fail(f"append: reader result on {rows} rows differs "
                           f"from incremental", mismatch=True)


WORKLOAD_CLASSES = {"ingest": Ingest, "lattice": Lattice, "append": Append}


# ----------------------------------------------------------------- stats

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail(values):
    """The highest percentile with at least 10 samples beyond it:
    (value, percentile, samples beyond). With fewer than 11 samples no
    such percentile exists and the maximum is reported, flagged."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def cpu_steal():
    """(steal, total) jiffies so far, from /proc/stat's cpu line."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def run_loop(workload, seconds, traced):
    """Runs the workload's clients for `seconds`; returns (tally, samples,
    spans, elapsed, start time, share of CPU time the hypervisor stole)."""
    tally = Tally()
    samples = []
    spans = Spans(workload.spec["datasets"]) if traced else None
    stop_at = time.perf_counter() + seconds
    threads = []
    for name, fn in workload.clients():
        # Daemon threads: a SIGTERM exit need not wait out the loop.
        t = threading.Thread(target=fn, name=name, daemon=True,
                             args=(tally, samples, spans, stop_at))
        threads.append(t)
    steal_before = cpu_steal()
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    steal_after = cpu_steal()
    total = steal_after[1] - steal_before[1]
    steal = (steal_after[0] - steal_before[0]) / total if total else 0.0
    return tally, samples, spans, elapsed, start, steal


# ---------------------------------------------------------- self time

def self_times(spans):
    """Self time of each span: its duration minus the part of it covered
    by its children. spans: [(id, parent, name, start, end)]."""
    children = {}
    for sid, parent, _, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, name, start, end in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, [])):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (name, end - start - covered)
    return out


def client_span_tree(items):
    """Client spans -> tree: per op, bench.op is the parent of the rest."""
    spans = []
    roots = {}
    for op, name, start, end in items:
        if name == "bench.op":
            roots[op] = len(spans)
            spans.append([len(spans), -1, name, start, end, op])
    for op, name, start, end in items:
        if name != "bench.op":
            spans.append([len(spans), roots.get(op, -1), name, start, end,
                          op])
    return spans


def per_layer(workload, probe_out, client_items, untraced, traced, first_ods,
              rss_after_purge_kb):
    counts = probe_out["counts"]
    by_name = {}
    probe_spans = [(s["id"], s["parent"], s["name"], s["start"], s["end"])
                   for s in probe_out["spans"]]
    for sid, (name, self_s) in self_times(probe_spans).items():
        by_name.setdefault(name, []).append(self_s)
    probe_self = {name: statistics.median(v) for name, v in by_name.items()}
    # Client spans: self time per op and span name, then the median op.
    client = client_span_tree(client_items)
    per_op = {}
    for sid, (name, self_s) in self_times(
            [tuple(s[:5]) for s in client]).items():
        by_name.setdefault(name, []).append(self_s)
        op = per_op.setdefault(client[sid][5], {})
        op[name] = op.get(name, 0.0) + self_s
    op_self = {}
    for op in per_op.values():
        for name, value in op.items():
            op_self.setdefault(name, []).append(value)

    def med(name):
        values = by_name.get(name)
        return statistics.median(values) if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    occupancy = counts["occupancy"]
    parse_s = med("data.csv_parse")
    metrics = {
        "data.csv_parse_s": parse_s,
        "data.csv_parse_mb_s": ratio(counts["csv_bytes"] / 1e6, parse_s),
        "data.encode_s": med("data.encode"),
        "data.l1_partitions_s": med("data.l1_partitions"),
        "data.dataset_bytes_per_row": ratio(counts["dataset_bytes"],
                                            counts["rows"]),
        "data.append_s": med("data.append"),
        "algo.execute_s": med("algo.execute"),
        "algo.nodes_visited": counts["nodes_visited"],
        "algo.nodes_pruned_ratio": ratio(counts["nodes_pruned"],
                                         counts["nodes_visited"]),
        "algo.constancy_checks": counts["constancy_checks"],
        "algo.swap_checks": counts["swap_checks"],
        "algo.key_prune_hits": counts["key_prune_hits"],
        "algo.ods_per_check": ratio(
            counts["ods_emitted"],
            counts["constancy_checks"] + counts["swap_checks"]),
        "partition.cache_gets": counts["partition_cache_gets"],
        "partition.cache_reuse_ratio": 1.0 - ratio(
            counts["partition_cache_puts"], counts["partition_cache_gets"]),
        "task_graph.tasks_spawned": counts["tasks_spawned"],
        "task_graph.steal_ratio": ratio(counts["tasks_stolen"],
                                        counts["tasks_spawned"]),
        "task_graph.occupancy_mean": ratio(sum(occupancy), len(occupancy)),
        "report.render_s": med("report.render"),
        "report.result_bytes": counts["result_bytes"],
        "incremental.execute_s": med("incremental.execute"),
        "incremental.revoked_ods": counts["incremental_revoked"],
        "incremental.nodes_researched": counts["incremental_nodes_searched"],
        "service.queue_s": med("service.queue"),
        # Submit -> Wait minus the session's execute: the self time of
        # the service.session span.
        "service.overhead_s": med("service.session"),
        "server.body_parse_s": med("server.body_parse"),
        "server.post_s": med("server.post"),
        "server.result_get_s": med("server.result_get"),
        "server.stream_s": med("server.stream"),
        "server.first_od_s": statistics.median(first_ods) if first_ods
        else 0.0,
        "server.rss_after_purge_mb": rss_after_purge_kb / 1024.0,
        "obs.tracing_overhead_frac": ratio(
            statistics.median(traced), statistics.median(untraced)) - 1.0
        if traced and untraced else 0.0,
    }
    detail = {
        # Per-level seconds from a threads=1 execute only (see probe.cc).
        "levels_serial": probe_out["levels"],
        # Where one client op's time went: self time per span name.
        "op_self_s": {name: statistics.median(v)
                      for name, v in op_self.items()},
        "probe_self_s": probe_self,
        "probe_reps": workload.spec["trace_reps"],
        "threads": counts["threads"],
    }
    return metrics, detail


# ------------------------------------------------------------------ main

USAGE_EPILOG = (
    "workloads: " + ", ".join(WORKLOADS) + "\n"
    "Prints one JSON record per metric, then a last line with keys "
    "correct, attempted, failed, metrics.")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="odbench/run.py",
        description="End-to-end benchmark of fastod serve over loopback.",
        epilog=USAGE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="input generator seed (any integer; the "
                             "generators use it mod 2^32)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured duration of the client loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer traced run instead of the "
                             "end-to-end metrics")
    parser.add_argument("--faults", default="",
                        help="FASTOD_FAULTS schedule for the server "
                             "(failure-accounting check), e.g. "
                             "csv.read:fail:3")
    parser.add_argument("--max-sessions", type=int, default=0,
                        help="server admission cap (0 = none); refusals "
                             "count as failed ops")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def emit(record):
    print(json.dumps(record, sort_keys=True), flush=True)


def main(argv):
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so the `finally` below stops the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = WORKLOADS[args.workload]
    try:
        fastod, probe_binary = build()
        ctx = context(probe_binary)
        data_dir = os.path.join(build_dir(), "data",
                                f"{args.workload}-{args.seed}")
        os.makedirs(data_dir, exist_ok=True)
        workload = WORKLOAD_CLASSES[args.workload](
            args.workload, spec, args.seed, data_dir, fastod, probe_binary,
            args)
        workload.generate()
        try:
            setup_times = workload.setup()
            if args.trace:
                result = traced_run(workload, args)
            else:
                result = measured_run(workload, args, setup_times)
        finally:
            workload.stop()
    except (BenchError, OSError, HttpError, Refused) as e:
        log(f"error: {e}")
        return 1

    metrics, tally, records, extra = result
    base = dict(ctx, workload=args.workload, seed=args.seed,
                trace=args.trace, seconds=args.seconds)
    for name, record in records.items():
        emit(dict(base, record="metric", metric=name, **record))
    emit(dict(base, record="run", attempted=tally.attempted,
              failed=tally.failed, refused=tally.refused,
              failed_frac=tally.failed / max(tally.attempted, 1),
              mismatches=tally.mismatches[:5], **extra))
    correct = not tally.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def measured_run(workload, args, setup_times):
    tally, samples, _, elapsed, started, steal = run_loop(
        workload, args.seconds, False)
    peak_kb = workload.server.status_kb("VmHWM")
    workload.final_check(tally)
    latencies = [s[1] for s in samples]
    firsts = [s[2] for s in samples]
    if not latencies:
        raise BenchError("no operation completed")
    records = {}

    def put(name, values, **more):
        q1, median, q3 = quartiles(values)
        records[name] = dict(unit=END_TO_END[name], value=median, median=median,
                             q1=q1, q3=q3, n=len(values), **more)

    put("latency_p50_s", latencies)
    value, pct, beyond = tail(latencies)
    records["latency_tail_s"] = dict(unit="s", value=value, percentile=pct,
                                     beyond=beyond, n=len(latencies))
    # Completions over the time from the loop's start to the last one.
    put("ops_per_s", [tally.completed / (tally.last_done - started)])
    put("peak_rss_mb", [peak_kb / 1024.0])
    put("ok_frac", [(tally.attempted - tally.failed) / tally.attempted])
    put("setup_s", setup_times)
    metrics = {name: (records[name]["value"], END_TO_END[name])
               for name in END_TO_END}
    return metrics, tally, records, {
        "elapsed_s": elapsed, "cpu_steal_frac": steal,
        "latencies_s": latencies, "first_od_samples_s": firsts}


def traced_run(workload, args):
    total, samples, spans, _, _, steal = run_loop(workload, args.seconds,
                                                  True)
    untraced = [s[1] for s in samples if not s[3]]
    traced = [s[1] for s in samples if s[3]]
    first_ods = [s[2] for s in samples] if workload.streamed else []
    items = spans.items
    workload.final_check(total)
    rss_kb = workload.server.status_kb("VmRSS")
    body_path = workload.write("body.json", workload.post_body())
    delta_path = workload.write(
        "delta.csv",
        b"\n".join(workload.delta_lines[:workload.spec["delta_rows"]]) +
        b"\n")
    workload.stop()
    probe_out = json.loads(probe(
        workload.probe, "trace", workload.base_path, delta_path, body_path,
        workload.spec["threads"], workload.spec["trace_reps"]))
    metrics, detail = per_layer(workload, probe_out, items, untraced, traced,
                                first_ods, rss_kb)
    detail["cpu_steal_frac"] = steal
    records = {name: dict(unit=PER_LAYER[name], value=value)
               for name, value in metrics.items()}
    return ({name: (metrics[name], PER_LAYER[name]) for name in PER_LAYER},
            total, records, detail)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
