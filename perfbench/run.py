"""Soteria benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload apps_cold --seed 1 --seconds 20 --trace 0

Workloads (see NOTES.md for why each exists):

* ``apps_cold``    every corpus app singly through an empty memory-only
                   pipeline, pass after pass (the paper's single-app vetting);
* ``env_sweep``    the device-sharing environments of ``soteria sweep all``,
                   each sweep in a fresh process;
* ``fleet_screen`` a seeded fleet screened cold into an empty cache dir,
                   then warm against it, each screen in a fresh process;
* ``service_mix``  two tenants in a closed loop against ``soteria serve``.

``--trace 0`` measures the end-to-end metrics.  CPU-bound times (on
service_mix, only the runs of fresh jobs) are scaled to a reference host
speed by ``pace.py``; the unscaled figures are printed too.  ``--trace 1`` measures
once untraced and once with the span recorder (``spans.py``) armed, and
reports the per-layer metrics: traced span times, exact counters from
the untraced half, span coverage and tracing overhead.  Every verdict is
checked; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import resource
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402
from pace import Pace  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
EPISODE_TIMEOUT = 170.0
WARM_SCREENS = 5
#: Set-up-only process starts per run, besides the measured episodes, so
#: setup_s is a median over many starts, not over the 2-7 episodes.
SETUP_PROBES = 6

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
}


# ======================================================================
# Statistics and environment
# ======================================================================
def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of p99.9/p99/p98/p95/p90/p50 with at
    least ten samples beyond it."""
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 98.0, 95.0, 90.0, 50.0):
        if len(ordered) * (100.0 - pct) / 100.0 >= 10:
            index = min(len(ordered) - 1, int(len(ordered) * pct / 100.0))
            return pct, ordered[index]
    return 50.0, statistics.median(ordered)


def fingerprint() -> dict:
    """Python version, CPU count and a fixed pure-Python calibration loop,
    so run sets taken on different days or hosts can be compared."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": time.perf_counter() - start,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    env.pop("REPRO_CACHE_DIR", None)  # every episode chooses its own store
    return env


# ======================================================================
# Worker-process workloads
# ======================================================================
class Episodes:
    """Runs ``worker.py`` episodes, each in a fresh process."""

    def __init__(self, tmp: str, seed: int, trace: int):
        self.tmp, self.seed, self.trace = tmp, seed, trace
        self.results: list[dict] = []
        self.probe_setups: list[dict] = []

    def probe(self, kind: str) -> float:
        """SETUP_PROBES set-up-only starts; returns the wall time they took."""
        started = time.time()
        for index in range(SETUP_PROBES):
            out = os.path.join(self.tmp, f"{kind}-probe-{index}-t{self.trace}.json")
            self.probe_setups.append(self._spawn(kind, out, ["--setup-only"]))
        return time.time() - started

    def run(self, kind: str, budget: float, min_ops: int = 1,
            cache_dir: str | None = None) -> dict:
        index = len(self.results)
        out = os.path.join(self.tmp, f"{kind}-{index}-t{self.trace}.json")
        extra = [
            "--episode", str(index), "--budget", repr(budget),
            "--min-ops", str(min_ops), "--trace", str(self.trace),
        ]
        if cache_dir is not None:
            extra += ["--cache-dir", cache_dir]
        result = self._spawn(kind, out, extra)
        result["spans_file"] = out + ".spans.json" if self.trace else None
        self.results.append(result)
        return result

    def _spawn(self, kind: str, out: str, extra: list[str]) -> dict:
        cmd = [sys.executable, WORKER, kind, "--seed", str(self.seed),
               "--out", out] + extra
        started = time.time()
        cmd += ["--started", repr(started)]
        proc = subprocess.run(
            cmd, env=child_env(), timeout=EPISODE_TIMEOUT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{kind} episode failed:\n{proc.stderr[-4000:]}")
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        result["wall_s"] = time.time() - started
        return result


def _common(eps: Episodes) -> dict:
    results = eps.results
    setups = results + eps.probe_setups
    return {
        "setup_s": statistics.median(r["setup_scaled_s"] for r in setups),
        "setup_raw_s": statistics.median(r["setup_s"] for r in setups),
        "setup_n": len(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "episodes": results,
        "units": sum(r["units"] for r in results),
    }


def run_apps_cold(tmp: str, seed: int, seconds: float, trace: int) -> dict:
    # Three fresh processes; five passes each at least, so a run has
    # >= 15 x 82 = 1230 per-app samples (p99 has >= 10 beyond it).
    eps = Episodes(tmp, seed, trace)
    seconds -= eps.probe("apps")
    for _ in range(3):
        eps.run("apps", budget=seconds / 3, min_ops=5)
    out = _common(eps)
    latencies = [x for r in eps.results for x in r["scaled_latencies"]]
    busy = sum(r["busy_scaled_s"] for r in eps.results)
    pct, value = tail(latencies)
    out["throughput_per_s"] = len(latencies) / busy
    out["latency_p50_ms"] = statistics.median(latencies) * 1000
    out["named"] = [
        ("apps_per_s", out["throughput_per_s"], "1/s"),
        ("app_verdict_p50_ms", out["latency_p50_ms"], "ms"),
        (f"app_verdict_p{pct:g}_ms", value * 1000, f"ms (n={len(latencies)})"),
    ]
    raw = [x for r in eps.results for x in r["latencies"]]
    out["raw"] = [
        ("apps_per_s", len(raw) / sum(raw), "1/s"),
        ("app_verdict_p50_ms", statistics.median(raw) * 1000, "ms"),
    ]
    return out


def run_env_sweep(tmp: str, seed: int, seconds: float, trace: int) -> dict:
    # A cold sweep per fresh process, as many as fit, three at least.
    eps = Episodes(tmp, seed, trace)
    deadline = time.time() + seconds - eps.probe("sweep")
    while len(eps.results) < 3 or (
        time.time() + statistics.median(r["wall_s"] for r in eps.results) <= deadline
    ):
        eps.run("sweep", budget=0)
    out = _common(eps)
    sweeps = [r["busy_scaled_s"] for r in eps.results]
    groups = eps.results[0]["counts"]["groups"]
    out["latency_p50_ms"] = statistics.median(sweeps) * 1000
    out["throughput_per_s"] = groups / statistics.median(sweeps)
    out["named"] = [
        ("sweep_s", statistics.median(sweeps), f"s (median of n={len(sweeps)})"),
        ("environments_per_s", out["throughput_per_s"], "1/s"),
    ]
    out["raw"] = [
        ("sweep_s", statistics.median(r["busy_s"] for r in eps.results), "s"),
    ]
    return out


def run_fleet_screen(tmp: str, seed: int, seconds: float, trace: int) -> dict:
    # A cycle screens cold into an empty cache dir, then warm against it
    # WARM_SCREENS times, each screen in a fresh process; more cycles
    # while time allows.  Several warm screens per cycle because one
    # takes only 2-3 s, short enough for a host hiccup to move it.
    eps = Episodes(tmp, seed, trace)
    colds, warms = [], []

    def warm_screen(cache: str, cold: dict) -> None:
        warm = eps.run("fleet", budget=0, cache_dir=cache)
        if warm["digest"] != cold["digest"]:
            warm["failed"] = warm["attempted"]  # warm verdicts disagree
        warms.append(warm)

    deadline = time.time() + seconds - eps.probe("fleet")
    while True:
        started = time.time()
        cache = os.path.join(tmp, f"fleet-cache-{len(colds)}-t{trace}")
        colds.append(eps.run("fleet", budget=0, cache_dir=cache))
        for _ in range(WARM_SCREENS):
            warm_screen(cache, colds[-1])
        if time.time() + (time.time() - started) > deadline:
            break
        shutil.rmtree(cache)
    # The time a further cycle would overrun goes to more warm screens
    # (untraced only: per-layer times are per cycle of one cold and
    # WARM_SCREENS warm screens).
    warm_wall = statistics.median(w["wall_s"] for w in warms)
    while not trace and time.time() + warm_wall <= deadline:
        warm_screen(cache, colds[-1])
    shutil.rmtree(cache, ignore_errors=True)
    out = _common(eps)
    out["units"] = len(colds)
    households = colds[0]["households"]
    cold_s = statistics.median(c["busy_scaled_s"] for c in colds)
    warm_s = statistics.median(w["busy_scaled_s"] for w in warms)
    out["throughput_per_s"] = households / cold_s
    out["latency_p50_ms"] = warm_s * 1000
    out["named"] = [
        ("fleet_cold_hh_per_s", households / cold_s, f"1/s (n={len(colds)})"),
        ("fleet_warm_hh_per_s", households / warm_s, f"1/s (n={len(warms)})"),
        ("fleet_warm_screen_ms", warm_s * 1000, "ms"),
    ]
    out["raw"] = [
        ("fleet_cold_hh_per_s",
         households / statistics.median(c["busy_s"] for c in colds), "1/s"),
        ("fleet_warm_hh_per_s",
         households / statistics.median(w["busy_s"] for w in warms), "1/s"),
    ]
    return out


# ======================================================================
# service_mix: closed-loop load generator against `soteria serve`
# ======================================================================
class Client(threading.Thread):
    """One tenant's closed loop: send, wait for the verdict, send again.

    Each request goes out in a single write (headers and bytes body
    joined) on one keep-alive TCP_NODELAY socket, so the generator adds
    no Nagle stall of its own.
    """

    def __init__(self, port: int, tenant: str, seed: int, episode: int,
                 quota: int, sources: dict):
        super().__init__(daemon=True)
        self.port, self.tenant, self.quota = port, tenant, quota
        self.episode = episode
        self.rng = random.Random(f"perfbench:service:{seed}:{episode}:{tenant}")
        self.sources = sources
        self.app_order = workloads.shuffled(sources, seed, f"svc:{episode}:{tenant}")
        self.envs = workloads.service_environments()
        self.shares = workloads.service_mix_shares()
        self.cursor = {"app": 0, "env": 0}
        self.sent: list[tuple[bytes, str, object]] = []  # resubmittable
        self.requests: list[dict] = []
        self.loop_s = 0.0
        self.error: str | None = None

    def _fresh_name(self, app_id: str, kind: str) -> str:
        # A fresh name gives a fresh submission key and fresh stage keys.
        return f"{app_id}.{self.tenant}.{kind}{self.cursor[kind]}"

    def _next(self) -> tuple[str, bytes, str, object, int]:
        """(operation, body, verdict kind, subject, expected status)."""
        draw = self.rng.random()
        kind = "resubmit"
        for name, share in self.shares:
            if draw < share:
                kind = name
                break
            draw -= share
        if kind == "resubmit" and self.sent:
            body, sent_kind, subject = self.rng.choice(self.sent)
            return "resubmit", body, sent_kind, subject, 200
        if kind == "resubmit":  # nothing sent yet: submit a fresh app
            kind = "app"
        if kind == "env":
            members = self.envs[self.cursor["env"] % len(self.envs)]
            payload = {"sources": [
                {"name": self._fresh_name(a, "env"), "source": self.sources[a]}
                for a in members
            ]}
            self.cursor["env"] += 1
            body = json.dumps(payload).encode()
            self.sent.append((body, "env", members))
            return "env", body, "env", members, 201
        app_id = self.app_order[self.cursor["app"] % len(self.app_order)]
        body = json.dumps(
            {"name": self._fresh_name(app_id, "app"), "source": self.sources[app_id]}
        ).encode()
        self.cursor["app"] += 1
        self.sent.append((body, "app", app_id))
        return "app", body, "app", app_id, 201

    def run(self) -> None:
        sock = None
        try:
            sock = socket.create_connection(("127.0.0.1", self.port), timeout=120)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            loop_start = time.perf_counter()
            count = 0
            while count < self.quota:
                op, body, kind, subject, want = self._next()
                request_id = f"{self.tenant}-{self.episode}-{count}"
                count += 1
                head = (
                    "POST /v1/submissions?wait=60 HTTP/1.1\r\n"
                    f"Host: 127.0.0.1:{self.port}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"X-Soteria-Tenant: {self.tenant}\r\n"
                    f"{spans.REQUEST_HEADER}: {request_id}\r\n\r\n"
                ).encode()
                start = time.perf_counter()
                sock.sendall(head + body)
                response = http.client.HTTPResponse(sock)
                response.begin()
                payload = response.read()
                end = time.perf_counter()
                response.close()
                record = json.loads(payload) if payload else {}
                self.requests.append({
                    "rid": request_id, "op": op, "kind": kind, "subject": subject,
                    "status": response.status, "want": want,
                    "job": record.get("id"), "job_status": record.get("status"),
                    "start": start, "end": end,
                })
            self.loop_s = time.perf_counter() - loop_start
        except Exception as exc:  # reported as a failed run by the caller
            self.error = f"{type(exc).__name__}: {exc}"
        finally:
            if sock is not None:
                sock.close()


def _http_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _stop_server(proc: subprocess.Popen) -> None:
    """SIGINT, the server's clean shutdown; a server still up after 30 s
    is killed with its pool workers and fails the run."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("server did not shut down on SIGINT within 30 s")
    finally:
        proc.stdout.close()


def _start_server(base: str, trace: int) -> tuple[subprocess.Popen, int, dict]:
    """A fresh ``soteria serve --jobs 2`` over empty dirs under ``base``:
    (process, port, set-up seconds from spawn to a ``/v1/health``
    answer, raw and scaled by pace chunks taken here right after)."""
    cache, state, span_dir = (os.path.join(base, d) for d in ("cache", "state", "spans"))
    os.makedirs(span_dir)
    serve_args = ["serve", "--port", "0", "--jobs", "2",
                  "--cache-dir", cache, "--state-dir", state]
    if trace:
        cmd = [sys.executable, "-u", os.path.join(HERE, "spans.py"), span_dir] + serve_args
    else:
        cmd = [sys.executable, "-u", "-m", "repro"] + serve_args
    started = time.time()
    with open(os.path.join(base, "stderr.txt"), "w") as err:
        # Own process group, so a server that ignores SIGINT can be killed with
        # its pool workers; SIGINT restored, because a parent started in
        # the background may have passed it down ignored.
        proc = subprocess.Popen(
            cmd, env=child_env(), stdout=subprocess.PIPE, stderr=err, text=True,
            start_new_session=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        line = proc.stdout.readline() if ready else ""
        if "listening on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1].strip())
        _http_json(port, "/v1/health")
    except BaseException:
        _stop_server(proc)
        raise
    setup = time.time() - started
    return proc, port, {"setup_s": setup, "setup_scaled_s": Pace().scale_setup(setup)}


def _service_probes(tmp: str, trace: int) -> list[dict]:
    """SETUP_PROBES untraced server starts, each stopped once it answers."""
    setups = []
    for index in range(SETUP_PROBES):
        base = os.path.join(tmp, f"svc-probe-{index}-t{trace}")
        proc, _port, setup = _start_server(base, 0)
        _stop_server(proc)
        setups.append(setup)
    return setups


def _service_episode(tmp, seed, episode, quota, trace, sources, expected) -> dict:
    base = os.path.join(tmp, f"svc-{episode}-t{trace}")
    state, span_dir = os.path.join(base, "state"), os.path.join(base, "spans")
    proc, port, setup = _start_server(base, trace)
    pace = Pace()
    try:
        for _ in range(5):
            pace.chunk()  # the server idles
        clients = [Client(port, tenant, seed, episode, quota, sources)
                   for tenant in workloads.SERVICE_TENANTS]
        window_start = time.perf_counter()
        for client in clients:
            client.start()
        # A pace chunk every half second while the clients run: the client
        # threads wait on sockets, and a chunk delays at most the ~1% of
        # responses that arrive during one.
        while any(c.is_alive() for c in clients) and (
            time.perf_counter() - window_start < EPISODE_TIMEOUT
        ):
            pace.chunk()
            time.sleep(0.5)
        for client in clients:
            client.join(EPISODE_TIMEOUT)
        window = time.perf_counter() - window_start
        for _ in range(5):
            pace.chunk()
        factor = pace.factor()
        errors = [c.error for c in clients if c.error or c.is_alive()]
        if errors:
            raise RuntimeError(f"load generator failed: {errors}")
        stats = _http_json(port, "/v1/stats")
    finally:
        _stop_server(proc)

    # Verdicts come from the durable job records the server wrote.  A
    # fresh job's run (record creation to its last update) is CPU work
    # and is scaled; the rest of a round trip (HTTP, waits, the ~40 ms
    # delayed-ACK stall) is not.
    requests = [r for c in clients for r in c.requests]
    failed = 0
    for request in requests:
        latency = request["end"] - request["start"]
        request["scaled"] = latency
        ok = request["status"] == request["want"] and request["job_status"] == "done"
        if ok:
            path = os.path.join(state, "jobs", f"{request['job']}.json")
            with open(path, encoding="utf-8") as handle:
                job = json.load(handle)
            if request["kind"] == "app":
                pairs = [(v["property_id"], v["via_reflection"]) for v in job["violations"]]
                ok = workloads.app_verdict_ok(expected, request["subject"], pairs)
            else:
                pairs = [(v["property_id"], len(v["apps"])) for v in job["violations"]]
                ok = workloads.env_verdict_ok(expected, tuple(request["subject"]), pairs)
            ok = ok and job["status"] == "done"
            if request["want"] == 201:
                run = min(max(job["updated_at"] - job["created_at"], 0.0), latency)
                request["scaled"] = latency + run * (factor - 1)
        failed += not ok
    in_requests = sum(r["end"] - r["start"] for r in requests)
    return {
        **setup,
        "requests": requests,
        "window_s": window,
        "failed": failed,
        "rejected": sum(stats["service"]["rejected"].values()),
        "generator_s": sum(c.loop_s for c in clients) - in_requests,
        "span_dir": span_dir if trace else None,
    }


def run_service_mix(tmp: str, seed: int, seconds: float, trace: int) -> dict:
    from repro.corpus.loader import load_source

    sources = {app_id: load_source(app_id) for app_id in workloads.corpus_ids()}
    expected = workloads.load_expected()
    probe_setups = _service_probes(tmp, trace)
    # Two servers in turn, each fresh, each sent a fixed number of
    # requests per client (sized from the run's seconds), so every run
    # does the same amount of work whatever the host's speed.
    quota = max(1, round(seconds / 2 * workloads.SERVICE_REQUESTS_PER_S))
    results = [
        _service_episode(tmp, seed, episode, quota, trace, sources, expected)
        for episode in range(2)
    ]
    requests = [r for e in results for r in e["requests"]]
    raw = [r["end"] - r["start"] for r in requests]
    latencies = [r["scaled"] for r in requests]
    done = len(requests) - sum(e["failed"] for e in results)
    window = sum(e["window_s"] for e in results)
    # The closed loop's window shrinks or grows with its round trips.
    scaled_window = window * sum(latencies) / sum(raw)
    pct, value = tail(latencies)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    out = {
        "setup_s": statistics.median(
            e["setup_scaled_s"] for e in results + probe_setups
        ),
        "setup_raw_s": statistics.median(e["setup_s"] for e in results + probe_setups),
        "setup_n": len(results) + len(probe_setups),
        "peak_rss_mb": rss,
        "attempted": len(requests),
        "failed": len(requests) - done,
        "episodes": results,
        "units": len(requests),
        "throughput_per_s": done / scaled_window,
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "rejected": sum(e["rejected"] for e in results),
    }
    generator_ms = sum(e["generator_s"] for e in results) / len(requests) * 1000
    out["named"] = [
        ("svc_jobs_per_s", out["throughput_per_s"], "1/s"),
        ("svc_latency_p50_ms", out["latency_p50_ms"], "ms"),
        (f"svc_latency_p{pct:g}_ms", value * 1000, f"ms (n={len(latencies)})"),
        ("generator_overhead_ms", generator_ms, "ms per request"),
    ]
    # The p50 of each request kind, so a change to one path shows
    # whatever the mix's weights are.
    for op, _share in workloads.service_mix_shares():
        own = [r["scaled"] for r in requests if r["op"] == op]
        if own:
            out["named"].append(
                (f"svc_{op}_p50_ms", statistics.median(own) * 1000, f"ms (n={len(own)})")
            )
    out["raw"] = [
        ("svc_jobs_per_s", done / window, "1/s"),
        ("svc_latency_p50_ms", statistics.median(raw) * 1000, "ms"),
    ]
    return out


WORKLOADS = {
    "apps_cold": run_apps_cold,
    "env_sweep": run_env_sweep,
    "fleet_screen": run_fleet_screen,
    "service_mix": run_service_mix,
}


# ======================================================================
# Per-layer metrics (--trace 1)
# ======================================================================
#: per-layer metric -> (span name, "incl" | "self" | "calls").
SPAN_METRICS = {
    "lang.parse_s": ("lang.parse", "incl"),
    "lang.parse_calls": ("lang.parse", "calls"),
    "ir.build_s": ("ir.build", "incl"),
    "model.extract_s": ("model.extract", "incl"),
    "model.kripke_s": ("model.kripke", "incl"),
    "model.union_s": ("model.union", "incl"),
    "model.encode_s": ("model.encode", "incl"),
    "mc.symbolic_check_s": ("mc.symbolic_check", "incl"),
    "mc.symbolic_fixpoint_s": ("mc.symbolic_fixpoint", "incl"),
    "mc.witness_s": ("mc.symbolic_check", "self"),
    "mc.explicit_check_s": ("mc.explicit_check", "incl"),
    "properties.general_s": ("properties.general", "incl"),
    "properties.app_specific_s": ("properties.app_specific", "incl"),
    "pipeline.store_get_s": ("pipeline.store_get", "incl"),
    "pipeline.store_put_s": ("pipeline.store_put", "incl"),
    "corpus.union_outcome_s": ("corpus.union_outcome", "incl"),
    "fleet.sample_s": ("fleet.sample", "incl"),
    "fleet.canon_s": ("fleet.canon", "incl"),
    "fleet.variant_s": ("fleet.variant", "incl"),
    "fleet.probe_s": ("fleet.probe", "incl"),
    "fleet.check_s": ("fleet.check", "incl"),
    "service.admit_s": ("service.admit", "incl"),
    "service.wait_s": ("service.wait", "incl"),
    "service.run_s": ("service.run", "incl"),
    "service.jobstore_s": ("service.jobstore", "incl"),
    "service.handler_s": ("service.handler", "incl"),
}


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_rate", ".coverage", ".overhead")):
        return "ratio"
    return "count"


PER_LAYER_UNITS = {
    name: _unit(name)
    for name in list(SPAN_METRICS) + [
        "mc.formulas_checked", "mc.formulas_violated", "mc.bdd_peak_nodes",
        "mc.bdd_cache_hit_rate", "pipeline.store_hit_rate",
        "pipeline.store_writes", "fleet.fresh_checks", "fleet.hit_rate",
        "service.rejected", "service.respond_gap_ms", "trace.coverage",
        "trace.overhead",
    ]
}


def _load_spans(result: dict) -> list[dict]:
    """Every traced process's span dump of one run."""
    files = []
    for episode in result["episodes"]:
        if episode.get("spans_file"):
            files.append(episode["spans_file"])
        if episode.get("span_dir"):
            files += sorted(
                os.path.join(episode["span_dir"], name)
                for name in os.listdir(episode["span_dir"])
            )
    loaded = []
    for path in files:
        with open(path, encoding="utf-8") as handle:
            loaded.append(json.load(handle))
    return loaded


def _coverage(spans_list: list, busy: float) -> float:
    """Share of measured wall time inside named layer spans: top-level
    span time minus the self time of the grouping (umbrella) spans."""
    covered = 0.0
    for data in spans_list:
        span_rows = data["spans"]
        summary = spans.summarize(span_rows)
        covered += sum(end - start for _i, _n, start, end, parent, _r in span_rows
                       if not parent)
        covered -= sum(summary["self"].get(name, 0.0) for name in spans.UMBRELLAS)
    return covered / busy


def _busy(result: dict, key: str = "busy_s") -> float:
    """Measured seconds of a run: raw (``busy_s``) or scaled
    (``busy_scaled_s``); service requests are never scaled."""
    if "requests" in result["episodes"][0]:
        return sum(r["end"] - r["start"] for e in result["episodes"] for r in e["requests"])
    return sum(e[key] for e in result["episodes"])


def layer_metrics(workload: str, untraced: dict, traced: dict) -> dict:
    units = traced["units"]
    loaded = _load_spans(traced)
    totals = {"incl": {}, "self": {}, "calls": {}}
    counters: dict[str, int] = {}
    for data in loaded:
        summary = spans.summarize(data["spans"])
        for kind, key in (("incl", "inclusive"), ("self", "self"), ("calls", "calls")):
            for name, value in summary[key].items():
                totals[kind][name] = totals[kind].get(name, 0) + value
        for name, value in data["counters"].items():
            counters[name] = counters.get(name, 0) + value
    out = {
        metric: totals[kind].get(span, 0) / units
        for metric, (span, kind) in SPAN_METRICS.items()
    }
    out["mc.formulas_checked"] = counters.get("mc.formulas_checked", 0) / units
    out["mc.formulas_violated"] = counters.get("mc.formulas_violated", 0) / units

    # Exact counters from the untraced half.
    plain = [e for e in untraced["episodes"] if "counts" in e]
    kernel = [e["counts"]["kernel"] for e in plain]
    lookups = sum(k["bdd_cache_lookups"] for k in kernel)
    out["mc.bdd_peak_nodes"] = max((k["bdd_peak_nodes"] for k in kernel), default=0)
    out["mc.bdd_cache_hit_rate"] = (
        sum(k["bdd_cache_hits"] for k in kernel) / lookups if lookups else 0.0
    )
    # The service's stores live in its pool workers, which report only
    # from the traced half.
    counted = [(e["counts"]["store"], untraced["units"]) for e in plain] or [
        (data["store"], traced["units"]) for data in loaded if "store" in data
    ]
    store = {"hits": 0, "misses": 0, "writes": 0}
    writes = 0.0
    for counts, per in counted:
        for key in store:
            store[key] += counts[key]
        writes += counts["writes"] / per
    probes = store["hits"] + store["misses"]
    out["pipeline.store_hit_rate"] = store["hits"] / probes if probes else 0.0
    out["pipeline.store_writes"] = writes
    cold = [e for e in plain if e["counts"].get("fresh_checks")]
    out["fleet.fresh_checks"] = sum(e["counts"]["fresh_checks"] for e in cold) / untraced["units"]
    out["fleet.hit_rate"] = (
        statistics.median(e["counts"]["hit_rate"] for e in cold) if cold else 0.0
    )
    out["service.rejected"] = untraced.get("rejected", 0)

    out["service.respond_gap_ms"] = 0.0
    if workload == "service_mix":
        # Client round trip minus server handler time, per request.
        handler = {
            rid: end - start
            for data in loaded
            for _i, name, start, end, _parent, rid in data["spans"]
            if name == "service.handler" and rid
        }
        gaps = [
            request["end"] - request["start"] - handler[request["rid"]]
            for episode in traced["episodes"]
            for request in episode["requests"]
            if request["rid"] in handler
        ]
        out["service.respond_gap_ms"] = statistics.median(gaps) * 1000
        out["trace.coverage"] = totals["incl"].get("service.handler", 0) / _busy(traced)
    else:
        out["trace.coverage"] = _coverage(loaded, _busy(traced))
    # Scaled times, so a change of host speed between the halves cancels.
    out["trace.overhead"] = (
        (_busy(traced, "busy_scaled_s") / traced["units"])
        / (_busy(untraced, "busy_scaled_s") / untraced["units"]) - 1
    )
    return out


def nondeterminism(result: dict) -> list[str]:
    """Counts that should repeat exactly across the run's episodes."""
    flags = []
    episodes = [e for e in result["episodes"] if "counts" in e]
    per_unit = {}
    for episode in episodes:
        counts = episode["counts"]
        key = "cold" if counts.get("fresh_checks") else "other"
        row = (
            tuple(v / episode["units"] for v in counts["store"].values()),
            counts["kernel"]["bdd_peak_nodes"],
            counts.get("fresh_checks"),
            counts.get("canonical_distinct"),
            episode.get("digest"),
        )
        per_unit.setdefault(key, set()).add(row)
    for key, rows in per_unit.items():
        if len(rows) > 1:
            flags.append(f"{key} episodes disagree on exact counts: {sorted(map(str, rows))}")
    return flags


# ======================================================================
# Entry point
# ======================================================================
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    tmp = os.path.join(".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    try:
        machine = fingerprint()
        runner = WORKLOADS[args.workload]
        if args.trace:
            untraced = runner(tmp, args.seed, args.seconds / 2, 0)
            result = runner(tmp, args.seed, args.seconds / 2, 1)
            layers = layer_metrics(args.workload, untraced, result)
            shown = untraced
            attempted = untraced["attempted"] + result["attempted"]
            failed = untraced["failed"] + result["failed"]
            metrics = {
                name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                for name, value in layers.items()
            }
        else:
            result = shown = runner(tmp, args.seed, args.seconds, 0)
            attempted, failed = result["attempted"], result["failed"]
            metrics = {
                name: {"value": result[name], "unit": unit}
                for name, unit in END_TO_END_UNITS.items()
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass

    print(f"# machine: python {machine['python']}, nproc {machine['nproc']}, "
          f"calibration loop {machine['calibration_s']:.4f} s")
    print(f"# {args.workload} seed {args.seed} ({'traced' if args.trace else 'untraced'})")
    for name, value, unit in shown["named"]:
        print(f"{name:28s} {value:14.4f} {unit}")
    print(f"{'setup_s':28s} {shown['setup_s']:14.4f} s (median of n={shown['setup_n']})")
    raw = shown.get("raw", []) + [("setup_s", shown["setup_raw_s"], "s")]
    print("# unscaled: " + ", ".join(f"{n} {v:.4f} {u}" for n, v, u in raw))
    print(f"{'peak_rss_mb':28s} {shown['peak_rss_mb']:14.1f} MB")
    print(f"{'failed_share':28s} {failed / attempted:14.4f} ({failed} of {attempted})")
    if "counts" in shown["episodes"][0]:
        print(f"# exact counts, first episode: {json.dumps(shown['episodes'][0]['counts'])}")
    for flag in nondeterminism(shown):
        print(f"NONDETERMINISM: {flag}")
    if args.trace:
        for name, entry in metrics.items():
            print(f"{name:28s} {entry['value']:14.6f} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
