#!/usr/bin/env python3
"""The XMorph ledger benchmark.

    python3 ledger/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Builds `xmorph` and the ledger's
helper program with dune, generates the workload's inputs from the seed,
runs the workload against the real binary, checks every output, and
prints a report whose last line is one JSON object: end-to-end metrics
with --trace 0, per-layer metrics (from an in-process traced replay)
with --trace 1.  See ledger/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ledgerlib as L  # noqa: E402

WORK = ".ledger_work"
XMORPH = os.path.join("_build", "default", "bin", "xmorph_cli.exe")
LEDGER = os.path.join("_build", "default", "ledger", "ledger.exe")
CANONICAL = os.path.join("ledger", "fingerprints.json")
SETUP_REPS = 9
# A daemon set-up takes tens of milliseconds, so more of them fit and
# their median needs them: the host's noise is a larger share of each.
DAEMON_SETUP_REPS = 25
CACHE_MB = 4
WARMUP_S = 1.0
SERVED = {
    # workload -> extra daemon flags beyond --cache-mb and --qlog
    "serve-hot": [],
    "serve-churn": [],
    "serve-warehouse": ["--stats-db", "stats.db"],
}


def log(msg):
    print(msg, flush=True)


def die(msg, code=1):
    print("ledger: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def clean_env():
    """The program's environment: no XMORPH_* setting leaks in."""
    return {k: v for k, v in os.environ.items() if not k.startswith("XMORPH_")}


def revision():
    """The git revision when there is one; otherwise a digest of the
    sources, which identifies the code just as well."""
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.md5()
    for top in ("bin", "lib", "ledger"):
        for d, _, files in sorted(os.walk(top)):
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune", ".py")):
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    h.update(open(p, "rb").read())
    return "src-md5:" + h.hexdigest()


def build():
    for need in ("dune-project", os.path.join("bin", "dune"),
                 os.path.join("lib", "serve", "dune"),
                 os.path.join("ledger", "dune")):
        if not os.path.exists(need):
            die("%s is missing: run from the root of an xmorph source tree"
                % need, 2)
    env = dict(clean_env(), DUNE_CACHE="disabled")
    out = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/xmorph_cli.exe",
         "./ledger/ledger.exe"],
        capture_output=True, text=True, env=env, timeout=850)
    if out.returncode != 0:
        die("build failed:\n" + out.stdout + out.stderr, 2)


def ledger(*args, timeout=170):
    out = subprocess.run([os.path.abspath(LEDGER)] + [str(a) for a in args],
                         capture_output=True, text=True, env=clean_env(),
                         timeout=timeout)
    if out.returncode != 0:
        die("ledger.exe %s failed:\n%s" % (args[0], out.stderr))
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def canonical_fingerprints(work, canon):
    cdir = os.path.join(work, "canonical")
    os.makedirs(cdir)
    ledger("gen", "--seed", canon["canonical_seed"], "--dir", cdir)
    with open(os.path.join(cdir, "catalog.json")) as f:
        return json.load(f)["fingerprints"]


def record_fingerprints():
    """Re-record the canonical seed's fingerprints: for a change that
    alters the inputs on purpose, which also resets every baseline."""
    with open(CANONICAL) as f:
        canon = json.load(f)
    work = os.path.join(WORK, "record")
    shutil.rmtree(work, ignore_errors=True)
    canon["fingerprints"] = canonical_fingerprints(work, canon)
    with open(CANONICAL, "w") as f:
        f.write(json.dumps(canon, indent=2) + "\n")
    log("recorded %s" % CANONICAL)


def generate(seed, work):
    """Write the seed's inputs; refuse to run when the canonical seed's
    inputs no longer match the recorded fingerprints."""
    with open(CANONICAL) as f:
        canon = json.load(f)
    got = canonical_fingerprints(work, canon)
    try:
        L.compare_fingerprints(canon["fingerprints"], got)
    except L.LedgerError as e:
        die("%s (seed %d): the input generator changed since %s was "
            "recorded" % (e, canon["canonical_seed"], CANONICAL), 3)
    ledger("gen", "--seed", seed, "--dir", work)
    with open(os.path.join(work, "catalog.json")) as f:
        return json.load(f)


def shred(work):
    t0 = time.perf_counter()
    for name in ("xmark", "dblp", "nasa"):
        subprocess.run([os.path.abspath(XMORPH), "shred", name + ".store",
                        name + ".xml"], cwd=work, check=True, env=clean_env(),
                       stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0


# ---------- oneshot ----------

def oneshot_argv(job, jobs):
    x = os.path.abspath(XMORPH)
    if "query" in job:
        return [x, "query", "-j", str(jobs), "-g", job["guard"], job["query"],
                job["file"]]
    return [x, "run", "-j", str(jobs), job["guard"], job["file"]]


def run_job(argv, cwd):
    """One CLI job as a fresh process: (wall s, exit code, stdout,
    maxrss KiB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, env=clean_env())
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, out, ru.ru_maxrss


def oneshot_loop(cat, work, seconds, tally, min_n):
    """Jobs in the seed's order, one at a time at --jobs = core count,
    until `seconds` have passed and at least `min_n` jobs ran (capped at
    twice `seconds`)."""
    jobs, order, expected = cat["oneshot_jobs"], cat["oneshot_order"], cat["expected"]
    lat, rss = [], 0
    t0 = time.perf_counter()
    i = 0
    while True:
        el = time.perf_counter() - t0
        if el >= 2 * seconds or (el >= seconds and len(lat) >= min_n):
            break
        job = jobs[order[i % len(order)]]
        wall, rc, out, maxrss = run_job(oneshot_argv(job, nproc()), work)
        i += 1
        rss = max(rss, maxrss)
        if rc != 0:
            tally.fail("exit code %d" % rc)
        elif hashlib.md5(out).hexdigest() != expected[job["key"]]:
            tally.fail("body digest mismatch")
        else:
            tally.ok()
            lat.append(wall * 1000)
    return lat, time.perf_counter() - t0, rss


def oneshot_selfcheck(cat, work):
    """The jobs must run at --jobs equal to the core count; the query
    log's record of the job says what the program used."""
    qlog = os.path.join(work, "selfcheck.jsonl")
    job = cat["oneshot_jobs"][0]
    argv = oneshot_argv(job, nproc())
    argv[2:2] = ["--qlog", os.path.abspath(qlog)]
    _, rc, _, _ = run_job(argv, work)
    with open(qlog) as f:
        rec = json.loads(f.readline())
    if rc != 0 or rec.get("jobs") != nproc():
        die("self-check: oneshot job ran at jobs %s, not the core count %d"
            % (rec.get("jobs"), nproc()))


def oneshot(args, cat, work, tally, report):
    setup = [shred(work) for _ in range(SETUP_REPS)]
    oneshot_selfcheck(cat, work)
    # One round fills the OS page cache for the binary and the inputs.
    for job in cat["oneshot_jobs"]:
        run_job(oneshot_argv(job, nproc()), work)
    min_n = L.min_samples(0.95)
    if not args.trace:
        lat, elapsed, rss = oneshot_loop(cat, work, args.seconds, tally, min_n)
        report["samples"] = {"ops_per_s": len(lat), "lat_p50_ms": len(lat),
                             "lat_p95_ms": len(lat), "setup_s": len(setup),
                             "rss_peak_mb": len(lat)}
        return {
            "ops_per_s": len(lat) / elapsed,
            "lat_p50_ms": L.median(lat),
            "lat_p95_ms": L.tail_percentile(lat, 0.95),
            "setup_s": L.median(setup),
            "rss_peak_mb": rss / 1024,
        }
    lat, _, _ = oneshot_loop(cat, work, args.seconds / 4, tally, 1)
    rep = ledger("replay", "--dir", work, "--workload", "oneshot", "--seed",
                 args.seed, "--ops", len(lat), "--warm", 0, "--cache-mb", 0,
                 "--qlog", 0, "--statdb", 0, "--jobs", nproc())
    e2e = sum(lat) / len(lat)
    return layer_metrics(rep, e2e, {}, report)


# ---------- served ----------

def http_get(port, path):
    """Control-plane requests (health, cache stats); the load itself goes
    through the ledger's own client."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(("GET %s HTTP/1.1\r\nhost: 127.0.0.1\r\n"
                   "connection: close\r\n\r\n" % path).encode())
        chunks = []
        while True:
            b = s.recv(65536)
            if not b:
                break
            chunks.append(b)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), body


class Daemon:
    def __init__(self, workload, work):
        self.work = work
        pf = os.path.join(work, "port")
        if os.path.exists(pf):
            os.remove(pf)
        argv = ([os.path.abspath(XMORPH), "serve", "xmark.store", "dblp.store",
                 "nasa.store", "--port", "0", "--port-file", "port",
                 "--cache-mb", str(CACHE_MB), "--qlog", "q.jsonl"]
                + SERVED[workload])
        self.log = open(os.path.join(work, "serve.log"), "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=work, env=clean_env(),
                                     stdout=subprocess.DEVNULL, stderr=self.log)
        try:
            self.port = self._wait_ready(pf)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _wait_ready(self, pf):
        deadline = time.perf_counter() + 30
        port = None
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                die("daemon exited with %d during set-up" % self.proc.returncode)
            if port is None and os.path.exists(pf):
                text = open(pf).read().strip()
                port = int(text) if text else None
            if port is not None:
                try:
                    if http_get(port, "/healthz")[0] == 200:
                        return port
                except OSError:
                    pass
            time.sleep(0.001)
        die("daemon not healthy within 30 s")

    def hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        die("no VmHWM for the daemon")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def load(daemon, workload, args, clients, seconds):
    return ledger("load", "--dir", daemon.work, "--port", daemon.port,
                  "--workload", workload, "--seed", args.seed, "--clients",
                  clients, "--warmup", WARMUP_S, "--seconds", seconds,
                  timeout=seconds + 120)


def cache_window(res):
    """Cache counters over the measured window (after warm-up)."""
    a, b = res["cache_before"], res["cache_after"]
    d = {t: {k: b[t][k] - a[t][k] for k in ("hits", "misses", "evictions")}
         for t in ("plan", "result")}
    ratio = (lambda t: d[t]["hits"] / max(1, d[t]["hits"] + d[t]["misses"]))
    return {
        "plan_hit_ratio": ratio("plan"),
        "result_hit_ratio": ratio("result"),
        "plan_misses": d["plan"]["misses"],
        "result_misses": d["result"]["misses"],
        "evictions": d["result"]["evictions"],
        "evictions_per_kop": d["result"]["evictions"] * 1000 / max(1, res["ops"]),
        "resident_mb": b["result"]["bytes"] / 2 ** 20,
    }


def served_selfcheck(workload, cache, work):
    if workload == "serve-hot" and cache["result_hit_ratio"] < 0.95:
        die("self-check: serve-hot result hit ratio %.3f < 0.95"
            % cache["result_hit_ratio"])
    if workload == "serve-churn" and not (
            cache["plan_misses"] > 0 and cache["result_misses"] > 0
            and cache["evictions"] > 0):
        die("self-check: serve-churn needs plan misses, result misses and "
            "evictions; got %r" % cache)
    if workload == "serve-warehouse":
        with open(os.path.join(work, "stats.db")) as f:
            rows = len(json.load(f).get("records", []))
        if rows == 0:
            die("self-check: serve-warehouse wrote no warehouse rows")


def run_daemon(workload, args, work, clients, seconds, tally):
    d = Daemon(workload, work)
    try:
        res = load(d, workload, args, clients, seconds)
        hwm = d.hwm_mb()
    finally:
        d.stop()
    tally.add(res["attempted"], res["failed"], res["reasons"])
    cache = cache_window(res)
    served_selfcheck(workload, cache, work)
    return res, cache, hwm, d.setup_s


def served(args, cat, work, tally, report):
    workload = args.workload
    shred(work)
    clients = max(1, min(2, nproc()))
    report["client_threads"] = clients
    if not args.trace:
        setup = []
        for _ in range(DAEMON_SETUP_REPS - 1):
            d = Daemon(workload, work)
            d.stop()
            setup.append(d.setup_s)
        res, cache, hwm, s = run_daemon(workload, args, work, clients,
                                        args.seconds, tally)
        setup.append(s)
        reads = res["read_ms"]
        report["samples"] = {"ops_per_s": res["ops"], "lat_p50_ms": len(reads),
                             "lat_p95_ms": len(reads), "setup_s": len(setup),
                             "rss_peak_mb": 1}
        report["cache"] = cache
        if res["write_ms"]:
            report["write_lat_p50_ms"] = {"value": L.median(res["write_ms"]),
                                          "unit": "ms",
                                          "samples": len(res["write_ms"])}
        return {
            "ops_per_s": res["ops"] / res["measured_s"],
            "lat_p50_ms": L.median(reads),
            "lat_p95_ms": L.tail_percentile(reads, 0.95),
            "setup_s": L.median(setup),
            "rss_peak_mb": hwm,
        }
    # A quarter of the time at each client count keeps the replay, which
    # runs the one-client sequence several times over, within the run.
    part = args.seconds / 4
    one, _, _, _ = run_daemon(workload, args, work, 1, part, tally)
    two, cache, _, _ = run_daemon(workload, args, work, clients, part, tally)
    warm = one["warm_ops_per_client"][0]
    n = one["ops_per_client"][0]
    rep = ledger("replay", "--dir", work, "--workload", workload, "--seed",
                 args.seed, "--ops", n, "--warm", warm, "--cache-mb", CACHE_MB,
                 "--qlog", 1, "--statdb", int(workload == "serve-warehouse"),
                 "--jobs", 1)
    lat1 = one["read_ms"] + one["write_ms"]
    e2e = sum(lat1) / len(lat1)
    serve = {
        "cache.plan.hit_ratio": cache["plan_hit_ratio"],
        "cache.result.hit_ratio": cache["result_hit_ratio"],
        "cache.result.evictions_per_kop": cache["evictions_per_kop"],
        "cache.resident_mb": cache["resident_mb"],
        "serve.exec.ms": rep["exec_ms_per_op"],
        "serve.http.ms": e2e - rep["exec_ms_per_op"],
        "serve.wait.ms": L.median(two["read_ms"]) - L.median(one["read_ms"]),
    }
    for sink in ("qlog", "statdb"):
        serve["obs.%s.ms" % sink] = rep["sink_ms_per_op"].get(sink, 0.0)
    return layer_metrics(rep, e2e, serve, report)


# ---------- the per-layer ledger ----------

# Spans the replay records, as they are named in BENCHMARK.json.
SPAN_METRICS = {
    "xml.parse": "xml.parse.ms", "xml.doc": "xml.doc.ms",
    "store.shred": "store.shred.ms", "core.parse": "core.parse.ms",
    "core.infer": "core.infer.ms", "core.loss": "core.loss.ms",
    "core.render": "core.render.ms", "xml.print": "xml.print.ms",
    "xquery.eval": "xquery.eval.ms", "store.update": "store.update.ms",
    "cache.lookup": "cache.lookup.ms",
}
# Per-operation times that add up to the end-to-end time per operation.
ADDITIVE = list(SPAN_METRICS.values()) + ["obs.qlog.ms", "obs.statdb.ms",
                                          "serve.http.ms"]


def layer_metrics(rep, e2e_ms, serve, report):
    if rep["replay_mismatches"]:
        report["replay_mismatches"] = rep["replay_mismatches"]
    layers = rep["layers_ms_per_op"]
    m = {metric: layers.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    m.update({
        "store.load.ms": rep["store_load_ms"],
        "core.out_nodes_per_op": rep["out_nodes_per_op"],
        "store.blocks_per_op": rep["blocks_per_op"],
        "xml.print.kb_per_op": rep["print_kb_per_op"],
        "cache.plan.hit_ratio": 0.0, "cache.result.hit_ratio": 0.0,
        "cache.result.evictions_per_kop": 0.0, "cache.resident_mb": 0.0,
        "serve.exec.ms": 0.0, "serve.http.ms": 0.0, "serve.wait.ms": 0.0,
        "obs.qlog.ms": 0.0, "obs.statdb.ms": 0.0,
    })
    m.update(serve)
    m["unattributed.ms"] = e2e_ms - sum(m[k] for k in ADDITIVE)
    m["trace.overhead_pct"] = ((rep["traced_ms_per_op"] - rep["untraced_ms_per_op"])
                               / rep["untraced_ms_per_op"] * 100)
    report["e2e_ms_per_op"] = e2e_ms
    report["replay_ops"] = rep["ops"]
    return m


# ---------- main ----------

def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-fingerprints", action="store_true",
                    help="re-record ledger/fingerprints.json and exit")
    args = ap.parse_args()
    if args.record_fingerprints:
        build()
        record_fingerprints()
        return
    if None in (args.workload, args.seed, args.seconds):
        ap.error("--workload, --seed and --seconds are required")
    if not os.path.exists("BENCHMARK.json"):
        die("BENCHMARK.json not found: run from the root of the source tree", 2)
    spec = L.read_benchmark("BENCHMARK.json")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        # Every workload in turn, each in its own process as a single
        # run would be; the report lines of each follow its name.
        for name in names:
            log("== %s" % name)
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)])
            if out.returncode != 0:
                die("workload %s failed" % name)
        return
    if args.workload not in names:
        die("unknown workload %r" % args.workload, 2)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    build()
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cat = generate(args.seed, work)
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "cores": nproc(), "revision": revision(),
              "client_threads": 1, "fingerprints": cat["fingerprints"]}
    tally = L.Tally()
    try:
        if args.workload == "oneshot":
            metrics = oneshot(args, cat, work, tally, report)
        else:
            metrics = served(args, cat, work, tally, report)
    except L.LedgerError as e:
        die(str(e))
    report["attempted"], report["failed"] = tally.attempted, tally.failed
    report["fail_ratio"] = tally.ratio()
    report["fail_reasons"] = tally.reasons
    report["metrics"] = metrics
    with open(os.path.join(WORK, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(report, f, indent=2)
    for k in ("cores", "revision", "client_threads", "fail_reasons",
              "write_lat_p50_ms", "cache", "e2e_ms_per_op", "replay_ops",
              "replay_mismatches"):
        if k in report:
            log("# %s: %s" % (k, json.dumps(report[k])))
    samples = report.get("samples", {})
    for name, unit in declared.items():
        n = samples.get(name)
        log("%-32s %14.4f %-6s%s" % (name, metrics[name], unit,
                                      "" if n is None else " n=%d" % n))
    log("%-32s %14.4f %-6s n=%d" % ("fail_ratio", report["fail_ratio"], "ratio",
                                    tally.attempted))
    correct = tally.failed == 0 and "replay_mismatches" not in report
    log(L.result_line(correct, tally, metrics, declared))


if __name__ == "__main__":
    main()
