"""Helpers of the XMorph ledger benchmark: percentiles, failure
accounting, the BENCHMARK.json reader and writer, and the fingerprint
comparison that refuses to compare runs made on different inputs."""

import json
import math
import re
import statistics

MIN_BEYOND = 10  # samples a reported tail percentile needs beyond it


class LedgerError(Exception):
    pass


# ---------- percentiles ----------

def percentile(values, q):
    """Nearest-rank percentile, q in [0, 1]: the smallest sample with at
    least a share q of all samples at or below it."""
    if not values:
        raise LedgerError("percentile of no samples")
    if not 0 <= q <= 1:
        raise LedgerError("percentile rank %r outside [0, 1]" % q)
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """How many of n samples lie strictly above the nearest-rank q
    percentile."""
    return n - max(1, math.ceil(q * n))


def min_samples(q, beyond=MIN_BEYOND):
    """The fewest samples for which the q percentile has `beyond` samples
    above it."""
    n = beyond + 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


def tail_percentile(values, q, beyond=MIN_BEYOND):
    """The q percentile, refused when fewer than `beyond` samples lie
    beyond it: a tail read from too few samples is noise."""
    have = samples_beyond(len(values), q)
    if have < beyond:
        raise LedgerError(
            "p%g of %d samples has %d beyond it; needs %d"
            % (q * 100, len(values), have, beyond))
    return percentile(values, q)


def median(values):
    return statistics.median(values)


# ---------- failure accounting ----------

class Tally:
    """Attempted and failed operations.  A failure is an unexpected
    status, a connection error, or a body that fails the output check;
    each is counted once, with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def ok(self, n=1):
        self.attempted += n

    def fail(self, reason, n=1):
        self.attempted += n
        self.failed += n
        self.reasons[reason] = self.reasons.get(reason, 0) + n

    def add(self, attempted, failed, reasons=None):
        """Fold in counts made elsewhere (the load generator's)."""
        if failed > attempted:
            raise LedgerError("%d failed of %d attempted" % (failed, attempted))
        self.attempted += attempted
        self.failed += failed
        for reason, n in (reasons or {}).items():
            self.reasons[reason] = self.reasons.get(reason, 0) + n

    def ratio(self):
        if self.attempted == 0:
            raise LedgerError("no operations attempted")
        return self.failed / self.attempted


# ---------- BENCHMARK.json ----------

TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def validate_benchmark(spec):
    """Every way `spec` breaks the BENCHMARK.json contract, as messages."""
    errs = []
    if not isinstance(spec, dict) or set(spec) != TOP_KEYS:
        return ["top-level keys must be exactly %s" % sorted(TOP_KEYS)]
    cmd, paths = spec["command"], spec["paths"]
    if (not isinstance(cmd, list) or not 1 <= len(cmd) <= 32
            or not all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        errs.append("command: 1 to 32 strings of at most 200 characters")
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        errs.append("paths: 1 to 16 directories")
    else:
        for p in paths:
            if (not isinstance(p, str) or not PATH_RE.match(p)
                    or p.startswith("/") or ".." in p.split("/")):
                errs.append("paths: bad path %r" % (p,))
    for c in cmd if isinstance(cmd, list) else []:
        if isinstance(c, str) and (c.startswith("/") or ".." in c.split("/")):
            errs.append("command: absolute or escaping path %r" % c)
    secs = spec["run_seconds"]
    if not isinstance(secs, int) or isinstance(secs, bool) or not 1 <= secs <= 60:
        errs.append("run_seconds: a whole number from 1 to 60")
    names = []
    wls = spec["workloads"]
    if not isinstance(wls, list) or not 2 <= len(wls) <= 8:
        errs.append("workloads: 2 to 8")
    else:
        for w in wls:
            if not isinstance(w, dict) or set(w) != {"name", "why"}:
                errs.append("workload: exactly name and why")
                continue
            names.append(w["name"])
            why = w["why"]
            if not isinstance(why, str) or "\n" in why or len(why) > 200:
                errs.append("workload %s: why is one line of at most 200"
                            % w["name"])
    for key, lo, hi, bounded in (("end_to_end", 1, 16, True),
                                 ("per_layer", 1, 128, False)):
        ms = spec[key]
        if not isinstance(ms, list) or not lo <= len(ms) <= hi:
            errs.append("%s: %d to %d metrics" % (key, lo, hi))
            continue
        want = {"name", "unit", "better"} | ({"bound"} if bounded else set())
        for m in ms:
            if not isinstance(m, dict) or set(m) != want:
                errs.append("%s: exactly %s" % (key, sorted(want)))
                continue
            names.append(m["name"])
            if not isinstance(m["unit"], str) or not UNIT_RE.match(m["unit"]):
                errs.append("%s: bad unit %r" % (m["name"], m["unit"]))
            if m["better"] not in ("lower", "higher"):
                errs.append("%s: better is lower or higher" % m["name"])
            if bounded:
                b = m["bound"]
                if (not isinstance(b, (int, float)) or isinstance(b, bool)
                        or not 0 < b <= 0.25):
                    errs.append("%s: bound in (0, 0.25]" % m["name"])
        if key == "end_to_end" and isinstance(ms, list):
            setup = [m for m in ms if isinstance(m, dict)
                     and m.get("name") == "setup_s"]
            if not setup or setup[0].get("unit") != "s" \
                    or setup[0].get("better") != "lower":
                errs.append("end_to_end: setup_s in s, lower better, required")
    for n in names:
        if not isinstance(n, str) or not NAME_RE.match(n):
            errs.append("bad name %r" % (n,))
    dup = sorted({n for n in names if names.count(n) > 1})
    if dup:
        errs.append("names used more than once: %s" % dup)
    if len(dump_benchmark(spec).encode()) > 64 * 1024:
        errs.append("larger than 64 KiB")
    return errs


def dump_benchmark(spec):
    return json.dumps(spec, indent=2) + "\n"


def read_benchmark(path):
    with open(path) as f:
        spec = json.load(f)
    errs = validate_benchmark(spec)
    if errs:
        raise LedgerError("%s: %s" % (path, "; ".join(errs)))
    return spec


def write_benchmark(spec, path):
    errs = validate_benchmark(spec)
    if errs:
        raise LedgerError("; ".join(errs))
    with open(path, "w") as f:
        f.write(dump_benchmark(spec))


# ---------- result lines and fingerprints ----------

def result_line(correct, tally, metrics, declared):
    """The last line a run prints.  `metrics` maps name -> value and must
    cover exactly the `declared` metrics (name -> unit)."""
    if set(metrics) != set(declared):
        raise LedgerError("metrics %s do not match declared %s"
                          % (sorted(metrics), sorted(declared)))
    if tally.attempted < 1:
        raise LedgerError("no operations attempted")
    return json.dumps({
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": declared[n]}
                    for n in declared},
    })


def compare_fingerprints(a, b):
    """Refuse (raise) when two runs' inputs differ: the generated
    documents come from repository code a later change can alter."""
    if a != b:
        keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        raise LedgerError("input fingerprints differ (%s); refusing to compare"
                          % ", ".join(keys))
