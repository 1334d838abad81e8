"""End-to-end and per-stage benchmark of the invsemifft pipeline.

One run builds one semigroup cold (build -> induce -> a warm-up round
trip), then drives fft / ifft / convolve_fft in a closed loop with one
client: a single thread makes one library call at a time, each on a
fresh input drawn from the run's seed, until the run's seconds are up.
Every round trip is checked, and the first iteration's fft and convolve
outputs are checked against the quadratic oracles after the loop.

With trace on, the same loop also calls fast_zeta, fast_mobius and
multiply_spectra directly and records a span around every call, so the
group stages can be timed and counted as fft minus zeta and ifft minus
Mobius.  Spans are recorded only here, around calls into the package's
public functions; the package itself is not instrumented.

README.md in this directory says why each workload was chosen and which
end-to-end metric each per-layer metric should move.
"""
from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from invsemifft import (CapabilityError, FamilySpec, FunctionOnS, OpCounter,
                        build, convolve_fft, convolve_naive, fast_mobius,
                        fast_zeta, fft, ifft, induce, mobius_naive, naive_ft,
                        zeta_naive)
from invsemifft.semigroup_fourier import multiply_spectra
from invsemifft.structure import SEMIGROUP

WORKLOADS = {
    "rook6": ("rook", 6),
    "cyclic7": ("cyclic_shift", 7),
    "rotation10": ("rotation", 10),
}

TOL = 1e-9          # fft and round-trip tolerance of `invsemifft verify`
CONV_TOL = 1e-8     # its convolution tolerance
KERNEL_SUPPORT = 8  # the convolution kernel is a random-walk step
SETUP_SAMPLES = 3   # cold set-ups per run: this process and two fresh ones
TAIL_BEYOND = 10    # the tail is the highest percentile with 10 samples beyond
MIN_ITERATIONS = 2 * TAIL_BEYOND + 1  # so the tail is never below the median
RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


# -- inputs ------------------------------------------------------------------

def random_function(S, rng) -> FunctionOnS:
    """A dense complex Gaussian function on S."""
    return FunctionOnS(S, SEMIGROUP,
                       rng.normal(size=len(S)) + 1j * rng.normal(size=len(S)))


def random_kernel(S, rng) -> FunctionOnS:
    """A complex Gaussian function supported on KERNEL_SUPPORT elements."""
    vals = np.zeros(len(S), dtype=complex)
    support = rng.choice(len(S), size=min(KERNEL_SUPPORT, len(S)),
                         replace=False)
    vals[support] = (rng.normal(size=len(support))
                     + 1j * rng.normal(size=len(support)))
    return FunctionOnS(S, SEMIGROUP, vals)


# -- set-up ------------------------------------------------------------------

def cold_setup(family: str, n: int, seed: int):
    """build, induce and one fft -> ifft round trip, each timed.

    The round trip fills the package's lazy caches, so work moved from
    build into the first call still counts as set-up.
    """
    t0 = time.perf_counter()
    S = build(FamilySpec(family, n))
    t1 = time.perf_counter()
    Y = induce(S)
    t2 = time.perf_counter()
    f = random_function(S, np.random.default_rng([seed, 1]))
    t3 = time.perf_counter()
    ifft(fft(f, Y))
    t4 = time.perf_counter()
    return S, Y, {"build": t1 - t0, "induce": t2 - t1, "warmup": t4 - t3}


def setup_in_fresh_interpreter(family: str, n: int, seed: int) -> dict:
    """cold_setup timings from a new Python process, import time excluded."""
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--cold-setup", family, str(n),
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# -- environment -------------------------------------------------------------

def openblas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy, as in effect now."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                return int(get())
    return None


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "openblas_threads": openblas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


# -- the loop ----------------------------------------------------------------

class Recorder:
    """Wall time of each named call, and spans kept in memory."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.samples: dict[str, list[float]] = {}
        self.spans: list[dict] = []

    def span(self, name: str, parent: str | None, t0: float, t1: float):
        self.spans.append({"name": name, "parent": parent,
                           "start": t0, "end": t1})

    def call(self, name: str, parent: str | None, fn, *args):
        """fn(*args), timed; a span under `parent` unless it is None."""
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        self.samples.setdefault(name, []).append(t1 - t0)
        if parent is not None:
            self.span(name, parent, t0, t1)
        return out


def _max_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max())


def _fast_or_fallback(fast, naive, x, counter, fallbacks, key):
    """The fast transform, or the quadratic one fft/ifft fall back to."""
    try:
        return fast(x, counter)
    except CapabilityError:
        fallbacks[key] += 1
        return naive(x)


def closed_loop(S, Y, rng, seconds: float, rec: Recorder) -> dict:
    """Call fft, ifft and convolve_fft until `seconds` are up.

    Runs at least MIN_ITERATIONS iterations, however long they take.
    With trace on, each iteration also times fast_zeta, fast_mobius,
    multiply_spectra and one fft without a span.
    """
    out = {"iterations": 0, "roundtrip_err": 0.0, "roundtrip_failed": 0,
           "fallbacks": {"zeta": 0, "mobius": 0}, "counts": {}}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_ITERATIONS or time.perf_counter() < deadline:
        f, g = random_function(S, rng), random_kernel(S, rng)
        cnt = {k: OpCounter() for k in ("fft", "ifft", "zeta", "mobius")}
        if not rec.trace:
            c = rec.call("fft", None, fft, f, Y, cnt["fft"])
            back = rec.call("ifft", None, ifft, c, cnt["ifft"])
            conv = rec.call("convolve", None, convolve_fft, f, g, Y)
        else:
            it, t_start = f"iteration:{i}", time.perf_counter()
            if i % 2:
                rec.call("fft_untraced", None, fft, f, Y)
            c = rec.call("fft", it, fft, f, Y, cnt["fft"])
            if not i % 2:
                rec.call("fft_untraced", None, fft, f, Y)
            zf = rec.call("zeta", it, _fast_or_fallback, fast_zeta,
                          zeta_naive, f, cnt["zeta"], out["fallbacks"], "zeta")
            back = rec.call("ifft", it, ifft, c, cnt["ifft"])
            rec.call("mobius", it, _fast_or_fallback, fast_mobius,
                     mobius_naive, zf, cnt["mobius"], out["fallbacks"],
                     "mobius")
            rec.call("multiply", it, multiply_spectra, c, c)
            conv = rec.call("convolve", it, convolve_fft, f, g, Y)
            rec.span(it, None, t_start, time.perf_counter())
        err = _max_err(back.values, f.values)
        out["roundtrip_err"] = max(out["roundtrip_err"], err)
        out["roundtrip_failed"] += not err <= TOL
        if i == 0:
            out["first"] = (f, g, c, conv)
        out["counts"] = {k: (v.additions, v.multiplications)
                         for k, v in cnt.items()}
        i += 1
    out["iterations"] = i
    return out


def oracle_errors(Y, first) -> tuple[float, float]:
    """Max errors of the first fft and convolve_fft outputs vs the oracles."""
    f, g, c, conv = first
    ref = naive_ft(f, Y)
    fft_err = max(_max_err(a, b) for a, b in zip(c.blocks, ref.blocks))
    conv_err = _max_err(conv.values, convolve_naive(f, g).values)
    return fft_err, conv_err


# -- metrics -----------------------------------------------------------------

def zeta_budget(family: str, n: int, size: int) -> tuple[int, str]:
    """The fast-zeta op budgets the test suite asserts, with their formula."""
    if family == "rotation":
        return n * n * 2 ** n + n + 1, "n^2 2^n + n + 1"
    return 2 * n * n * size, "2 n^2 |S|"


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it."""
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


class Report:
    """Metrics by name with unit, plus one printed line per metric."""

    def __init__(self):
        self.lines: list[str] = []
        self.metrics: dict[str, dict] = {}

    def show(self, name: str, value, unit: str, note: str = ""):
        """Print a metric without putting it in the result object."""
        self.lines.append(f"{name} {value} {unit}"
                          + (f"  # {note}" if note else ""))

    def add(self, name: str, value, unit: str, note: str = ""):
        self.metrics[name] = {"value": value, "unit": unit}
        self.show(name, value, unit, note)


def run(family: str, n: int, seed: int, seconds: float, trace: bool):
    """One benchmark run. Returns (report lines, result object, spans)."""
    rec = Recorder(trace)
    S, Y, main_setup = cold_setup(family, n, seed)
    setups = [main_setup] + [setup_in_fresh_interpreter(family, n, seed)
                             for _ in range(SETUP_SAMPLES - 1)]
    loop = closed_loop(S, Y, np.random.default_rng([seed, 2]), seconds, rec)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fft_err, conv_err = oracle_errors(Y, loop["first"])

    attempted = loop["iterations"] + 2
    failed = (loop["roundtrip_failed"] + (not fft_err <= TOL)
              + (not conv_err <= CONV_TOL))
    rep = Report()
    rep.lines.append(f"workload {family} n={n} |S|={len(S)} seed={seed} "
                     f"seconds={seconds} trace={int(trace)} "
                     f"iterations={loop['iterations']}")
    rep.lines.append("env " + json.dumps(environment(), sort_keys=True))
    ms = {k: [1e3 * x for x in v] for k, v in rec.samples.items()}
    setup_totals = [sum(s.values()) for s in setups]
    if not trace:
        rep.add("setup_s", statistics.median(setup_totals), "s",
                f"median of {len(setups)} cold set-ups (build + induce + "
                f"warm-up round trip): {setup_totals}")
        for op in ("fft", "ifft", "convolve"):
            rep.add(f"{op}_ms", statistics.median(ms[op]), "ms",
                    f"median of {len(ms[op])} calls")
            value, pct = tail(ms[op])
            rep.add(f"{op}_tail_ms", value, "ms",
                    f"p{pct:.1f} of {len(ms[op])} calls, "
                    f"{TAIL_BEYOND} beyond it")
        rep.add("peak_rss_mb", peak_rss_mb, "MB",
                "ru_maxrss at the end of the timed loop")
    else:
        _per_layer(rep, family, n, S, setups, ms, loop, fft_err, conv_err)
    # error_rate reads 0 when all is well, so it cannot take a relative
    # bound; the result object carries it as failed / attempted.
    rep.show("error_rate", failed / attempted, "ratio",
             f"{failed} of {attempted} checked operations failed")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": rep.metrics}
    return rep.lines, result, rec.spans


def _per_layer(rep, family, n, S, setups, ms, loop, fft_err, conv_err):
    for stage, module in (("build", "families.build"),
                          ("induce", "semigroup_fourier.induce"),
                          ("warmup", "lazy caches on the first round trip")):
        rep.add(f"{stage}.s", statistics.median(s[stage] for s in setups),
                "s", f"{module}, median of {len(setups)} cold set-ups")
    counts = loop["counts"]
    budget, formula = zeta_budget(family, n, len(S))
    zeta_ops = sum(counts["zeta"])
    rep.add("zeta.ms", statistics.median(ms["zeta"]), "ms",
            "fast_transforms.fast_zeta")
    rep.add("zeta.adds", counts["zeta"][0], "count")
    rep.add("zeta.budget_ratio", zeta_ops / budget, "ratio",
            f"{zeta_ops} counted ops / budget {formula} = {budget}")
    rep.add("zeta.fallbacks", loop["fallbacks"]["zeta"], "count",
            "CapabilityError from fast_zeta")
    rep.add("mobius.ms", statistics.median(ms["mobius"]), "ms",
            "fast_transforms.fast_mobius")
    rep.add("mobius.adds", counts["mobius"][0], "count")
    rep.add("mobius.fallbacks", loop["fallbacks"]["mobius"], "count",
            "CapabilityError from fast_mobius")
    for stage, whole, part in (("group_fwd", "fft", "zeta"),
                               ("group_inv", "ifft", "mobius")):
        diffs = [a - b for a, b in zip(ms[whole], ms[part])]
        rep.add(f"{stage}.ms", statistics.median(diffs), "ms",
                f"semigroup_fourier.{whole} minus {part}, per iteration")
        rep.add(f"{stage}.adds", counts[whole][0] - counts[part][0], "count")
        rep.add(f"{stage}.mults", counts[whole][1] - counts[part][1], "count")
    rep.add("multiply.ms", statistics.median(ms["multiply"]), "ms",
            "semigroup_fourier.multiply_spectra")
    rep.add("shape.size", len(S), "count")
    rep.add("shape.d_classes", len(S.d_classes), "count")
    rep.add("shape.pairs", sum(dc.num_idempotents ** 2 for dc in S.d_classes),
            "count", "(class, a, b) blocks")
    rep.add("shape.max_group", max(len(dc.subgroup) for dc in S.d_classes),
            "count")
    rep.add("check.roundtrip_err", loop["roundtrip_err"], "abs",
            f"max over {loop['iterations']} round trips, tolerance {TOL}")
    rep.add("check.fft_oracle_err", fft_err, "abs",
            f"fft vs naive_ft, tolerance {TOL}")
    rep.add("check.convolve_oracle_err", conv_err, "abs",
            f"convolve_fft vs convolve_naive, tolerance {CONV_TOL}")
    base = statistics.median(ms["fft_untraced"])
    rep.add("trace.overhead_pct",
            100 * (statistics.median(ms["fft"]) - base) / base, "%",
            f"traced vs untraced fft_ms, base: untraced median {base} ms")
