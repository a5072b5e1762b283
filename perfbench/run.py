"""Benchmark of negdep's exact decisions, end to end and per layer.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` there, never from an installed copy. One run is one workload in one
process with ``jobs=1``:

* one untimed set-up and pass come first. Then rounds repeat while the next
  one, as long as the last, would still end within ``--seconds``; at least
  one runs. A round is ``SETUP_REPS_PER_PASS`` set-ups (fresh import of
  ``negdep``, every law built, law files written) and one pass over the
  workload's laws. ``peak_rss_mb`` is read after the first round;
* every timed region (a set-up, or one law in a pass) is scaled by the host's
  speed while it ran: a SIGALRM timer runs a small reference kernel every
  20 ms, inside the regions too, because the host switches between a fast and
  a slow state, about 2x apart, many times a minute (see README.md);
* ``setup_s`` is the median scaled set-up. A law's time is the median of its
  scaled passes, and ``decide_s`` sums the laws' times. ``law_ms_p50`` and
  ``law_ms_p90`` average the percentiles from 5 below to 5 above 50 and 90;
* every decision is gated: a raised exception, a verdict or ``definitive``
  flag that differs from its pin, a FALSE witness that ``verify_witness``
  rejects, or any change between passes counts as failed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, and writes the
spans to ``.perfbench-out/``. The last line of standard output is the result
object; earlier lines starting with ``#`` record the machine and the counts.
``--workload all`` runs every workload, each in its own process, and prints
one line per metric.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
PINS = os.path.join(HERE, "pins.json")
SETUP_REPS_PER_PASS = 3
CHILD_TIMEOUT_S = 175
# times are scaled to a host on which reference() takes REFERENCE_S, its
# typical time (0.35 ms) in the fast state of the 2-vCPU Xeon host it was
# written on
REFERENCE_S = 0.00035
# reference() runs every PROBE_EVERY_S; the host's speed during a region is
# the trimmed mean of the probes from PROBE_WINDOW_S before it to as long
# after it, the window doubling until it holds PROBE_MIN probes
PROBE_EVERY_S = 0.02
PROBE_WINDOW_S = 0.05
PROBE_MIN = 3

import layertrace  # noqa: E402  (the script directory is on sys.path)
from workloads import WORKLOADS  # noqa: E402


def fresh_negdep():
    """Import negdep from this checkout, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "negdep" or n.startswith("negdep.")]:
        del sys.modules[name]
    nd = importlib.import_module("negdep")
    importlib.import_module("negdep.cli")
    if os.path.dirname(os.path.abspath(nd.__file__)) != os.path.join(SRC, "negdep"):
        raise ImportError(f"negdep was imported from {nd.__file__}, not from {SRC}")
    return nd


def reference() -> tuple:
    """Fixed stand-in for negdep's inner loops that shares no code with it:
    exact-rational sums and tuple-keyed dict updates."""
    total = Fraction(0)
    counts = {}
    for i in range(1, 120):
        total += Fraction(i % 7, i % 97 + 1)
        key = (i % 13, i % 7)
        counts[key] = counts.get(key, 0) + i
    return total, len(counts)


def _trimmed_mean(values) -> float:
    """Mean without the highest and lowest tenth."""
    values = sorted(values)
    cut = len(values) // 10
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


class SpeedProbe:
    """Times reference() from a SIGALRM handler every PROBE_EVERY_S of wall
    time, so that the host's speed is known inside every timed region too."""

    def __init__(self):
        self.starts = []
        self.times = []

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        reference()
        self.starts.append(start)
        self.times.append(perf_counter() - start)

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def busy(self, span) -> float:
        """A region's wall time without the probes that ran inside it."""
        start, end = span
        low = bisect.bisect_left(self.starts, start)
        high = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.times[low:high])

    def scaled(self, span) -> float:
        """A region's busy time at reference speed."""
        start, end = span
        window = PROBE_WINDOW_S
        while True:
            low = bisect.bisect_left(self.starts, start - window)
            high = bisect.bisect_right(self.starts, end + window)
            if high - low >= PROBE_MIN or window > end - start + 60:
                break
            window *= 2
        return self.busy(span) * REFERENCE_S / _trimmed_mean(self.times[low:high])


def machine_record() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "commit": _commit(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def verdict_digest(vector) -> str:
    text = "\n".join(f"{k}:{prop}:{holds}:{definitive}"
                     for k, prop, holds, definitive in vector)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Run:
    """One workload in this process: set-up, passes and the correctness gate."""

    def __init__(self, workload: str, seed: int, workdir: str, tracer=None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.nd = None
        self.items = []
        self.attempted = 0
        self.failed = 0
        self.first_keys = None
        self.vector = []
        self.stats = [0, 0, 0, 0]

    def setup(self, rep: int | None = None) -> tuple[float, float]:
        """Import negdep afresh and build the laws; traced as set-up ``rep``."""
        tracer = self.tracer if rep is not None else None
        start = perf_counter()
        nd = fresh_negdep()
        if tracer is not None:
            tracer.pass_key = ("setup", rep)
            tracer.install()
        items = WORKLOADS[self.workload](nd, self.seed, self.workdir)
        end = perf_counter()
        if tracer is not None:
            tracer.uninstall()
        self.nd, self.items = nd, items
        return start, end

    def decide(self, traced_key=None) -> list[tuple[float, float]]:
        """One timed pass over every law, then the untimed gate; returns the
        (start, end) of each law's call."""
        tracer = self.tracer if traced_key is not None else None
        if tracer is not None:
            tracer.pass_key = traced_key
            tracer.install()
        spans, results = [], []
        try:
            for item in self.items:
                start = perf_counter()
                try:
                    results.append((item.run(), None))
                except Exception as exc:  # a failed decision is counted, not fatal
                    results.append((None, exc))
                spans.append((start, perf_counter()))
        finally:
            if tracer is not None:
                tracer.uninstall()
        self._gate(results)
        return spans

    def _gate(self, results) -> None:
        first = self.first_keys is None
        keys = []
        for k, (item, (result, error)) in enumerate(zip(self.items, results)):
            self.attempted += len(item.props)
            decisions = None
            if error is not None:
                traceback.print_exception(error, file=sys.stderr)
            else:
                try:
                    decisions = item.decisions(result)
                except Exception:  # an unreadable result fails every decision in it
                    traceback.print_exc(file=sys.stderr)
            if decisions is None:
                self.failed += len(item.props)
                keys.append(None)
                continue
            previous = None if first else self.first_keys[k]
            item_keys = []
            for j, prop in enumerate(item.props):
                d = decisions.get(prop)
                item_keys.append(None if d is None else d.key)
                if first:
                    self.vector.append((k, prop, getattr(d, "holds", None),
                                        getattr(d, "definitive", None)))
                expected = previous[j] if previous else None
                if not self._decision_ok(item, prop, d, first, expected):
                    self.failed += 1
                elif first:
                    self.stats = [a + b for a, b in zip(self.stats, d.stats)]
            keys.append(item_keys)
        if first:
            self.first_keys = keys

    def _decision_ok(self, item, prop, d, first, expected_key) -> bool:
        if d is None or d.holds is None:
            print(f"# {item.label}: no verdict for {prop}", file=sys.stderr)
            return False
        if item.pins is not None and item.pins[prop] != (d.holds, d.definitive):
            print(f"# {item.label}: {prop} gave holds={d.holds} definitive={d.definitive}, "
                  f"pinned {item.pins[prop]}", file=sys.stderr)
            return False
        if not first:
            if d.key != expected_key:
                print(f"# {item.label}: {prop} changed between passes", file=sys.stderr)
                return False
            return True
        if not d.holds and d.verdict is not None:
            try:
                self.nd.checks.verify_witness(d.law, d.verdict)
            except Exception as exc:  # any failure to re-derive the witness rejects it
                print(f"# {item.label}: {prop} witness rejected: {exc!r}", file=sys.stderr)
                return False
        return True

    def check_digest(self) -> None:
        """Compare the first pass's verdict vector with the pin for this seed."""
        pinned = load_pins().get(self.workload, {}).get(str(self.seed))
        if pinned is None:
            return
        digest = verdict_digest(self.vector)
        if digest != pinned:
            print(f"# verdict digest {digest} differs from the pin {pinned}", file=sys.stderr)
            self.failed = self.attempted


def _band_percentile(values, q: int) -> float:
    """Mean of the percentiles q-5 to q+5: with a few hundred laws a single
    order statistic moves with which laws the seed drew, the band much less."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return statistics.fmean(cuts[q - 6:q + 5])


def _law_times(passes, measure) -> list[float]:
    """Each law's time: the median over the passes of ``measure(span)``."""
    return [statistics.median(map(measure, spans)) for spans in zip(*passes)]


def _raw(span) -> float:
    return span[1] - span[0]


def _pass_s(spans) -> float:
    return sum(map(_raw, spans))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tracer = layertrace.Tracer() if trace else None
    # the traced run reports unscaled times, so no probe interrupts its spans
    probe = None if trace else SpeedProbe()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as workdir, \
            probe or contextlib.nullcontext():
        run = Run(workload, seed, workdir, tracer)
        setups, untraced, traced = [], [], []
        start = perf_counter()
        # an untimed first pass: the first pass in a process runs about 5%
        # slower, in memory not yet reused, and it also carries the gate's
        # witness checks
        run.setup()
        run.decide()
        peak_rss = None
        while True:
            # set-up repetitions sit between passes, so that a few seconds of
            # slow host do not move every sample of either
            round_start = perf_counter()
            for _ in range(SETUP_REPS_PER_PASS):
                setups.append(run.setup(len(setups)))
            untraced.append(run.decide())
            if trace:
                traced.append(run.decide(traced_key=("pass", len(traced))))
            if peak_rss is None:
                # the same work in every run, however many rounds fit
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            now = perf_counter()
            if now - start + (now - round_start) > seconds:
                break
        run.check_digest()

    print("# machine " + json.dumps(machine_record()))
    print(f"# workload {workload} seed {seed}: {len(setups)} set-ups, {len(untraced)} untraced "
          f"and {len(traced)} traced passes of {len(run.items)} laws; CheckStats per pass "
          f"(cells, conditioning_pairs, st_checks, upper_sets) = {tuple(run.stats)}; "
          f"verdict digest {verdict_digest(run.vector)}")
    print("# untraced passes (s): " + " ".join(f"{_pass_s(p):.3f}" for p in untraced)
          + "; set-ups (s): " + " ".join(f"{_raw(t):.3f}" for t in setups))
    if trace:
        metrics = layertrace.per_layer_metrics(
            tracer, [("setup", rep) for rep in range(len(setups))],
            [("pass", n) for n in range(len(traced))],
            statistics.median(map(_pass_s, traced)), statistics.median(map(_pass_s, untraced)))
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{workload}.jsonl"), {
            "run_id": f"{workload}-{seed}-{os.getpid()}-{time.time_ns()}",
            "workload": workload, "seed": seed, "machine": machine_record(),
            "fields": ["run_id", "workload", "span", "parent", "name", "layer",
                       "start", "end", "pass"],
        })
    else:
        print(f"# reference: median {statistics.median(probe.times) * 1000:.3f} ms over "
              f"{len(probe.times)} probes; unscaled decide_s "
              f"{sum(_law_times(untraced, probe.busy)):.4f}, "
              f"setup_s {statistics.median(map(probe.busy, setups)):.4f}")
        law_s = _law_times(untraced, probe.scaled)
        law_ms = [1000.0 * t for t in law_s]
        metrics = {
            "decide_s": {"value": sum(law_s), "unit": "s"},
            "setup_s": {"value": statistics.median(map(probe.scaled, setups)), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MiB"},
            "law_ms_p50": {"value": _band_percentile(law_ms, 50), "unit": "ms"},
            "law_ms_p90": {"value": _band_percentile(law_ms, 90), "unit": "ms"},
        }
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process; one line per metric."""
    env = {k: v for k, v in os.environ.items() if k != "NEGDEP_CAPS"}
    ok = True
    print("# machine " + json.dumps(machine_record()))
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{workload}: correct={result['correct']} decisions={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # default_caps() reads NEGDEP_CAPS, which changes what gets enumerated
    os.environ.pop("NEGDEP_CAPS", None)
    if not os.path.isfile(os.path.join(SRC, "negdep", "__init__.py")):
        print(f"error: no negdep sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
