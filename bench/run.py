"""Benchmark of the satake library: end-to-end timings per workload, or
per-layer metrics from an outside-in traced run.

    python3 bench/run.py --workload verify-rank3 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the library is imported from ``src/`` and
nowhere else.  Every sample is one fresh child interpreter (``child.py``)
that runs the whole workload once with cold caches; samples repeat, one
at a time and each on the vCPU that a short probe finds fastest, until
``--seconds`` have passed.  With ``--trace 0`` the result holds the
end-to-end metrics: set-up and body times summed over the segments of the
work from the fastest reading of each segment among the run's samples, and
the median peak memory.  With ``--trace 1`` it holds the per-layer metrics
of traced samples, plus the tracing overhead against one untraced sample.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verify-rank3", "dual-table", "iwahori-words")
DEADLINE_S = 170          # a run must end within 180 s
SETUP_SAMPLES = 10        # set-up-only children per end-to-end run
CPUS = os.sched_getaffinity(0)

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

# spans reported with .calls, .total_s and .self_s
SPANS = (
    "weyl.AffineWeylGroup.mul", "weyl.AffineWeylGroup.im_length",
    "weyl.FiniteWeylGroup.mul", "weyl.AffineWeylGroup.reduced_word",
    "hecke.IwahoriHecke.mul", "hecke.SphericalHecke.c_mul_iwahori",
    "weyl.AffineWeylGroup.spherical_double_coset",
    "weyl.AffineWeylGroup.dominant_representative",
    "laurent.LaurentPoly.divexact",
    "rep_ring.RepRing.tensor_decompose", "rep_ring.RepRing.kostant_partition",
    "rep_ring.RepRing.lusztig_q_analog", "rep_ring.RepRing.weight_multiplicity",
    "rep_ring.RepRing.character", "rep_ring.G1Ring.quotient_normal_form",
    "k0.SatakeK0.convolve_ic", "k0.SatakeK0.ic_function", "k0.SatakeK0.stalk_polynomial",
    "hecke.SphericalHecke.c_mul_satake", "hecke.SphericalHecke.to_ic_basis",
    "hecke.SphericalHecke.from_ic_basis", "hecke.SphericalHecke.satake_transform",
    "root_datum.d_pairing",
    "linear.LinComb.__add__", "linear.LinComb.bilinear", "laurent.LaurentPoly.__mul__",
)
CALLS_ONLY = ("lattices.mat_mul", "root_datum.RootDatum.pair")
TOTAL_ONLY = ("weyl.FiniteWeylGroup.__init__", "verify.suite_cross_path",
              "verify.suite_associativity", "verify.suite_parity",
              "verify.suite_specialization", "verify.suite_transform")
COUNTERS = ("hecke.IwahoriHecke.mul.right_terms", "hecke.IwahoriHecke.mul.out_terms",
            "weyl.double_coset.max_size", "linear.LinComb.__add__.terms")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in SPANS:
        units.update({f"{span}.calls": "count", f"{span}.total_s": "s", f"{span}.self_s": "s"})
    units.update({f"{span}.calls": "count" for span in CALLS_ONLY})
    units.update({f"{span}.total_s": "s" for span in TOTAL_ONLY})
    units.update({name: "count" for name in COUNTERS})
    units["hecke.SphericalHecke.c_mul_iwahori.cache_hit_ratio"] = "ratio"
    units.update({f"layer_share.{layer}": "ratio" for layer in LAYERS})
    units["traced_wall_s"] = "s"
    units["trace_overhead_frac"] = "ratio"
    return units


# -- samples ---------------------------------------------------------------


def child_env(root: str) -> dict[str, str]:
    """The caller's environment without the ``SATAKE_*`` defaults the CLI
    reads, with the library on the path and a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SATAKE_")}
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    return env


def _probe_block() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(5000):
        acc += i * i % 7
    return time.perf_counter() - t0


def fastest_cpu(cpus: set[int]) -> int:
    """The CPU of ``cpus`` on which a fixed loop of about 0.3 ms runs
    fastest now, by the median of 40 repetitions.

    On a shared 2-vCPU virtual machine (Xeon, 2.0 GHz) each vCPU was seen
    to switch between a fast and a slow state for seconds at a time,
    independently of the other; a sample on the vCPU that is fast when it
    starts is more often fast throughout."""
    speeds = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = statistics.median(_probe_block() for _ in range(40))
    os.sched_setaffinity(0, cpus)
    return min(speeds, key=speeds.get)


def run_child(root: str, workload: str, seed: int, trace: bool = False,
              setup_only: bool = False, control: str = "none",
              timeout: float = DEADLINE_S) -> dict:
    """One sample in a fresh interpreter; raises RuntimeError if it fails."""
    src = os.path.join(root, "src")
    cmd = [sys.executable, "-s", os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--control", control]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    cpu = fastest_cpu(CPUS)
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                          text=True, timeout=timeout,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if os.path.commonpath([result["library"], src]) != src:
        raise RuntimeError(f"satake was imported from {result['library']}, not {src}")
    return result


def collect(root: str, workload: str, seed: int, seconds: float, trace: bool,
            start: float) -> list[dict]:
    """Samples while the next one is expected to end within ``seconds``;
    at least one, and never past the deadline."""
    samples = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if samples and (elapsed + longest > seconds or elapsed + 1.5 * longest > DEADLINE_S):
            return samples
        t0 = time.monotonic()
        samples.append(run_child(root, workload, seed, trace=trace, timeout=DEADLINE_S - elapsed))
        longest = max(longest, time.monotonic() - t0)


def outputs_agree(samples: list[dict]) -> bool:
    return all(s["digests"] == samples[0]["digests"] for s in samples)


# -- reports ---------------------------------------------------------------


def fastest_sum(runs: list[list[float]]) -> float:
    """Sum over segments of the fastest time of each segment.

    ``runs`` holds one list of segment times per sample; every sample of
    one seed cuts the same work into the same segments.  Where the machine's
    speed switches between a fast and a slow state every few seconds, a
    whole sample's time varies by 20% and more; the fastest reading of each
    short segment varies far less."""
    if len({len(times) for times in runs}) != 1:
        raise RuntimeError("samples of one seed cut their work into different segments")
    return sum(min(times) for times in zip(*runs))


def end_to_end(samples: list[dict], setups: list[dict]) -> dict[str, float]:
    wall_s = fastest_sum([s["segments"] for s in samples])
    return {
        "setup_s": fastest_sum([s["setup_segments"] for s in samples + setups]),
        "wall_s": wall_s,
        "ops_per_s": samples[0]["attempted"] / wall_s,
        "peak_rss_mb": statistics.median(s["peak_rss_kb"] / 1024 for s in samples),
    }


def per_layer(traced: list[dict], base_wall_s: float) -> tuple[dict[str, float], bool]:
    """Medians over the traced samples, counters of the first one; the
    flag says whether every traced sample made exactly the same calls."""
    spans = [s["trace"]["spans"] for s in traced]
    counters = traced[0]["trace"]["counters"]
    same_calls = all({n: v["calls"] for n, v in sp.items()}
                     == {n: v["calls"] for n, v in spans[0].items()} for sp in spans)

    def median(span: str, field: str) -> float:
        return statistics.median(sp.get(span, {}).get(field, 0) for sp in spans)

    out = {}
    for name in per_layer_units():
        span, _, field = name.rpartition(".")
        if field in ("calls", "total_s", "self_s"):
            out[name] = median(span, field)
    out.update({name: counters.get(name, 0) for name in COUNTERS})
    calls = out["hecke.SphericalHecke.c_mul_iwahori.calls"]
    hits = counters.get("hecke.SphericalHecke.c_mul_iwahori.cache_hits", 0)
    out["hecke.SphericalHecke.c_mul_iwahori.cache_hit_ratio"] = hits / calls if calls else 0.0
    # self time per layer module, as a share of the traced set-up plus body
    traced_s = statistics.median(s["setup_s"] + s["wall_s"] for s in traced)
    for layer in LAYERS:
        self_s = statistics.median(
            sum(v["self_s"] for n, v in sp.items() if n.startswith(layer + ".")) for sp in spans)
        out[f"layer_share.{layer}"] = self_s / traced_s
    out["traced_wall_s"] = statistics.median(s["wall_s"] for s in traced)
    out["trace_overhead_frac"] = out["traced_wall_s"] / base_wall_s - 1
    return out, same_calls


def read_commit(root: str) -> str:
    """HEAD of the checkout's git repository, if it is one, from the files."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: str, workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(CPUS),
        "loadavg": list(os.getloadavg()),
        "commit": read_commit(root),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "satake", "__init__.py")):
        print(f"error: no satake sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    # the build step: byte-compile the sources so that no sample pays for it
    if not compileall.compile_dir(src, quiet=1):
        print("error: the satake sources do not compile", file=sys.stderr)
        return 2

    print("provenance: " + json.dumps(provenance(root, args.workload, args.seed)))
    try:
        if args.trace:
            base = run_child(root, args.workload, args.seed)
            samples = collect(root, args.workload, args.seed, args.seconds, True, start)
            metrics, same_calls = per_layer(samples, base["wall_s"])
            units = per_layer_units()
            samples.append(base)
        else:
            setups = [run_child(root, args.workload, args.seed, setup_only=True)
                      for _ in range(SETUP_SAMPLES)]
            samples = collect(root, args.workload, args.seed, args.seconds, False, start)
            metrics, same_calls = end_to_end(samples, setups), True
            units = dict(END_TO_END)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    agree = outputs_agree(samples)
    correct = failed == 0 and agree and same_calls
    print(f"samples: {len(samples)} fresh interpreters, one at a time")
    for name, unit in units.items():
        print(f"  {name:<56} {metrics[name]:>14.6g} {unit}")
    print(f"  {'ops_failed_frac':<56} {failed / attempted:>14.6g} ratio"
          f"  ({failed} of {attempted} operations)")
    if not agree:
        print("  outputs differ between samples of one seed")
    if not same_calls:
        print("  traced call counts differ between samples of one seed")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
