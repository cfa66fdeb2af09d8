"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    python3 bench/child.py --workload NAME --seed N [--trace] [--setup-only]
                           [--control fault|perturb]

The library is imported from ``src/`` of the working directory (``run.py``
sets ``PYTHONPATH``).  The child loads its references, then times set-up
(from ``import satake`` until every group of the workload has its catalog
entry, affine Weyl group, rep ring and G1 ring) and the workload body with
cold caches.  Only the library's work is timed: the body keeps its results,
and the checks against ``reference/`` run after the clock has stopped and
the tracer is removed.  The child prints one JSON object as its last line
of standard output.

Both timed phases are cut into segments at fixed points of the work (each
set-up step; each operation; for ``verify-rank3`` each entry to and return
from ``IwahoriHecke.mul``), so that ``run.py`` can compare the same piece of
work across the samples of one run.  ``--setup-only`` stops after set-up.

``--control`` is a negative control for the self-tests: ``fault`` runs the
first verify cell with ``--inject-fault`` and ``perturb`` flips one byte of
one reference, so one operation must be reported as failed.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")

# (group, bound) cells; one operation = one cell
VERIFY_CELLS = (("GL(3)", 6), ("Sp(4)*SL(2)", 4), ("GL(4)", 2))
# (group, bound) cells; one operation = one dual product c_mu * c_lam
DUAL_CELLS = (("SL(3)", 24), ("GL(3)", 14))
# (group, triples, max length); one operation = one triple T_x T_y T_z
WORD_CELLS = (("GL(3)", 300, 14), ("Sp(4)*SL(2)", 300, 10))
# seeds whose iwahori-words digests are in reference/iwahori-words.json
RECORDED_SEEDS = range(100)

WORKLOAD_GROUPS = {
    "verify-rank3": [g for g, _ in VERIFY_CELLS],
    "dual-table": [g for g, _ in DUAL_CELLS],
    "iwahori-words": [g for g, _, _ in WORD_CELLS],
}


def slug(group: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in group).strip("_")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical(f, key_str=repr) -> str:
    """Order-free text of a LinComb: sorted (key, exponent/coefficient) rows."""
    return repr(sorted((key_str(k), p.terms) for k, p in f.items()))


def load_json(name: str) -> dict:
    with open(os.path.join(REFERENCE, name)) as fh:
        return json.load(fh)


def load_references(workload: str) -> dict:
    if workload == "verify-rank3":
        refs = {}
        for group, bound in VERIFY_CELLS:
            with open(os.path.join(REFERENCE, f"verify-{slug(group)}-b{bound}.txt")) as fh:
                refs[group] = fh.read()
        return refs
    return load_json(f"{workload}.json")


def perturbed(text: str) -> str:
    return text[:-1] + chr(ord(text[-1]) ^ 1)


class Marks:
    """Clock readings at the segment boundaries of one timed phase."""

    def __init__(self):
        self.restart()

    def restart(self) -> None:
        self.times = [time.perf_counter()]

    def mark(self) -> None:
        self.times.append(time.perf_counter())

    def segments(self) -> list[float]:
        return [b - a for a, b in zip(self.times, self.times[1:])]


class Outcome:
    """Operations attempted and failed, plus per-operation digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


# -- workloads: a timed body that keeps its results, and an untimed check --


def mark_iwahori_mul(satake, marks: Marks) -> None:
    """Add a segment boundary at each entry to and return from
    ``IwahoriHecke.mul``, which splits a verify cell into pieces of about
    10 ms.  It costs two clock readings per call."""
    mul = satake.IwahoriHecke.mul

    def marked(self, a, b):
        marks.mark()
        try:
            return mul(self, a, b)
        finally:
            marks.mark()

    satake.IwahoriHecke.mul = marked


def body_verify(satake, seed: int, control: str, marks: Marks) -> list:
    from satake import cli
    results = []
    for i, (group, bound) in enumerate(VERIFY_CELLS):
        argv = ["verify", "--group", group, "--bound", str(bound), "--seed", str(seed)]
        if control == "fault" and i == 0:
            argv.append("--inject-fault")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        marks.mark()
        results.append((group, bound, rc, buf.getvalue()))
    return results


def check_verify(satake, seed, control, refs, results, out: Outcome) -> None:
    for i, (group, bound, rc, text) in enumerate(results):
        ref = refs[group]
        if control == "perturb" and i == 0:
            ref = perturbed(ref)
        out.digests[f"{group}|{bound}"] = digest(text)
        out.record(rc == 0 and "FAIL" not in text and text == ref)


def body_dual(satake, seed: int, control: str, marks: Marks) -> list:
    from satake import root_datum as rdm, verify
    rng = random.Random(seed)
    results = []
    for group, bound in DUAL_CELLS:
        rd = satake.catalog(group)
        sph = satake.SphericalHecke(rd)
        reps = rdm.dominant_reps(rd, bound)
        round_trips = []
        for f in map(sph.ic_function, reps):
            round_trips.append((f, sph.satake_inverse(sph.satake_transform(f))))
            marks.mark()
        pairs = list(verify.dominant_pairs(rd, bound))
        rng.shuffle(pairs)
        products = []
        for mu, lam in pairs:
            products.append((mu, lam, sph.c_mul_satake(mu, lam)))
            marks.mark()
        suites = [verify.suite_parity(sph, bound)]
        marks.mark()
        suites.append(verify.suite_specialization(sph, bound))
        marks.mark()
        results.append((group, round_trips, products, suites))
    return results


def check_dual(satake, seed, control, ref, results, out: Outcome) -> None:
    for group, round_trips, products, suites in results:
        cell_ok = all(back == f for f, back in round_trips) and all(ok for _, ok, _ in suites)
        for mu, lam, f in products:
            key = f"{group}|{mu}|{lam}"
            d = digest(canonical(f))
            expected = ref.get(key)
            if control == "perturb" and not out.digests:
                expected = perturbed(expected or "?")
            out.digests[key] = d
            # a failed round trip or suite fails every product of its cell
            out.record(d == expected and cell_ok)


def word_inputs(satake, seed: int):
    """The seeded (group, words) triples of iwahori-words.  A word of n
    simple reflections has length at most n, so no rejection is needed."""
    rng = random.Random(seed)
    out = []
    for group, triples, max_length in WORD_CELLS:
        n = len(satake.affine_weyl_group(satake.catalog(group)).simple_refs)
        for _ in range(triples):
            out.append((group, tuple(
                tuple(rng.randrange(n) for _ in range(rng.randrange(max_length + 1)))
                for _ in range(3))))
    return out


def body_words(satake, seed: int, control: str, marks: Marks) -> list:
    inputs = word_inputs(satake, seed)
    marks.restart()       # making the inputs is not the library's work
    results = []
    for group, words in inputs:
        rd = satake.catalog(group)
        W = satake.affine_weyl_group(rd)
        iw = satake.iwahori_hecke(rd)
        x, y, z = map(W.word_to_element, words)
        X, Y, Z = iw.basis(x), iw.basis(y), iw.basis(z)
        left = iw.mul(iw.mul(X, Y), Z)
        right = iw.mul(X, iw.mul(Y, Z))
        marks.mark()
        results.append((group, (x, y, z), left, right))
    return results


def check_words(satake, seed, control, ref, results, out: Outcome) -> None:
    from satake.weyl import render_affine
    by_group: dict[str, list] = {}
    for group, (x, y, z), left, right in results:
        W = satake.affine_weyl_group(satake.catalog(group))
        # at q = 1 the Hecke algebra is the group algebra: the product is xyz
        at_one = {k: p.eval_at_one() for k, p in left.items()}
        group_law = {k: c for k, c in at_one.items() if c} == {W.mul(W.mul(x, y), z): 1}
        d = digest(canonical(left, render_affine))
        by_group.setdefault(group, []).append((left == right and group_law, d))
    recorded = ref.get(str(seed), {})
    for i, (group, rows) in enumerate(by_group.items()):
        combined = digest("".join(d for _, d in rows))
        expected = recorded.get(group)
        if control == "perturb" and i == 0:
            expected = perturbed(expected or "?")
        out.digests[group] = combined
        # outside RECORDED_SEEDS the exact self-checks (associativity, q = 1)
        # decide alone; a digest mismatch fails every triple of the group
        digest_ok = combined == expected if expected or seed in RECORDED_SEEDS else True
        for ok, _ in rows:
            out.record(ok and digest_ok)


WORKLOADS = {
    "verify-rank3": (body_verify, check_verify),
    "dual-table": (body_dual, check_dual),
    "iwahori-words": (body_words, check_words),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--control", choices=("none", "fault", "perturb"), default="none")
    args = ap.parse_args(argv)
    body, check = WORKLOADS[args.workload]
    refs = load_references(args.workload)

    setup = Marks()
    import satake
    setup.mark()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    for group in WORKLOAD_GROUPS[args.workload]:
        rd = satake.catalog(group)
        setup.mark()
        satake.affine_weyl_group(rd)
        setup.mark()
        satake.rep_ring(rd)
        setup.mark()
        satake.g1_ring(rd)
        setup.mark()
    result = {"setup_segments": setup.segments(), "setup_s": setup.times[-1] - setup.times[0]}
    out = Outcome()
    if not args.setup_only:
        timed = Marks()
        if args.workload == "verify-rank3" and tracer is None:
            mark_iwahori_mul(satake, timed)
        results = body(satake, args.seed, args.control, timed)
        timed.mark()
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
        check(satake, args.seed, args.control, refs, results, out)
        result.update(segments=timed.segments(), wall_s=timed.times[-1] - timed.times[0],
                      peak_rss_kb=peak_rss_kb)
        if tracer is not None:
            result["trace"] = tracer.snapshot()

    result.update(
        attempted=out.attempted,
        failed=out.failed,
        library=os.path.dirname(satake.__file__),
        digests=out.digests,
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
