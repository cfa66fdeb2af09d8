"""Command-line interface: reproducible table/JSON emitters for every
computation, plus the self-verification suites.

Flags mirror environment variables with the ``SATAKE_`` prefix, so golden
file testing can be driven either way.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import root_datum as rdm
from .hecke import HeckeError, SphericalHecke
from .k0 import ICClass, purity_weight
from .lattices import Vec
from .linear import LinComb
from .rep_ring import G1RepClass
from .root_datum import RootDatum, RootDatumError, catalog
from .verify import RunConfig, run_all
from .weyl import render_affine


def _env(name: str, default):
    return os.environ.get(f"SATAKE_{name}", default)


class UsageError(ValueError):
    """Malformed command-line input, reported as one ``error:`` line."""


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise UsageError(f"{what} must be comma-separated integers, got {text!r}") from None


def _c_str(mu: Vec) -> str:
    return f"c[{','.join(map(str, mu))}]"


def _g1_key_json(cls: G1RepClass) -> dict:
    return {"mu": list(cls.mu), "k": cls.k}


def _g1_order(cls: G1RepClass) -> tuple:
    return cls.mu, cls.k


def _terms_json(basis: str, x: LinComb, key_json, order) -> dict:
    return {
        "basis": basis,
        "terms": [{"key": key_json(k), "poly": x.coefficient(k).to_json()}
                  for k in sorted(x.keys(), key=order)],
    }


def cmd_describe(config: RunConfig, args) -> int:
    rd = config.root_datum()
    data = rdm.g1_data(rd)
    free, torsion = rdm.pi1_invariants(rd)
    doc = {
        "group": rd.name,
        "rank": rd.rank,
        "simple_roots": [list(r) for r in rd.simple_roots],
        "simple_coroots": [list(r) for r in rd.simple_coroots],
        "positive_roots": [list(r) for r in rd.positive_roots],
        "two_rho": list(rd.two_rho()),
        "pi1": {"free_rank": free, "torsion_order": torsion},
        "dual_group": data.dual_datum.name,
        "epsilon_trivial": data.epsilon_trivial,
        "direct_product": data.direct_product,
        "modified_dual_group": rdm.g1_description(rd),
    }
    if config.json_output:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"group: {doc['group']} (rank {doc['rank']})")
        print(f"simple roots:   {doc['simple_roots']}")
        print(f"simple coroots: {doc['simple_coroots']}")
        print(f"2rho: {doc['two_rho']}")
        print(f"pi_1: free rank {free}, torsion order {torsion}")
        print(f"dual group: {doc['dual_group']}")
        print(f"epsilon: {'trivial' if data.epsilon_trivial else 'nontrivial'}"
              + ("; modified dual group is a direct product" if data.direct_product else ""))
        print(f"modified dual group: {doc['modified_dual_group']}")
    return 0


def cmd_hecke_mul(config: RunConfig, args) -> int:
    rd = config.root_datum()
    sph = SphericalHecke(rd, signed_trace=config.signed_trace)
    iw = sph.iwahori
    factors = []
    n_simple = len(sph.W.simple_refs)
    for w in args.words:
        word = () if w in ("e", "") else _parse_ints(w, "words")
        if word and not n_simple:
            raise UsageError(f"{rd.name} has no affine simple reflections; the only word is 'e'")
        if any(not 0 <= i < n_simple for i in word):
            raise UsageError(f"word {w!r} has an index outside 0..{n_simple - 1}")
        factors.append(sph.W.word_to_element(word))
    prod = iw.unit()
    try:
        for x in factors:
            prod = iw.mul(prod, iw.basis(x))
    except HeckeError as exc:
        raise UsageError(f"product too long: {exc}") from None
    rows = sorted(((render_affine(k), str(p)) for k, p in prod.items()))
    if config.json_output:
        print(json.dumps({"factors": [render_affine(x) for x in factors],
                          "terms": [{"key": k, "poly": p} for k, p in rows]}, indent=2))
    else:
        print(" * ".join(f"T[{render_affine(x)}]" for x in factors) + " =")
        for k, p in rows:
            print(f"  ({p}) * T[{k}]")
    return 0


def cmd_ic_convolve(config: RunConfig, args) -> int:
    rd = config.root_datum()
    sph = SphericalHecke(rd, signed_trace=config.signed_trace)
    a = ICClass(rdm.assert_dominant(rd, _parse_ints(args.mu, "--mu")), args.n)
    b = ICClass(rdm.assert_dominant(rd, _parse_ints(args.lam, "--lam")), args.m)
    conv = sph.k0.convolve_ic(a, b)
    wsum = purity_weight(rd, a) + purity_weight(rd, b)
    rows = []
    for cls in sorted(conv.keys(), key=lambda c: (c.mu, c.n)):
        mult = conv.coefficient(cls).eval_at_one()
        rows.append({"nu": list(cls.mu), "multiplicity": mult, "twist": cls.n,
                     "weight": purity_weight(rd, cls),
                     "weight_additive": purity_weight(rd, cls) == wsum})
    if config.json_output:
        print(json.dumps({"a": {"mu": list(a.mu), "n": a.n},
                          "b": {"mu": list(b.mu), "n": b.n}, "rows": rows}, indent=2))
    else:
        print(f"{a!r} * {b!r} =")
        print(f"{'nu':>12} {'N':>4} {'twist':>6} {'weight':>7} {'additive':>9}")
        for r in rows:
            print(f"{str(tuple(r['nu'])):>12} {r['multiplicity']:>4} {r['twist']:>6} "
                  f"{r['weight']:>7} {str(r['weight_additive']):>9}")
    return 0


def cmd_satake_table(config: RunConfig, args) -> int:
    rd = config.root_datum()
    sph = SphericalHecke(rd, signed_trace=config.signed_trace)
    rows = []
    for mu in rdm.dominant_reps(rd, config.bound):
        f = sph.ic_function(mu)
        rows.append((mu, f, sph.satake_transform(f)))
    extra = sph.ic_function((0,) * rd.rank, -1)
    if config.json_output:
        print(json.dumps({"group": rd.name, "bound": config.bound,
                          "rows": [{"mu": list(mu),
                                    "trace_function": _terms_json("c", f, list, tuple),
                                    "transform": _terms_json("G1", t, _g1_key_json, _g1_order)}
                                   for mu, f, t in rows],
                          "unit_twisted": _terms_json("c", extra, list, tuple)}, indent=2))
    else:
        print(f"trace functions of intersection-motive classes, {rd.name}, d <= {config.bound}")
        for mu, f, t in rows:
            print(f"  f[{','.join(map(str, mu))}] = {f.render(_c_str, tuple)}"
                  f"   ->   {t.render(repr, _g1_order)}")
        print(f"  f[0](-1) = {extra.render(_c_str, tuple)}")
    return 0


def cmd_verify(config: RunConfig, args) -> int:
    results = run_all(config, inject_fault=args.inject_fault)
    if config.json_output:
        print(json.dumps({"group": config.group, "bound": config.bound,
                          "seed": config.seed,
                          "results": [{"suite": n, "passed": ok, "detail": d}
                                      for n, ok, d in results]}, indent=2))
    else:
        for name, ok, detail in results:
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", default=_env("GROUP", "PGL(2)"),
                        help="catalog group, e.g. GL(2), SL(3), PGL(2), Sp(4), SO(5), torus(1)")
    common.add_argument("--bound", type=int, default=int(_env("BOUND", "6")),
                        help="max <2rho, mu> for tables and sweeps")
    common.add_argument("--signed-trace", action="store_true",
                        default=_env("SIGNED_TRACE", "") not in ("", "0"),
                        help="use the alternating sign convention for trace functions")
    common.add_argument("--json", action="store_true",
                        default=_env("JSON", "") not in ("", "0"))
    common.add_argument("--seed", type=int, default=int(_env("SEED", "0")))

    parser = argparse.ArgumentParser(prog="satake")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("describe", parents=[common],
                   help="root datum, dual datum, fundamental group, modified dual group")

    p = sub.add_parser("hecke-mul", parents=[common],
                       help="product of T-basis elements given by words in affine simple indices")
    p.add_argument("words", nargs="+", help="comma-separated indices, or 'e'")

    p = sub.add_parser("ic-convolve", parents=[common],
                       help="convolution of two twisted intersection-motive classes")
    p.add_argument("--mu", required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--lam", required=True)
    p.add_argument("--m", type=int, default=0)

    sub.add_parser("satake-table", parents=[common],
                   help="trace functions in the c-basis with their transform images")

    p = sub.add_parser("verify", parents=[common],
                       help="run all self-verification suites; nonzero exit on failure")
    p.add_argument("--inject-fault", action="store_true",
                   help="negative control: corrupt a stalk polynomial and expect detection")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.bound < 0:
        print("bound must be >= 0", file=sys.stderr)
        return 2
    config = RunConfig(group=args.group, bound=args.bound,
                       signed_trace=args.signed_trace,
                       json_output=args.json, seed=args.seed)
    try:
        handler = {
            "describe": cmd_describe,
            "hecke-mul": cmd_hecke_mul,
            "ic-convolve": cmd_ic_convolve,
            "satake-table": cmd_satake_table,
            "verify": cmd_verify,
        }[args.command]
        return handler(config, args)
    except (RootDatumError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
