"""Outside-in tracer for the satake layer modules.

``Tracer.install()`` replaces, on the module and class objects themselves,
every public function and method defined in the layer modules with a
timing wrapper, and ``uninstall()`` puts the originals back.  Nothing in
the library changes; the tracer only rebinds attributes.

What it sees:
  * module functions called through the module attribute
    (``rdm.d_pairing(...)``, ``lattices.mat_mul(...)``) or through a global
    name of the defining module (``suite_quadratic(...)`` inside ``verify``);
  * every method looked up on a class, including the operator methods
    listed in ``DUNDERS``, classmethods and staticmethods.

What it cannot see:
  * names bound by ``from .lattices import mat_vec, vadd`` (and every
    other ``from X import f``): the importing module keeps the original
    function object, so ``mat_vec``, ``vadd``, ``vsub``, ``zero_vec`` and,
    for example, ``affine_weyl_group`` called from ``hecke`` are invisible;
  * properties (``LaurentPoly.terms``, ``RootDatum.semisimple_rank``),
    private helpers (names starting with ``_``), ``__eq__``/``__hash__``,
    and functions outside the modules in ``LAYERS`` (``cli``).

Each wrapped call is one span.  Spans are aggregated in memory per name
into calls, total time (outermost activation only, so recursion is not
counted twice) and self time (duration minus the time spent in wrapped
callees).  A few hooks add counters at the same boundaries.
"""
from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("weyl", "lattices", "root_datum", "hecke", "k0", "rep_ring",
          "linear", "laurent", "verify")
DUNDERS = frozenset(("__init__", "__add__", "__sub__", "__mul__", "__neg__"))


class Tracer:
    def __init__(self):
        # name -> [calls, total_s, self_s, active depth]
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self._open: list[float] = []      # callee time of each open span
        self._restore: list[tuple] = []
        self._hooks = {
            "hecke.IwahoriHecke.mul": (None, self._count_iwahori_mul),
            "hecke.SphericalHecke.c_mul_iwahori": (_cache_size, self._count_cache_hit),
            "weyl.AffineWeylGroup.spherical_double_coset": (None, self._count_coset),
            "linear.LinComb.__add__": (None, self._count_add_terms),
        }

    # -- counters at layer boundaries ----------------------------------

    def _bump(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _count_iwahori_mul(self, args, result, _before) -> None:
        self._bump("hecke.IwahoriHecke.mul.right_terms", len(args[2]))
        self._bump("hecke.IwahoriHecke.mul.out_terms", len(result))

    def _count_cache_hit(self, args, _result, before) -> None:
        if before is not None and _cache_size(args) == before:
            self._bump("hecke.SphericalHecke.c_mul_iwahori.cache_hits", 1)

    def _count_coset(self, _args, result, _before) -> None:
        name = "weyl.double_coset.max_size"
        self.counters[name] = max(self.counters.get(name, 0), len(result[0]))

    def _count_add_terms(self, args, _result, _before) -> None:
        self._bump("linear.LinComb.__add__.terms", len(args[0]) + len(args[1]))

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        before, after = self._hooks.get(name, (None, None))
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before(args) if before else None
            st[3] += 1
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = open_spans.pop()
                st[3] -= 1
                st[0] += 1
                st[2] += dt - inner
                if not st[3]:
                    st[1] += dt
                if open_spans:
                    open_spans[-1] += dt
            if after:
                after(args, result, token)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, prefix: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{prefix}.{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                self._patch(cls, attr, type(value)(self._wrap(name, value.__func__)))
            elif inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(name, value))

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"satake.{layer}")
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if isinstance(value, type):
                    if not issubclass(value, BaseException):
                        self._wrap_class(layer, value)
                elif callable(value):
                    self._patch(mod, attr, self._wrap(f"{layer}.{attr}", value))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def snapshot(self) -> dict:
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s, _) in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
        }


def _cache_size(args):
    cache = getattr(args[0], "_c_mul_cache", None)
    return None if cache is None else len(cache)
