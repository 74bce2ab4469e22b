"""plab command line: seeded experiment configs in, deterministic reports out.

Subcommands (emx | coarse | compress | quantum | feasible) and their parameters
are declared once, in ``_KINDS``; the argument parser (derived once per process),
config validation and the defaults the runners see are generated from it.
Each subcommand accepts --config FILE (a JSON experiment config) with flags
overriding config keys.
Reports are JSON {config, metrics, sweep?, wall_clock_s, version} written
atomically; floats are pinned to 12 significant digits so identical
(config, seed) runs produce byte-identical reports apart from wall_clock_s.
The default seed is 20177.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, coarse, compression, feasibility, quantum
from .emx import (
    FinSupportDist,
    IndexedDomain,
    RationalLiteralError,
    SegmentLearner,
    as_fraction,
    sample_complexity,
    verify_guarantee,
)
from .tasks import TaskSpec

DEFAULT_SEED = 20177


@dataclass
class ExperimentConfig:
    kind: str
    parameters: dict = field(default_factory=dict)
    seed: int = DEFAULT_SEED
    out: str | None = None

    def __post_init__(self) -> None:
        for key, types, want in (("kind", str, "a string"), ("parameters", dict, "an object"),
                                 ("seed", int, "an integer"), ("out", (str, type(None)), "a string or null")):
            value = getattr(self, key)
            if not isinstance(value, types) or isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be {want}, got {value!r}")
        if self.seed < 0:  # numpy seeds only non-negative integers
            raise ValueError(f"config key 'seed' must be >= 0, got {self.seed!r}")

    def validate(self) -> dict:
        """Every parameter the kind declares: the value converted to its declared type (rationals
        by ``as_fraction``), else the default, null counting as absent.  Raise ValueError naming the
        key for a malformed config, unknown kind or parameter, mistyped or missing value."""
        self.__post_init__()  # the shape may have changed since construction
        if self.kind not in _KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r} (known: {', '.join(_KINDS)})")
        declared = _KINDS[self.kind].params
        names = [p.name for p in declared]
        unknown = [key for key in self.parameters if key not in names]
        if unknown:
            raise ValueError(f"unknown {self.kind} parameter {unknown[0]!r} (known: {', '.join(names)})")
        out = {}
        for p in declared:
            value = self.parameters.get(p.name)
            if value is None:
                if p.required in (True, self.parameters.get("mode")):
                    raise ValueError(f"{self.kind} config missing required parameter {p.name!r}")
                out[p.name] = p.default
                continue
            if not _fits(p, value):
                what = f"one of {p.choices}" if p.choices else " or ".join(t.__name__ for t in _JSON_TYPES[p.type])
                what = f"a list of {what}" if p.many else what
                raise ValueError(f"{self.kind} parameter {p.name!r} must be {what}, got {value!r}")
            convert = as_fraction if p.type is Fraction else p.type
            try:
                out[p.name] = [convert(v) for v in value] if p.many else convert(value)
            except (ValueError, ArithmeticError) as exc:  # a bad rational, a huge integer
                raise ValueError(f"{self.kind} parameter {p.name!r}: {exc}") from None
        return out

    def to_json(self) -> dict:
        return {"kind": self.kind, "parameters": dict(self.parameters), "seed": self.seed, "out": self.out}

    @classmethod
    def from_json(cls, obj) -> "ExperimentConfig":
        """Config from parsed JSON; TypeError on an unknown or missing key, ValueError on a bad shape."""
        if not isinstance(obj, dict):
            raise ValueError(f"config must be a JSON object, got {type(obj).__name__}")
        return cls(**obj)


@dataclass
class RunReport:
    config: dict
    metrics: dict
    sweep: list[dict] | None
    wall_clock_s: float
    version: str

    def to_text(self) -> str:
        """The report as written by ``_render``: the text of the reference writer
        in ``tests/reference_writer.py`` (a witness matrix may be held as its array)."""
        out = dict(vars(self))
        if self.sweep is None:
            del out["sweep"]
        return _render(out)


def _leaf(obj):
    """Pin one report value that is not a dict, list, tuple or array: floats to 12
    significant digits, exact rationals to strings, numpy scalars unwrapped."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (bool, type(None), str, int)):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def _float_text(x) -> str:
    """JSON text of ``_leaf(x)`` for a float, spelled as ``json.dumps`` spells it."""
    text = "%.12g" % x
    if "." in text and "e" not in text:
        return text  # already repr of the pinned float: at most 12 digits, fixed notation
    x = float(text)
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return repr(x)


def _leaf_text(obj) -> str:
    """JSON text of ``_leaf(obj)``, spelled as ``json.dumps`` spells it."""
    if isinstance(obj, (float, np.floating)):
        return _float_text(obj)
    value = _leaf(obj)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return int.__repr__(value)


def _matrix_text(a: np.ndarray, indent: str) -> str:
    """JSON text of a 2-D array at ``indent`` as the reference writer gives it:
    the layout of ``matrix_to_json`` as one template, filled with the text of
    each distinct float, found by its bits so that 0.0 and -0.0 stay apart."""
    if a.ndim != 2:
        raise TypeError(f"cannot serialize a {a.ndim}-D array in a report")
    m = np.ascontiguousarray(a, dtype=complex)
    rows, cols = m.shape
    if not rows:
        return "[]"
    i1, i2, i3 = indent + "  ", indent + "    ", indent + "      "
    pair = f"[{i3}%s,{i3}%s{i2}]"
    row = f"[{i2}" + f",{i2}".join([pair] * cols) + f"{i1}]" if cols else "[]"
    template = f"[{i1}" + f",{i1}".join([row] * rows) + f"{indent}]"
    bits, at = np.unique(m.ravel().view(np.int64), return_inverse=True)
    texts = [_float_text(x) for x in bits.view(np.float64).tolist()]
    return template % tuple(map(texts.__getitem__, at.tolist()))


def _render(obj, indent: str = "\n") -> str:
    """The reference writer's ``json.dumps(pin(obj), indent=2, sort_keys=True)``,
    in one walk that pins each leaf as it writes it (``indent`` is the walk's
    line start); a 2-D array is written by ``_matrix_text``."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = sorted({str(k): v for k, v in obj.items()}.items())
        body = ("," + inner).join([f"{encode_basestring_ascii(k)}: {_render(v, inner)}" for k, v in items])
        return "{" + inner + body + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([_render(v, inner) for v in obj]) + indent + "]"
    if isinstance(obj, np.ndarray):
        return _matrix_text(obj, indent)
    return _leaf_text(obj)


def write_report(report: RunReport, path: str) -> None:
    """Serialize deterministically and write via temp file + rename."""
    text = report.to_text() + "\n"
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def emit_table(report: RunReport, path: str) -> None:
    """One CSV row per flat sweep point, values pinned by ``_leaf``; header keys from the first row."""
    if not report.sweep:
        raise ValueError("report has no sweep to tabulate")
    rows = [{str(k): _leaf(v) for k, v in row.items()} for row in report.sweep]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _load_json(path: str, parse):
    """``parse`` of the JSON in ``path``; wrong types, keys or numbers (a string that is not a
    rational, a rational dividing by zero, a float overflow) in it raise ValueError naming the
    file.  A value that fails a check of its meaning, such as a state with a NaN entry, keeps
    the check's own message."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        return parse(obj)
    except (TypeError, KeyError, AttributeError, ArithmeticError, RationalLiteralError) as exc:
        raise ValueError(f"malformed {path}: {exc}") from None


def _guarantee(p: dict, seed: int, learner, dist: FinSupportDist, d: int) -> dict:
    """Monte Carlo guarantee check at sample size d with the run's epsilon, delta and trials."""
    rep = verify_guarantee(learner, dist, p["epsilon"], p["delta"], d, p["trials"], seed)
    return {key: getattr(rep, key) for key in ("d", "empirical_rate", "ci_halfwidth", "bound")}


def _run_emx(p: dict, seed: int):
    dist = _load_json(p["dist"], FinSupportDist.from_json)
    learner = SegmentLearner(IndexedDomain(dist.support))
    need = sample_complexity(p["epsilon"], p["delta"])
    run = functools.cache(lambda d: _guarantee(p, seed, learner, dist, d))  # each distinct d runs once
    metrics = {**run(need if p["d"] is None else p["d"]), "sample_complexity": need}
    sweep = [run(d) for d in p["sweep_d"] or ()]
    return metrics, sweep or None


def _run_coarse(p: dict, seed: int):
    dist = _load_json(p["dist"], lambda raw: FinSupportDist([float(as_fraction(x)) for x in raw["labels"]],
                                                            raw["weights"]))
    d = sample_complexity(p["epsilon"], p["delta"]) if p["d"] is None else p["d"]

    @functools.cache  # each distinct resolution runs once
    def run(bits: int) -> dict:
        pi = coarse.UniformBinsMap(bits)
        learner = SegmentLearner(pi.domain, pi, p["epsilon"], p["delta"])
        return {"bits": bits, **_guarantee(p, seed, learner, dist, d)}

    metrics = {**run(p["bits"])}
    sweep = [run(b) for b in p["sweep_bits"] or ()]
    return metrics, sweep or None


def _run_compress(p: dict, seed: int):
    if p["mode"] == "demo":
        pair = tuple(p["pair"])
        if len(pair) != 2:
            raise ValueError("demo mode wants exactly two points")
        dom = IndexedDomain(p["domain"])
        kept = compression.compress_two_to_one(pair[0], pair[1], dom)
        scheme = compression.segment_scheme(dom, 1)
        sub = compression.check_monotone_coverage(scheme, pair)
        reconstructed = sorted(scheme.reconstruct((kept,)).elements, key=dom.idx)
        return {
            "input": list(pair),
            "chosen_subtuple": list(sub) if sub is not None else None,
            "reconstructed": reconstructed,
            "covered": sub is not None,
        }, None
    dist = _load_json(p["dist"], FinSupportDist.from_json)
    need = compression.required_n(p["m"])
    dom = IndexedDomain(dist.support)
    scheme = compression.segment_scheme(dom, p["m"])
    learner = lambda s: compression.compression_learner(scheme, s, dom)  # noqa: E731

    @functools.cache  # each distinct sample size runs once
    def run(n: int) -> dict:
        rep = verify_guarantee(learner, dist, p["epsilon"], p["delta"], n, p["trials"], seed)
        return {"n": n, "empirical_rate": rep.empirical_rate, "ci_halfwidth": rep.ci_halfwidth,
                "target_rate": 1.0 - float(p["delta"])}

    metrics = {"m": p["m"], "required_n": need, **run(need if p["n"] is None else p["n"])}
    sweep = [run(n) for n in p["sweep_n"] or ()]
    return metrics, sweep or None


def _discrimination_point(gamma: float, d: int, delta) -> dict:
    r0, r1 = quantum.pure_pair(gamma, d)
    povm, distance = quantum.helstrom(r0, r1)
    point = {
        "gamma": gamma,
        "copies": d,
        "trace_distance": distance,
        "formula": quantum.pure_distance_formula(gamma, d),
        "bound": 1.0 + 0.5 * distance,
        "achieved": quantum.discrimination_sum(povm, r0, r1),
        "delta_min": quantum.delta_min(gamma, d),
    }
    if delta is not None:
        point["d_min"] = quantum.copies_min(gamma, delta)
    return point


def _run_quantum(p: dict, seed: int):
    gamma, d, delta = p["gamma"], p["copies"], p["delta"]
    if p["sweep_gamma"] and p["sweep_copies"]:
        raise ValueError("give sweep_gamma or sweep_copies, not both")
    metrics = _discrimination_point(gamma, d, delta)
    if p["sweep_gamma"]:
        points = [_discrimination_point(g, d, delta) for g in p["sweep_gamma"]]
        fixed = "copies"
    else:
        points = [_discrimination_point(gamma, dd, delta) for dd in p["sweep_copies"] or ()]
        fixed = "gamma"
    sweep = [{k: v for k, v in point.items() if k != fixed} for point in points]
    return metrics, sweep or None


def _run_feasible_lp(p: dict, seed: int):
    task = _load_json(p["task"], TaskSpec.from_json)
    if p["polytope"]:
        poly = _load_json(p["polytope"], feasibility.PolytopeSpec.from_json)
        n_t, n_h = len(task.thetas), len(task.hyps)
        if len(poly.variables) != n_t * n_h:
            raise ValueError(f"{p['polytope']} has {len(poly.variables)} variables, but the kernel of "
                             f"{p['task']} has {n_t} x {n_h} = {n_t * n_h}")
    else:
        poly = feasibility.kernel_polytope(task)
    rows = feasibility.build_pl_constraints(task, p["epsilon"], p["delta"])
    result = feasibility.lp_feasible(poly, rows)
    metrics: dict = {"verdict": "feasible" if result.feasible else "infeasible"}
    if result.feasible:
        metrics["witness"] = {k: str(v) for k, v in result.witness.items()}
    return metrics, None


def _run_feasible_sdp(p: dict, seed: int):
    task = _load_json(p["task"], TaskSpec.from_json)
    states = []
    for theta in task.thetas:
        path = os.path.join(p["states"], f"{theta}.json")
        if not os.path.exists(path):
            raise ValueError(f"missing state file for environment {theta!r}: {path}")
        states.append(_load_json(path, quantum.DensityMatrix.from_json))
    result = feasibility.sdp_feasible(states, task, p["epsilon"], p["delta"], d=p["copies"])
    w = result.witness  # the keys of Povm.to_json, elements kept as arrays for _render
    metrics = {"verdict": result.verdict, "sweeps": result.sweeps, "lo": result.lo,
               "hi": result.hi, "weights": result.weights, "certificate": result.certificate,
               "witness": {"labels": list(w.labels), "elements": list(w.elements)} if w else None}
    return {k: v for k, v in metrics.items() if v is not None}, None


# One experiment parameter: config key ``name``, flag ``--name`` with dashes.  ``type``
# is int, float, str, or Fraction for a rational ("1/3" or a number); ``many`` makes
# it a list (a comma-separated flag); ``required`` is True or the ``mode`` needing it;
# ``flag=False`` marks a key the subcommand sets.
_Param = namedtuple("_Param", "name type default help many required choices flag",
                    defaults=(None, "", False, False, None, True))
# Subcommand words, help, runner(parameters, seed) -> (metrics, sweep), parameters.
_Kind = namedtuple("_Kind", "words help run params")


def _accuracy(epsilon: str, delta: str) -> tuple[_Param, _Param]:
    return (_Param("epsilon", Fraction, Fraction(epsilon), "accuracy epsilon, a rational such as 1/3"),
            _Param("delta", Fraction, Fraction(delta), "failure probability delta, a rational such as 1/5"))


_KINDS = {
    "emx": _Kind(("emx",), "quantile-learner guarantee runs", _run_emx, (
        *_accuracy("1/3", "1/3"),
        _Param("dist", str, help="distribution JSON file", required=True),
        _Param("trials", int, 1000, "Monte Carlo trials"),
        _Param("d", int, help="sample size (default: the sample complexity)"),
        _Param("sweep_d", int, help="comma-separated sample sizes to sweep", many=True),
    )),
    "coarse": _Kind(("coarse",), "finite-precision learning runs", _run_coarse, (
        _Param("bits", int, 8, "bin resolution in bits"),
        *_accuracy("1/3", "1/3"),
        _Param("dist", str, help="distribution JSON file, labels in [0,1]", required=True),
        _Param("trials", int, 1000, "Monte Carlo trials"),
        _Param("d", int, help="sample size (default: the sample complexity)"),
        _Param("sweep_bits", int, help="comma-separated resolutions to sweep", many=True),
    )),
    "compress": _Kind(("compress",), "compression demos and ERM runs", _run_compress, (
        _Param("mode", str, help="2->1 round trip or threshold-size ERM", required=True,
               choices=("demo", "lemma1")),
        _Param("domain", str, help="comma-separated domain labels (demo)", many=True, required="demo"),
        _Param("pair", str, help="two comma-separated points (demo)", many=True, required="demo"),
        _Param("m", int, 1, "points kept by the scheme (lemma1)"),
        _Param("n", int, help="sample size (lemma1; default: the required size)"),
        _Param("dist", str, help="distribution JSON file (lemma1)", required="lemma1"),
        _Param("trials", int, 2000, "Monte Carlo trials (lemma1)"),
        *_accuracy("1/3", "1/3"),
        _Param("sweep_n", int, help="comma-separated sample sizes to sweep (lemma1)", many=True),
    )),
    "quantum": _Kind(("quantum", "discriminate"), "two-state discrimination summary", _run_quantum, (
        _Param("op", str, "discriminate", choices=("discriminate",), flag=False),
        _Param("gamma", float, help="overlap of the two pure states", required=True),
        _Param("copies", int, 1, "number of copies d"),
        _Param("delta", float, help="target error; adds the least copy count d_min"),
        _Param("sweep_gamma", float, help="comma-separated overlaps to sweep", many=True),
        _Param("sweep_copies", int, help="comma-separated copy counts to sweep", many=True),
    )),
    "feasible-lp": _Kind(("feasible", "lp"), "exact rational feasibility", _run_feasible_lp, (
        _Param("task", str, help="task JSON file", required=True),
        _Param("polytope", str, help="polytope JSON file (default: the kernel polytope)"),
        *_accuracy("1/2", "1/5"),
    )),
    "feasible-sdp": _Kind(("feasible", "sdp"), "POVM feasibility for d-copy models", _run_feasible_sdp, (
        _Param("task", str, help="task JSON file", required=True),
        _Param("states", str, help="directory with one <theta>.json state per environment", required=True),
        _Param("copies", int, 1, "number of copies d"),
        *_accuracy("1/2", "1/5"),
    )),
}
_GROUP_HELP = {"quantum": "quantum discrimination bounds", "feasible": "LP/SDP feasibility deciders"}

# JSON types a config value may have for each declared type; never a bool.
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), Fraction: (str, int, float)}


def _fits(p: _Param, value) -> bool:
    if p.many:
        return isinstance(value, list) and all(_fits(p._replace(many=False), v) for v in value)
    accepted = isinstance(value, _JSON_TYPES[p.type]) and not isinstance(value, bool)
    return accepted and (p.choices is None or value in p.choices)


def run_config(cfg: ExperimentConfig) -> RunReport:
    """Validate, dispatch, time, and assemble the report."""
    params = cfg.validate()
    t0 = time.perf_counter()
    metrics, sweep = _KINDS[cfg.kind].run(params, cfg.seed)
    return RunReport(
        config=cfg.to_json(),
        metrics=metrics,
        sweep=sweep,
        wall_clock_s=time.perf_counter() - t0,
        version=__version__,
    )


def _flag_type(p: _Param):
    item = str if p.type is Fraction else p.type

    def comma_separated(text: str) -> list:
        return [item(v.strip()) for v in text.split(",") if v.strip()]

    return comma_separated if p.many else item


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The plab parser, built from ``_KINDS`` on first use and kept for the process."""
    parser = argparse.ArgumentParser(prog="plab", description=__doc__.splitlines()[0])
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for kind, spec in _KINDS.items():
        group = spec.words[:-1]
        if group not in subparsers:
            p = subparsers[()].add_parser(group[0], help=_GROUP_HELP[group[0]])
            subparsers[group] = p.add_subparsers(dest=f"{group[0]}_op", required=True)
        p = subparsers[group].add_parser(spec.words[-1], help=spec.help)
        p.set_defaults(kind=kind)
        p.add_argument("--config", help="JSON experiment config; flags override its keys")
        p.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULT_SEED})")
        p.add_argument("--out", help="report path (default: print to stdout)")
        p.add_argument("--table", help="also write the sweep as CSV to this path")
        for a in spec.params:
            if a.flag:
                note = "" if a.default is None else f" (default {a.default})"
                note = " (required)" if a.required is True else note
                p.add_argument("--" + a.name.replace("_", "-"), dest=a.name, type=_flag_type(a),
                               choices=a.choices, help=a.help + note)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = _load_json(args.config, ExperimentConfig.from_json) if args.config else ExperimentConfig(args.kind)
    if cfg.kind != args.kind:
        raise ValueError(f"config kind {cfg.kind!r} does not match subcommand {args.kind!r}")
    for a in _KINDS[args.kind].params:
        if getattr(args, a.name, None) is not None:
            cfg.parameters[a.name] = getattr(args, a.name)
        elif not a.flag:
            cfg.parameters.setdefault(a.name, a.default)
    for key in ("seed", "out"):
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        report = run_config(cfg)
        if cfg.out:
            write_report(report, cfg.out)
        else:
            print(report.to_text())
        if args.table:
            emit_table(report, args.table)
    except (ValueError, KeyError, OSError, quantum.ResourceCapError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc  # str() would quote it
        print(f"plab: error: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
