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

Every layer but ``emx`` is bound through ``plab._lazy``, so a process executes only the layers its
subcommand runs; the run config and the report are plain dicts, so start-up loads neither
``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from collections import namedtuple
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import ResourceCapError, __version__, _lazy, _np as np
from .emx import (
    FinSupportDist,
    IndexedDomain,
    RationalLiteralError,
    SegmentLearner,
    _json_field,
    _json_list,
    as_fraction,
    sample_complexity,
    verify_guarantee,
)

coarse, compression, feasibility, quantum, tasks = map(_lazy, ("plab.coarse", "plab.compression", "plab.feasibility",
                                                            "plab.quantum", "plab.tasks"))
_lazy("plab.simplex")  # only feasibility runs it; registered so that every plab module is in sys.modules

DEFAULT_SEED = 20177


def _checked(cfg) -> dict:
    """The run config ``cfg`` (parsed JSON) as a fresh dict, ``parameters``, ``seed`` and ``out``
    defaulted to {}, DEFAULT_SEED and null.  TypeError for a non-object, an unknown key or no ``kind``;
    ValueError naming the key of a mistyped value."""
    if not isinstance(cfg, dict):
        raise TypeError(f"config must be a JSON object, got {type(cfg).__name__}")
    if unknown := [key for key in cfg if key not in ("kind", "parameters", "seed", "out")]:
        raise TypeError(f"unknown config key {unknown[0]!r} (known: kind, parameters, seed, out)")
    _json_field(cfg, "kind")  # the one required key
    cfg = {"parameters": {}, "seed": DEFAULT_SEED, "out": None, **cfg}
    for key, types, want in (("kind", str, "a string"), ("parameters", dict, "an object"),
                             ("seed", int, "an integer"), ("out", (str, type(None)), "a string or null")):
        if not isinstance(cfg[key], types) or isinstance(cfg[key], bool):
            raise ValueError(f"config key {key!r} must be {want}, got {cfg[key]!r}")
    if cfg["seed"] < 0:  # numpy seeds only non-negative integers
        raise ValueError(f"config key 'seed' must be >= 0, got {cfg['seed']!r}")
    return {**cfg, "parameters": dict(cfg["parameters"])}


def validate(cfg: dict) -> dict:
    """Every parameter the kind of the checked config ``cfg`` declares: the value converted to its
    declared type (rationals by ``as_fraction``), else the default, null counting as absent.  Raise
    ValueError naming the key for an unknown kind or parameter, a mistyped or missing value."""
    kind, given = cfg["kind"], cfg["parameters"]
    if kind not in _KINDS:
        raise ValueError(f"unknown experiment kind {kind!r} (known: {', '.join(_KINDS)})")
    declared = _KINDS[kind].params
    names = [p.name for p in declared]
    unknown = [key for key in given if key not in names]
    if unknown:
        raise ValueError(f"unknown {kind} parameter {unknown[0]!r} (known: {', '.join(names)})")
    out = {}
    for p in declared:
        value = given.get(p.name)
        if value is None:
            if p.required in (True, given.get("mode")):
                raise ValueError(f"{kind} config missing required parameter {p.name!r}")
            out[p.name] = p.default
            continue
        if not _fits(p, value):
            what = f"one of {p.choices}" if p.choices else " or ".join(t.__name__ for t in _JSON_TYPES[p.type])
            what = f"a list of {what}" if p.many else what
            raise ValueError(f"{kind} parameter {p.name!r} must be {what}, got {value!r}")
        convert = as_fraction if p.type is Fraction else p.type
        try:
            out[p.name] = [convert(v) for v in value] if p.many else convert(value)
        except (ValueError, ArithmeticError) as exc:  # a bad rational, a huge integer
            raise ValueError(f"{kind} parameter {p.name!r}: {exc}") from None
    return out


def _leaf(obj):
    """Pin one report value that is not a dict, list, tuple or array: floats to 12
    significant digits, exact rationals to strings, numpy scalars unwrapped.  Python
    types are tested first, so that a report without numpy values never loads numpy."""
    if isinstance(obj, (bool, type(None), str, int)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float) or isinstance(obj, np.floating):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def _float_text(x) -> str:
    """JSON text of ``_leaf(x)`` for a float: its ``%.12g`` text when that has a point and no
    exponent (then it is the repr of the pinned float), else ``json.dumps`` of the pinned float
    (NaN, ±Infinity, exponent and integral forms)."""
    text = "%.12g" % x
    return text if "." in text and "e" not in text else json.dumps(float(text))


def _parts(obj, indent: str = "\n"):
    """The reference writer's ``json.dumps(pin(obj), indent=2, sort_keys=True)`` as a stream of
    fragments, in one walk that pins each leaf as it yields it (``indent`` is the walk's line
    start).  A 2-D array yields one fragment per row of [re, im] pairs: each distinct float,
    found by its bits so that 0.0 and -0.0 stay apart, is spelled once.  Only the leaves a report
    holds by the hundred are spelled here (fixed-notation floats, strings, ints); ``json.dumps``
    spells the rest.  A container spells its str, int and float members in its own loop, one
    fragment with their key, so a leaf costs no generator."""
    if isinstance(obj, (dict, list, tuple)):
        if not obj:
            yield "{}" if isinstance(obj, dict) else "[]"
            return
        inner = indent + "  "
        sep, close = ("{" + inner, indent + "}") if isinstance(obj, dict) else ("[" + inner, indent + "]")
        items = sorted({str(k): v for k, v in obj.items()}.items()) if isinstance(obj, dict) else enumerate(obj)
        for k, v in items:  # a dict's keys are strings, a list's indices are not written
            key = f"{sep}{encode_basestring_ascii(k)}: " if isinstance(k, str) else sep
            sep, kind = "," + inner, type(v)  # exact types: bool, subclasses and numpy scalars recurse
            if kind is str:
                yield key + encode_basestring_ascii(v)
            elif kind is int:
                yield key + int.__repr__(v)
            elif kind is float:
                yield key + _float_text(v)
            else:
                yield key
                yield from _parts(v, inner)
        yield close
    elif getattr(obj, "ndim", 0) == 0:  # a scalar: _leaf tests Python types before numpy types, or refuses it
        yield json.dumps(_leaf(obj))
    else:
        if obj.ndim != 2:
            raise TypeError(f"cannot serialize a {obj.ndim}-D array in a report")
        m = np.ascontiguousarray(obj, dtype=complex)
        if not m.size:  # no floats: the nested lists of the same shape have the same text
            yield from _parts(m.tolist(), indent)
            return
        i1, i2, i3 = indent + "  ", indent + "    ", indent + "      "
        bits, at = np.unique(m.ravel().view(np.int64), return_inverse=True)
        texts = np.array([_float_text(x) for x in bits.view(np.float64).tolist()], dtype=object)
        row = np.empty(4 * m.shape[1] + 1, dtype=object)  # one row's texts, separators interleaved
        row[0], row[2::4], row[4:-1:4], row[-1] = f"[{i1}[{i2}[{i3}", f",{i3}", f"{i2}],{i2}[{i3}", f"{i2}]{i1}]"
        for k in at.reshape(len(m), -1):
            row[1::2] = texts[k]
            yield "".join(row.tolist())
            row[0] = f",{i1}[{i2}[{i3}"
        yield indent + "]"


@contextlib.contextmanager
def _atomic(path: str):
    """The text file ``PATH.tmp``, open for the block and renamed to ``path`` when the block
    succeeds; the temp file never outlives the block.  Newlines are not translated: csv writes
    its own, and a report ends its lines in "\\n" on every platform."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _stream(report: dict, fh) -> None:
    """Write the report's text and a newline to ``fh`` in writes of at least 64 KiB (one write for
    a small report), never holding the text whole: the text of the reference writer in
    ``tests/reference_writer.py`` (a witness matrix may be held as its array)."""
    chunk, size = [], 0
    for part in _parts(report):
        chunk.append(part)
        size += len(part)
        if size >= 1 << 16:
            fh.write("".join(chunk))
            chunk, size = [], 0
    fh.write("".join(chunk) + "\n")


def write_report(report: dict, path: str) -> None:
    """Stream the report into ``path`` atomically: a write that fails leaves the old file in place
    and no temp file."""
    with _atomic(path) as fh:
        _stream(report, fh)


def emit_table(report: dict, fh) -> None:
    """One CSV row per flat sweep point to the open file ``fh``, values pinned by ``_leaf``; header
    keys from the first row."""
    import csv  # only a --table run needs it
    if not report.get("sweep"):
        raise ValueError("report has no sweep to tabulate")
    rows = [{str(k): _leaf(v) for k, v in row.items()} for row in report["sweep"]]
    writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)


def _load_json(path: str, parse):
    """``parse`` of the JSON in ``path``; text that is not JSON, or wrong types, keys or numbers (a
    string that is not a rational, a NaN or infinite number, a rational dividing by zero, a float
    overflow) in it raise ValueError "malformed PATH: ...".  A value that fails a check of its
    meaning, such as a state with a NaN entry, raises ValueError "PATH: " and the check's own message."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse(json.loads(text))
    except (json.JSONDecodeError, TypeError, KeyError, AttributeError, ArithmeticError, RationalLiteralError) as exc:
        raise ValueError(f"malformed {path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _guarantee_run(p: dict, seed: int, dist: FinSupportDist, first, sweep, point, row):
    """(row of ``first``, the sweep's rows or None), from one ``verify_guarantee`` call with the
    run's epsilon, delta and trials that carries each distinct point x of the run once, as the
    (learner, d) of ``point(x)``; ``row(x, report)`` is a point's row."""
    distinct = list(dict.fromkeys([first, *(sweep or ())]))
    reports = verify_guarantee([point(x) for x in distinct], dist, p["epsilon"], p["delta"], p["trials"], seed)
    rows = {x: row(x, rep) for x, rep in zip(distinct, reports)}
    return rows[first], [rows[x] for x in sweep or ()] or None


def _guarantee_fields(rep) -> dict:
    """The sweep-row fields of a ``GuaranteeReport``."""
    return {key: getattr(rep, key) for key in ("d", "empirical_rate", "ci_halfwidth", "bound")}


def _run_emx(p: dict, seed: int):
    dist = _load_json(p["dist"], FinSupportDist.from_json)
    learner = SegmentLearner(IndexedDomain(dist.support))
    need = sample_complexity(p["epsilon"], p["delta"])
    metrics, sweep = _guarantee_run(p, seed, dist, need if p["d"] is None else p["d"], p["sweep_d"],
                                    lambda d: (learner, d), lambda d, rep: _guarantee_fields(rep))
    return {**metrics, "sample_complexity": need}, sweep


def _run_coarse(p: dict, seed: int):
    dist = _load_json(p["dist"], lambda raw: FinSupportDist([float(as_fraction(x)) for x in _json_list(raw, "labels")],
                                                            _json_list(raw, "weights")))
    d = sample_complexity(p["epsilon"], p["delta"]) if p["d"] is None else p["d"]

    def point(bits: int) -> tuple:
        pi = coarse.UniformBinsMap(bits)
        return SegmentLearner(pi.domain, pi), d

    return _guarantee_run(p, seed, dist, p["bits"], p["sweep_bits"], point,
                          lambda bits, rep: {"bits": bits, **_guarantee_fields(rep)})


def _run_compress(p: dict, seed: int):
    if p["mode"] == "demo":
        pair = tuple(p["pair"])
        if len(pair) != 2:
            raise ValueError("demo mode wants exactly two points")
        dom = IndexedDomain(p["domain"])
        scheme = compression.segment_scheme(dom, 1)
        sub = compression.check_monotone_coverage(scheme, pair)  # the point of larger index: it covers both
        return {
            "input": list(pair),
            "chosen_subtuple": list(sub),
            "reconstructed": list(scheme.reconstruct(sub)),
            "covered": sub is not None,
        }, None
    dist = _load_json(p["dist"], FinSupportDist.from_json)
    need = compression.required_n(p["m"])
    dom = IndexedDomain(dist.support)
    scheme = compression.segment_scheme(dom, p["m"])
    learner = lambda s: compression.compression_learner(scheme, s, dom)  # noqa: E731

    def row(n: int, rep) -> dict:
        return {"n": n, "empirical_rate": rep.empirical_rate, "ci_halfwidth": rep.ci_halfwidth,
                "target_rate": 1.0 - float(p["delta"])}

    metrics, sweep = _guarantee_run(p, seed, dist, need if p["n"] is None else p["n"], p["sweep_n"],
                                    lambda n: (learner, n), row)
    return {"m": p["m"], "required_n": need, **metrics}, sweep


def _run_quantum(p: dict, seed: int):
    gamma, d, delta = p["gamma"], p["copies"], p["delta"]
    if p["sweep_gamma"] and p["sweep_copies"]:
        raise ValueError("give sweep_gamma or sweep_copies, not both")
    points = [(gamma, d), *((g, d) for g in p["sweep_gamma"] or ()), *((gamma, dd) for dd in p["sweep_copies"] or ())]
    distinct = list(dict.fromkeys(points))  # one stack, each distinct (gamma, d) once
    found = dict(zip(distinct, zip(*(a.tolist() for a in quantum.pure_pair_helstrom(distinct)))))
    d_min = functools.cache(lambda g: {} if delta is None else {"d_min": quantum.copies_min(g, delta)})
    rows = [{"gamma": g, "copies": dd, "trace_distance": found[g, dd][0],
             "formula": quantum.pure_distance_formula(g, dd), "bound": 1.0 + 0.5 * found[g, dd][0],
             "achieved": found[g, dd][1], "delta_min": quantum.delta_min(g, dd), **d_min(g)} for g, dd in points]
    fixed = "copies" if p["sweep_gamma"] else "gamma"
    return rows[0], [{k: v for k, v in row.items() if k != fixed} for row in rows[1:]] or None


def _run_feasible_lp(p: dict, seed: int):
    task = _load_json(p["task"], tasks.TaskSpec.from_json)
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
    task = _load_json(p["task"], tasks.TaskSpec.from_json)
    states = []
    for theta in task.thetas:
        path = os.path.join(p["states"], f"{theta}.json")
        if not os.path.exists(path):
            raise ValueError(f"missing state file for environment {theta!r}: {path}")
        states.append(_load_json(path, quantum.DensityMatrix.from_json))
    result = feasibility.sdp_feasible(states, task, p["epsilon"], p["delta"], d=p["copies"])
    w = result.witness  # elements kept as arrays for _parts
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
    return (_Param("epsilon", Fraction, as_fraction(epsilon), "accuracy epsilon, a rational such as 1/3"),
            _Param("delta", Fraction, as_fraction(delta), "failure probability delta, a rational such as 1/5"))


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


def run_config(cfg: dict) -> dict:
    """Check, validate, dispatch, time, and assemble the report: the dict that is written, with
    ``sweep`` only for a run that has one, echoing the checked ``cfg`` as its ``config``."""
    cfg = _checked(cfg)
    params = validate(cfg)
    t0 = time.perf_counter()
    metrics, sweep = _KINDS[cfg["kind"]].run(params, cfg["seed"])
    report = {"config": cfg, "metrics": metrics, "wall_clock_s": time.perf_counter() - t0, "version": __version__}
    if sweep is not None:
        report["sweep"] = sweep
    return report


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


def _config_from_args(args: argparse.Namespace) -> dict:
    cfg = _load_json(args.config, _checked) if args.config else _checked({"kind": args.kind})
    if cfg["kind"] != args.kind:
        raise ValueError(f"config kind {cfg['kind']!r} does not match subcommand {args.kind!r}")
    for a in _KINDS[args.kind].params:
        if getattr(args, a.name, None) is not None:
            cfg["parameters"][a.name] = getattr(args, a.name)
        elif not a.flag:
            cfg["parameters"].setdefault(a.name, a.default)
    cfg.update({key: getattr(args, key) for key in ("seed", "out") if getattr(args, key) is not None})
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        out = cfg["out"]
        names = [os.path.realpath(q) for p in (out, args.table) if p for q in (p, f"{p}.tmp")]
        if len(set(names)) < len(names):  # each file is written to PATH.tmp, then renamed into place
            raise ValueError(f"--out {out} and --table {args.table} collide: they and their .tmp files must differ")
        report = run_config(cfg)
        with _atomic(args.table) if args.table else contextlib.nullcontext() as table:
            if table:  # first: a report without a sweep exits 1 having written nothing
                emit_table(report, table)
            if out:  # inside the table's block, so the table is renamed into place only once the report is
                write_report(report, out)
        if not out:
            _stream(report, sys.stdout)
    except (ValueError, KeyError, OSError, ResourceCapError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc  # str() would quote it
        print(f"plab: error: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
