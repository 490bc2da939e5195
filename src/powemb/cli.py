"""Command-line front end: decide, lattice, witness, verify.

Exit codes follow the embedding outcome for ``decide`` (0 embeds, 1 does
not, 2 unknown), 64 for parse/validation problems, 3 for partial verify
failures, 70 for internal errors.  All outputs are deterministic given the
config and seed, and every output file embeds the config hash (a JSON field,
or a config_hash column in CSV rows).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import suite
from .lpengine import Grid, save_field, save_profile_csv
from .oracle import EMBEDS, NO, UNKNOWN, FamilyError, decide, embedding_matrix
from .params import RangeError, parse_spec, spec_from_json, validate
from .verify import default_grid
from .witnesses import (
    dilation_family,
    gaussian_base,
    gaussian_spectral_base,
    lacunary_sum,
    log_singularity,
    random_band_limited,
    riesz_log,
    spectral_peaks,
    translation_family,
)

EX_OK = 0
EX_NOEMBED = 1
EX_UNKNOWN = 2
EX_PARTIAL = 3
EX_USAGE = 64
EX_INTERNAL = 70


def _config_hash(obj) -> str:
    digest = hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode("utf-8")
    )
    return digest.hexdigest()[:16]


def _out_dir(args, config_out=None) -> Path:
    """POWEMB_OUT, else --out, else the config's out, else ./powemb_out; an
    empty POWEMB_OUT or --out is rejected, not passed over."""
    env = os.environ.get("POWEMB_OUT")
    for given, name in ((env, "POWEMB_OUT"), (args.out, "--out")):
        if given == "":
            raise RangeError(f"{name} must be a non-empty path, got \"\"")
    out = env or args.out or config_out or "powemb_out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_grid(text) -> Grid:
    parts = text.split(",")
    if len(parts) != 3:
        raise RangeError(f"--grid wants d,L,N, got {text!r}")
    values = []
    for name, kind, part in zip("dLN", (int, float, int), parts):
        try:
            values.append(kind(part))
        except ValueError:
            want = "an integer" if kind is int else "a number"
            raise RangeError(f"--grid {name} must be {want}, got {part!r} "
                             f"in {text!r}") from None
    return Grid(*values)


def _parse_range(args, flag: str):
    """--flag's '3..7' or '3:7' (integers, not empty) or comma list '1,2,4,8'."""
    text = str(getattr(args, flag))
    a, sep, b = text.replace(":", "..").partition("..")
    try:
        values = (list(range(int(a), int(b) + 1)) if sep else
                  [float(x) if "." in x or "e" in x.lower() else int(x)
                   for x in text.split(",")])
    except ValueError:
        values = []
    if not values:
        raise RangeError(f"--{flag} must be a nonempty integer range a..b or a "
                         f"comma list of numbers, got {text!r}")
    return values


def _scalar(args, flag: str, kind=float):
    """--flag's value as an int or a float; a float may be infinite, not NaN."""
    text = getattr(args, flag)
    try:
        value = kind(text)
        if value == value:  # not NaN
            return value
    except ValueError:
        pass
    want = "an integer" if kind is int else "a number"
    raise RangeError(f"--{flag.replace('_', '-')} must be {want}, got {text!r}")


def _write_json(path: Path, payload, cfg_hash: str):
    payload = dict(payload)
    payload["config_hash"] = cfg_hash
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=str)
                    + "\n", encoding="utf-8")


def _write_rows_csv(path: Path, rows, cfg_hash: str):
    cols = ["parameter", "src_norm", "tgt_norm", "ratio", "config_hash"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            vals = [row.get("parameter", ""), row.get("src_norm", ""),
                    row.get("tgt_norm", ""), row.get("ratio", ""), cfg_hash]
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in vals) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_decide(args) -> int:
    try:
        src = spec_from_json(args.src)
        tgt = spec_from_json(args.tgt)
        verdict = decide(src, tgt)
    except (RangeError, FamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    print(json.dumps(verdict.to_dict(), sort_keys=True))
    return {EMBEDS: EX_OK, NO: EX_NOEMBED, UNKNOWN: EX_UNKNOWN}[verdict.outcome]


_CELL = {EMBEDS: "<=", NO: "x", UNKNOWN: "?"}


def cmd_lattice(args) -> int:
    try:
        text = Path(args.specs_file).read_text(encoding="utf-8")
        data = json.loads(text)
        if not isinstance(data, list):
            raise RangeError("lattice wants a JSON array of space descriptors")
        specs = []
        dims = set()
        for i, entry in enumerate(data):
            try:
                spec = parse_spec(entry)
            except RangeError as exc:
                raise RangeError(f"entry {i}: {exc}") from None
            try:
                spec = validate(spec)
                dims.add(spec.d)
            except RangeError:
                # Keeps the row/column; the matrix records the entry's own
                # validation error.
                pass
            specs.append(spec)
        if len(dims) > 1:
            raise RangeError(f"all spaces must share one dimension, got {sorted(dims)}")
    except (OSError, json.JSONDecodeError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE

    report = embedding_matrix(specs)
    payload = report.to_dict()
    cfg_hash = _config_hash(data)
    out = _out_dir(args)
    _write_json(out / "lattice.json", payload, cfg_hash)
    print(json.dumps(payload, sort_keys=True, default=str))
    print(_render_matrix(report), file=sys.stderr)
    return EX_OK


def _render_matrix(report) -> str:
    names = [str(s) for s in report.specs]
    width = max((len(n) for n in names), default=4)
    lines = []
    header = " " * (width + 2) + "  ".join(f"{j:>4d}" for j in range(len(names)))
    lines.append(header)
    for i, row in enumerate(report.cells):
        cells = []
        for cell in row:
            cells.append("!" if cell.verdict is None else _CELL[cell.verdict.outcome])
        lines.append(f"{names[i]:<{width}} |" + "  ".join(f"{c:>4}" for c in cells))
    if report.transitivity_violations:
        lines.append(f"TRANSITIVITY VIOLATIONS: {report.transitivity_violations}")
    else:
        lines.append("transitivity audit: clean")
    return "\n".join(lines)


def cmd_witness(args) -> int:
    kind = args.kind
    grid = _parse_grid(args.grid) if args.grid else None
    params = {k: v for k, v in vars(args).items()
              if k not in ("cmd", "func", "out", "jobs")}
    cfg_hash = _config_hash(params)
    fam = None
    try:
        if kind == "peaks":
            grid = grid or default_grid(1)
            fam = spectral_peaks(grid, _parse_range(args, "n"), _scalar(args, "j", int))
        elif kind == "dilation":
            grid = grid or default_grid(1)
            base = (random_band_limited(grid, args.seed, band=1.0)
                    if args.seed is not None else gaussian_spectral_base(grid))
            fam = dilation_family(base, _parse_range(args, "t"))
        elif kind == "translation":
            grid = grid or default_grid(1, wide=True)
            base = gaussian_base(grid, sigma=_scalar(args, "sigma"))
            fam = translation_family(base, _parse_range(args, "lam"))
        elif kind == "lacunary":
            grid = grid or default_grid(1)
            coeffs = ([float(c) for c in _parse_range(args, "coeffs")]
                      if args.coeffs else [1.0] * _scalar(args, "n_terms", int))
            f = lacunary_sum(grid, coeffs, _scalar(args, "s0"), _scalar(args, "p0"),
                             _scalar(args, "gamma0"))
            manifest = {
                "kind": "LacunarySum",
                "parameters": {"coeffs": coeffs, "s0": args.s0, "p0": args.p0,
                               "gamma0": args.gamma0},
                "members": [{"index": 0, "file": "lacunary.field"}],
            }
            save = lambda out: save_field(f, out / "lacunary.field",
                                          extra_header={"config_hash": cfg_hash})
        elif kind == "logsing":
            prof = log_singularity(_scalar(args, "p0"), _scalar(args, "gamma0"),
                                   _scalar(args, "p1"), _scalar(args, "dim", int),
                                   eps=_scalar(args, "eps"))
            manifest = {
                "kind": "LogSingularity",
                "parameters": {"p0": args.p0, "gamma0": args.gamma0,
                               "p1": args.p1, "dim": args.dim, "eps": args.eps},
                "members": [{"index": 0, "file": "logsing.csv"}],
            }
            save = lambda out: save_profile_csv(prof, out / "logsing.csv")
        elif kind == "rieszlog":
            prof = riesz_log(_scalar(args, "a"), _scalar(args, "b"),
                             _scalar(args, "dim", int), eps=_scalar(args, "eps"))
            manifest = {
                "kind": "RieszLog",
                "parameters": {"a": args.a, "b": args.b, "dim": args.dim,
                               "eps": args.eps},
                "members": [{"index": 0, "file": "rieszlog.csv"}],
            }
            save = lambda out: save_profile_csv(prof, out / "rieszlog.csv")
        else:
            print(f"error: unknown witness kind {kind!r}", file=sys.stderr)
            return EX_USAGE

        # The output directory is made once there is something to write.
        out = _out_dir(args)
        if fam is None:
            save(out)
        else:
            manifest = fam.manifest()
            for i in range(len(fam)):
                name = f"member_{i:04d}.field"
                save_field(fam.member(i), out / name,
                           extra_header={"config_hash": cfg_hash})
                manifest["members"][i]["file"] = name
        _write_json(out / "manifest.json", manifest, cfg_hash)
        print(str(out / "manifest.json"))
        return EX_OK
    except (RangeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE


def cmd_verify(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise RangeError(f"--jobs wants a positive count, got {args.jobs}")
    if args.list:
        for name, (desc, _) in suite.CATALOG.items():
            print(f"{name:<14} {desc}")
        return EX_OK
    loaded = {}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise RangeError(str(exc)) from None
        if not isinstance(loaded, dict):
            raise RangeError("a verify config must be a JSON object")
    # An absent key keeps its default, and a present one must hold a valid
    # value. The hash is of the config as read, with the default seed and
    # experiments (null for the whole catalog) filled in.
    config = {"experiments": None, "seed": 0, **loaded}
    if args.seed is not None:
        config["seed"] = args.seed
    if type(config["seed"]) is not int:
        raise RangeError(f"seed must be an integer, got {config['seed']!r}")
    experiments = loaded.get("experiments", list(suite.CATALOG))
    if not isinstance(experiments, list) or not experiments:
        raise RangeError(f"experiments must be a non-empty JSON array, got "
                         f"{json.dumps(experiments)}")
    names, overrides = [], {}
    for entry in experiments:
        entry = {"id": entry} if isinstance(entry, str) else entry
        if (not isinstance(entry, dict) or not isinstance(entry.get("id"), str)
                or set(entry) - {"id", "overrides"}
                or not isinstance(entry.get("overrides", {}), dict)):
            raise RangeError(f"experiment entry {json.dumps(entry)} wants a "
                             f"string 'id' and optionally an 'overrides' object")
        names.append(entry["id"])
        overrides[entry["id"]] = dict(entry.get("overrides", {}))
    # A top-level grid goes to every listed runner that takes one and has
    # none of its own, and is checked there; one that reaches no runner is
    # checked once here, so it is never ignored unread.
    problems = []
    if "grid" in config:
        readers = [name for name in names if name in suite.CATALOG
                   and "grid" in suite.parameters(name)
                   and "grid" not in overrides[name]]
        for name in readers:
            overrides[name]["grid"] = config["grid"]
        if not readers:
            try:
                suite.OVERRIDES["grid"](config["grid"])
            except RangeError as exc:
                problems.append(f"top-level {exc}")
    problems += suite.config_problems(names, overrides)
    unknown = sorted(set(config) - {"experiments", "seed", "grid", "out"})
    if unknown:
        problems.insert(0, f"unknown config key {', '.join(map(repr, unknown))}"
                           f"; a config takes experiments, grid, out, seed")
    if "out" in config and not (type(config["out"]) is str and config["out"]):
        problems.append(f"out must be a non-empty path, got "
                        f"{json.dumps(config['out'])}")
    if problems:
        raise RangeError("; ".join(problems))

    cfg_hash = _config_hash(config)
    out = _out_dir(args, config_out=config.get("out"))
    results = suite.run_experiments(names, overrides, seed=config["seed"],
                                    jobs=args.jobs or 1)
    all_pass = True
    for name, reports in results.items():
        for i, rep in enumerate(reports):
            stem = f"{name}_{i:03d}"
            _write_json(out / f"{stem}.json", rep.to_dict(), cfg_hash)
            if rep.rows:
                _write_rows_csv(out / f"{stem}.csv", rep.rows, cfg_hash)
            status = "PASS" if rep.passed else "FAIL"
            print(f"[{status}] {rep.kind}: {rep.experiment_id}")
            all_pass = all_pass and rep.passed
    print(f"config_hash: {cfg_hash}")
    print("ALL PASS" if all_pass else "FAILURES PRESENT")
    return EX_OK if all_pass else EX_PARTIAL


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# The global flags each subcommand reads; any other one given is rejected.
_GLOBAL_FLAGS_READ = {
    "decide": (),
    "lattice": (),
    "witness": ("grid", "seed"),
    "verify": ("jobs", "seed"),
}
# Each witness kind reads only part of witness's flags: only ``dilation``
# draws a random base, the radial profiles have no lattice, and each kind
# has its own parameters.
_WITNESS_FLAGS_READ = {
    "peaks": ("grid", "n", "j"),
    "dilation": ("grid", "seed", "t"),
    "translation": ("grid", "sigma", "lam"),
    "lacunary": ("grid", "coeffs", "n_terms", "s0", "p0", "gamma0"),
    "logsing": ("p0", "gamma0", "p1", "dim", "eps"),
    "rieszlog": ("a", "b", "dim", "eps"),
}


# Every witness flag and its default.  The parser gives none of them a
# default, so a flag on the command line is one that is not None, whatever
# its value; ``main`` fills in these defaults once it has checked which
# flags the kind reads.
_WITNESS_DEFAULTS = {
    "j": 0, "n": "3..7", "t": "0.125,0.25,0.5,1", "lam": "4,8,16,32,64",
    "sigma": 1.0, "coeffs": None, "n_terms": 3, "s0": 1, "p0": 2,
    "gamma0": 0, "p1": 1.5, "a": 0.5, "b": 0.5, "dim": 1, "eps": 0.0,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="powemb",
        description="Embedding oracle and numerical verification for "
                    "power-weighted smoothness spaces",
    )
    ap.add_argument("--out", help="output directory (env POWEMB_OUT overrides)")
    ap.add_argument("--jobs", type=int, default=None,
                    help="worker processes for verify (default 1)")
    ap.add_argument("--seed", type=int, default=None,
                    help="run seed (witness, verify)")
    ap.add_argument("--grid", default=None, help="grid as d,L,N (witness)")
    sub = ap.add_subparsers(dest="cmd")

    p = sub.add_parser("decide", help="decide one embedding pair")
    p.add_argument("src", help="source space JSON descriptor")
    p.add_argument("tgt", help="target space JSON descriptor")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("lattice", help="pairwise verdict matrix from a JSON file")
    p.add_argument("specs_file")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("witness", help="generate a witness family", allow_abbrev=False)
    p.add_argument("kind", help="peaks|dilation|translation|lacunary|logsing|rieszlog")
    for flag in _WITNESS_DEFAULTS:
        p.add_argument(*(["--lam", "--lambda"] if flag == "lam"
                         else [f"--{flag.replace('_', '-')}"]), dest=flag)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="run verification experiment suites")
    p.add_argument("config", nargs="?", default=None,
                   help="RunConfig JSON file (defaults to the full suite)")
    p.add_argument("--list", action="store_true", help="print the catalog")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap so 2 stays 'Unknown'.
        return EX_OK if exc.code in (0, None) else EX_USAGE
    if not getattr(args, "func", None):
        parser.print_help()
        return EX_USAGE
    what, read = args.cmd, _GLOBAL_FLAGS_READ[args.cmd]
    flags = ["grid", "jobs", "seed"]
    if args.cmd == "witness" and args.kind in _WITNESS_FLAGS_READ:
        what, read = f"witness {args.kind}", _WITNESS_FLAGS_READ[args.kind]
        flags += list(_WITNESS_DEFAULTS)
    # A flag counts as given when it is on the command line, at any value;
    # --out is not checked.
    unread = [f"--{flag.replace('_', '-')}" for flag in flags
              if flag not in read and getattr(args, flag) is not None]
    if unread:
        print(f"error: {what} does not use {', '.join(unread)}",
              file=sys.stderr)
        return EX_USAGE
    if args.cmd == "witness":
        for flag, default in _WITNESS_DEFAULTS.items():
            if getattr(args, flag) is None:
                setattr(args, flag, default)
    try:
        return args.func(args)
    except (RangeError, FamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except Exception as exc:  # keep the contract: >2 means error
        print(f"internal error: {exc}", file=sys.stderr)
        return EX_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
