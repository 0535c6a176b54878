"""Command line entry points.

Subcommands mirror the package operations: transform, norm, semigroup,
reconstruct, tent, czo, riesz, verify.  Binary grid/coefficient formats and
the JSON report conventions are those of the library modules.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import (
    BandRangeError,
    BasisConstructionError,
    GridMismatchError,
    ParameterError,
)
from .grid import GridSpec, read_grid_function, write_grid_function
from .harness import ExperimentConfig, default_suite, run_all, write_report
from .norms import (
    CutoffFamily,
    SpaceParams,
    oscillation_norm_report,
    tl_norm,
    tlm_wavelet_norm_report,
)
from .operators import (
    CzoGeneratorParams,
    apply_matrix,
    czo_boundedness_experiment,
    generate_random_czo,
    read_matrix_jsonl,
    riesz_apply,
    write_matrix_jsonl,
)
from .semigroup import (
    SemigroupSpec,
    TimeGrid,
    calibrate_family,
    evolve_coefficients,
    frames_from_tcf,
    pi_phi_report,
)
from .tent import TentParams, tent_norms
from .wavelet import (
    build_basis,
    coeff_field_from_json,
    coeff_field_to_json,
    read_coeff_field,
    write_coeff_field,
)

CONFIG_TEMPLATE = """\
# oscillet experiment configuration (key = value per line, '#' comments);
# unknown keys are rejected, and gamma1, gamma2, p and q are set together
# kind: norm-equivalence | semigroup-characterization | czo-boundedness |
#       riesz-tent | decay-bounds | embeddings
kind = norm-equivalence
n = 1
# one level or more, strictly increasing
J_sweep = 8,9,10
j_min = 0
gamma1 = 0.0
gamma2 = 0.3
p = 2.0
q = 2.0
m = 3.0
m_prime = 1.0
beta = 1.0
samples = 20
# verify --seed overrides the seed
seed = 42
# meyer, or daubechies for norm-equivalence (it then also runs meyer); the
# other kinds run on meyer only
family = meyer
profile = polynomial
time_nodes = 256
# moment order of the oscillation norm (auto or >= 0); auto is 1 for
# gamma1 <= 0, else 3
m0 = auto
"""


def _load_coeffs(path: str):
    if path.endswith(".json"):
        with open(path) as fh:
            return coeff_field_from_json(fh.read())
    return read_coeff_field(path)


def _save_coeffs(c, path: str):
    if path.endswith(".json"):
        with open(path, "w") as fh:
            fh.write(coeff_field_to_json(c))
    else:
        write_coeff_field(c, path)


def cmd_transform(args) -> int:
    if args.inverse:
        c = _load_coeffs(args.infile)
        basis = build_basis(args.family, c.spec, profile=args.profile,
                            m0=args.m0)
        write_grid_function(basis.synthesize(c), args.outfile)
        return 0
    f = read_grid_function(args.infile, j_min=args.j_min)
    spec = GridSpec(f.spec.n, args.J or f.spec.J, args.j_min)
    if spec != f.spec:
        raise SystemExit("input resolution does not match --J")
    basis = build_basis(args.family, spec, profile=args.profile, m0=args.m0)
    _save_coeffs(basis.analyze(f), args.outfile)
    return 0


def cmd_norm(args) -> int:
    c = _load_coeffs(args.infile)
    sp = SpaceParams(args.gamma1, args.gamma2, args.p, args.q)
    report: dict = {"kind": args.kind, "gamma1": args.gamma1,
                    "gamma2": args.gamma2, "p": args.p, "q": args.q}
    if args.kind == "tl":
        report["value"] = tl_norm(c, args.gamma1, args.p, args.q)
    elif args.kind == "tlm":
        rep = tlm_wavelet_norm_report(c, sp)
        report["value"] = rep.value
        report["argmax_cube"] = _cube_dict(rep.argmax_cube)
        report["per_level"] = {str(j): v for j, v in rep.per_level.items()}
    elif args.kind == "osc":
        basis = build_basis(c.family, c.spec, m0=max(args.m0, 6))
        f = basis.synthesize(c)
        rep = oscillation_norm_report(f, sp, CutoffFamily(n=c.spec.n),
                                      args.m0, basis)
        report["value"] = rep.value
        report["argmax_cube"] = _cube_dict(rep.argmax_cube)
    else:
        raise SystemExit(f"unknown norm kind {args.kind}")
    _emit(report, args.report)
    return 0


def _cube_dict(cube):
    return None if cube is None else {"j": cube.j, "k": list(cube.k)}


def cmd_semigroup(args) -> int:
    f = read_grid_function(args.infile, j_min=args.j_min)
    basis = build_basis("meyer", f.spec, profile=args.profile)
    sg = SemigroupSpec(args.beta, f.spec)
    t_min = args.tmin or 2.0 ** (-2 * args.beta * (f.spec.J + 1))
    tg = TimeGrid(t_min, args.tmax, args.L)
    tcf = evolve_coefficients(sg, basis, f, tg)
    write_coeff_field(tcf, args.outfile)
    return 0


def cmd_reconstruct(args) -> int:
    tcf = read_coeff_field(args.infile)
    if tcf.tg is None or tcf.beta is None:
        raise SystemExit("not a time-coefficient file with a beta tag")
    basis = build_basis("meyer", tcf.spec, profile=args.profile)
    fam = calibrate_family(tcf.beta, profile=args.profile)
    rec, rep = pi_phi_report(fam, frames_from_tcf(basis, tcf, fam), tcf.tg,
                             tcf.spec)
    write_grid_function(rec, args.outfile)
    _emit({"kind": "reconstruct", "beta": tcf.beta, "C_beta": fam.C_beta,
           "coverage_low": rep.coverage_low, "coverage_high": rep.coverage_high,
           "warning": rep.warning}, args.report)
    return 0


def cmd_tent(args) -> int:
    tcf = read_coeff_field(args.infile)
    if None not in (args.beta, tcf.beta) and args.beta != tcf.beta:
        raise SystemExit(f"--beta {args.beta} differs from the file's beta {tcf.beta}")
    beta = (tcf.beta or 1.0) if args.beta is None else args.beta
    tp = TentParams(SpaceParams(args.gamma1, args.gamma2, args.p, args.q),
                    m=args.m, m_prime=args.mprime, beta=beta)
    rep = tent_norms(tcf, tp)
    report = {
        "kind": "tent",
        "values": {"I": rep.part_i.value, "II": rep.part_ii.value,
                   "III": rep.part_iii.value, "IV": rep.part_iv.value},
        "combined": rep.combined,
        "argmax": {
            "I": {"cube": _cube_dict(rep.part_i.argmax_cube),
                  "node": rep.part_i.argmax_node},
            "II": {"cube": _cube_dict(rep.part_ii.argmax_cube),
                   "node": rep.part_ii.argmax_node},
            "III": {"cube": _cube_dict(rep.part_iii.argmax_cube)},
            "IV": {"cube": _cube_dict(rep.part_iv.argmax_cube)},
        },
        "seam_levels": {str(k): v for k, v in rep.seam_levels.items()},
        "quadrature_estimate": rep.quadrature_estimate,
    }
    _emit(report, args.report)
    return 0


def cmd_czo(args) -> int:
    if args.gen:
        spec = GridSpec(args.n, args.J, args.j_min)
        params = CzoGeneratorParams(N0=args.N0, C=args.C)
        mat = generate_random_czo(spec, args.j_min, args.J - 2, params,
                                  seed=args.seed)
        write_matrix_jsonl(mat, args.outfile)
        return 0
    if args.apply:
        mat = read_matrix_jsonl(args.matrix)
        c = _load_coeffs(args.infile)
        _save_coeffs(apply_matrix(mat, c), args.outfile)
        return 0
    if args.experiment:
        sp = SpaceParams(args.gamma1, args.gamma2, args.p, args.q)
        rep = czo_boundedness_experiment(
            CzoGeneratorParams(N0=args.N0, C=args.C), sp,
            samples=args.samples, seed=args.seed)
        _emit({"kind": "czo-experiment",
               "max_ratio_by_J": {str(k): v for k, v in rep.max_ratio_by_J.items()},
               "growth_per_J": rep.growth_per_J, "certified": rep.certified,
               "passed": rep.passed}, args.report)
        return 0 if rep.passed else 1
    raise SystemExit("pick one of --gen / --apply / --experiment")


def cmd_riesz(args) -> int:
    f = read_grid_function(args.infile, j_min=args.j_min)
    write_grid_function(riesz_apply(f, args.l), args.outfile)
    return 0


# config file key -> parser of its value
_CONFIG_KEYS = {
    "kind": str, "n": int, "J_sweep": lambda v: tuple(int(J) for J in v.split(",")),
    "j_min": int, "gamma1": float, "gamma2": float, "p": float, "q": float,
    "m": float, "m_prime": float, "beta": float, "samples": int, "seed": int,
    "family": str, "profile": str, "time_nodes": int,
    "m0": lambda v: None if v == "auto" else int(v),
}
_SP_KEYS = ("gamma1", "gamma2", "p", "q")


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, raw = line.partition("=")
            if not sep:
                raise ParameterError(f"line {lineno}: expected 'key = value', got {line!r}")
            values[key.strip()] = raw.strip()
    return values


def _config_from_values(values: dict) -> ExperimentConfig:
    kw: dict = {}
    for key, raw in values.items():
        if key not in _CONFIG_KEYS:
            raise ParameterError(f"unknown config key {key!r}; expected one of "
                                 f"{', '.join(_CONFIG_KEYS)}")
        try:
            kw[key] = _CONFIG_KEYS[key](raw)
        except ValueError:
            raise ParameterError(f"config key {key!r}: cannot parse {raw!r}") from None
    if "kind" not in kw:
        raise ParameterError("config key 'kind' is missing")
    sp = [kw.pop(k) for k in _SP_KEYS if k in kw]
    if sp:
        missing = [k for k in _SP_KEYS if k not in values]
        if missing:
            raise ParameterError(f"config keys {', '.join(missing)} missing: "
                                 "gamma1, gamma2, p and q are set together")
        kw["sp"] = SpaceParams(*sp)
    return ExperimentConfig(**kw)


def cmd_verify(args) -> int:
    if args.write_config_template:
        with open(args.write_config_template, "w") as fh:
            fh.write(CONFIG_TEMPLATE)
        print(f"wrote template to {args.write_config_template}")
        return 0
    if args.config:
        try:
            configs = [_config_from_values(_parse_config_file(args.config))]
        except ParameterError as exc:
            raise SystemExit(f"{args.config}: {exc}") from None
    elif args.suite == "default":
        configs = default_suite()
    else:
        raise SystemExit(f"unknown suite {args.suite!r}")
    if args.seed is not None:
        for cfg in configs:
            cfg.seed = args.seed
    summary = run_all(configs, args.out)
    for kind, rep in sorted(summary["experiments"].items()):
        print(f"{'PASS' if rep.get('passed') else 'FAIL'}  {kind}")
    print("overall:", "PASS" if summary["passed"] else "FAIL")
    return 0 if summary["passed"] else 1


def _emit(report: dict, path: str | None):
    if path:
        write_report(report, path)
    else:
        json.dump(report, sys.stdout, sort_keys=True, indent=1,
                  default=lambda o: o.item() if hasattr(o, "item") else str(o))
        sys.stdout.write("\n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="oscillet")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="wavelet analysis of a grid function")
    p.add_argument("--family", default="meyer")
    p.add_argument("--profile", default="polynomial")
    p.add_argument("--J", type=int, default=None)
    p.add_argument("--j-min", type=int, default=0)
    p.add_argument("--m0", type=int, default=6)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("norm", help="evaluate a coefficient or oscillation norm")
    p.add_argument("--kind", choices=("tl", "tlm", "osc"), required=True)
    p.add_argument("--gamma1", type=float, required=True)
    p.add_argument("--gamma2", type=float, default=0.0)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--m0", type=int, default=3)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("semigroup", help="heat-evolve into a time coefficient field")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--profile", default="polynomial")
    p.add_argument("--tmin", type=float, default=None)
    p.add_argument("--tmax", type=float, default=4.0)
    p.add_argument("--L", type=int, default=256)
    p.add_argument("--j-min", type=int, default=0)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("reconstruct", help="reconstruction from a time field")
    p.add_argument("--profile", default="polynomial")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("tent", help="tent norms of a time coefficient field")
    for name in ("gamma1", "gamma2", "p", "q", "m", "mprime", "beta"):
        # beta defaults to the file's, or 1.0 for a file without one
        p.add_argument(f"--{name}", type=float, required=(name != "beta"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_tent)

    p = sub.add_parser("czo", help="random operator generation / application")
    p.add_argument("--gen", action="store_true")
    p.add_argument("--apply", action="store_true")
    p.add_argument("--experiment", action="store_true")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--J", type=int, default=10)
    p.add_argument("--j-min", type=int, default=0)
    p.add_argument("--N0", type=float, default=6.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--gamma1", type=float, default=0.0)
    p.add_argument("--gamma2", type=float, default=0.3)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--matrix", default=None)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--out", dest="outfile", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_czo)

    p = sub.add_parser("riesz", help="apply a Riesz transform to a grid function")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--j-min", type=int, default=0)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_riesz)

    p = sub.add_parser("verify", help="run the experiment suite")
    p.add_argument("--suite", default="default")
    # default: the config file's seed, or 42 for the default suite
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="reports")
    p.add_argument("--config", default=None)
    p.add_argument("--write-config-template", default=None)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, BandRangeError, GridMismatchError,
            BasisConstructionError) as exc:
        raise SystemExit(f"oscillet {args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
