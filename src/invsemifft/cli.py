"""Command-line surface: build semigroups, transform JSON function files,
verify the invariant suites, and benchmark the fast transforms.

Exit codes: 0 success, 1 verification failure, 2 bad input or contract
violation, 3 unsupported capability, 4 size cap exceeded.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import (CapabilityError, ContractError, DomainError,
                     SizeCapError, StructureError)
from .families import FAMILIES, FamilySpec, build, count_formula, predicted_size
from .fast_transforms import OpCounter, fast_mobius, fast_zeta
from .group_harmonics import validate_repset
from .groups import BUILTIN_LABEL_GROUPS, DEFAULT_SIZE_CAP, label_group_by_name
from .semigroup_fourier import (ConjugatedRepSet, convolve_fft, convolve_naive,
                                dump_json, fft, function_from_json,
                                function_to_json, ifft, induce,
                                invert_equivalent_reps, invert_groupoid_local,
                                invert_uniform, multiply_spectra, naive_ft,
                                spectrum_from_json, spectrum_to_json)
from .structure import SEMIGROUP, FunctionOnS

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_CAPABILITY = 3
EXIT_CAP = 4


@dataclass
class JobConfig:
    command: str
    family: str | None = None
    n: int | None = None
    label_group: str | None = None
    in_path: str | None = None
    out_path: str | None = None
    g_in_path: str | None = None
    seed: int = 0
    threads: int = 1
    tol: float = 1e-9
    cap: int = DEFAULT_SIZE_CAP
    max_n: int | None = None


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="invsemifft",
        description="Fourier transforms on finite inverse semigroups")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_family=True):
        if needs_family:
            sp.add_argument("--family", required=True, choices=FAMILIES)
            sp.add_argument("--n", required=True, type=int)
            sp.add_argument("--label-group", default=None,
                            help=f"wreath label group: {BUILTIN_LABEL_GROUPS}")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--threads", type=int, default=1, help="ignored; "
                        "it does not set the BLAS thread count")
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--cap", type=int, default=DEFAULT_SIZE_CAP)

    sp = sub.add_parser("build", help="build a semigroup and print its shape")
    common(sp)
    sp.add_argument("--out", default=None, help="write a JSON summary")

    for name, help_text in (("fft", "function file -> spectrum file"),
                            ("ifft", "spectrum file -> function file")):
        sp = sub.add_parser(name, help=help_text)
        common(sp)
        sp.add_argument("--in", dest="in_path", required=True)
        sp.add_argument("--out", required=True)

    sp = sub.add_parser("convolve", help="convolve two function files")
    common(sp)
    sp.add_argument("--in", dest="in_path", required=True)
    sp.add_argument("--g-in", dest="g_in_path", required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("verify", help="run the invariant suites")
    common(sp)
    sp.add_argument("--out", default=None,
                    help="report path; also writes <out>.txt")

    sp = sub.add_parser("bench", help="operation-count and wall-time CSV")
    common(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--max-n", type=int, default=None)

    sp = sub.add_parser("families", help="list the built-in families")
    common(sp, needs_family=False)
    return p


def parse_args(argv: list[str]) -> JobConfig:
    ns = _parser().parse_args(argv)
    return JobConfig(
        command=ns.command,
        family=getattr(ns, "family", None),
        n=getattr(ns, "n", None),
        label_group=getattr(ns, "label_group", None),
        in_path=getattr(ns, "in_path", None),
        out_path=getattr(ns, "out", None),
        g_in_path=getattr(ns, "g_in_path", None),
        seed=getattr(ns, "seed", 0),
        threads=getattr(ns, "threads", 1),
        tol=getattr(ns, "tol", 1e-9),
        cap=getattr(ns, "cap", DEFAULT_SIZE_CAP),
        max_n=getattr(ns, "max_n", None))


def _family_spec(cfg: JobConfig) -> FamilySpec:
    lg = label_group_by_name(cfg.label_group) if cfg.label_group else None
    return FamilySpec(cfg.family, cfg.n, lg)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- commands --------------------------------------------------------------

def cmd_build(cfg: JobConfig) -> int:
    S = build(_family_spec(cfg), cap=cfg.cap)
    summary = {
        "family": S.family, "n": S.n, "size": len(S),
        "num_idempotents": len(S.idempotents),
        "d_classes": [{"index": dc.index, "size": len(dc.element_ids),
                       "idempotents": dc.num_idempotents,
                       "subgroup_order": len(dc.subgroup)}
                      for dc in S.d_classes]}
    if cfg.out_path:
        dump_json(summary, cfg.out_path)
    print(f"{S.family} n={S.n}: |S|={len(S)}, "
          f"{len(S.d_classes)} D-classes, {len(S.idempotents)} idempotents")
    for dc in S.d_classes:
        print(f"  class {dc.index}: size {len(dc.element_ids)}, "
              f"r={dc.num_idempotents}, |G|={len(dc.subgroup)}")
    return EXIT_OK


def cmd_fft(cfg: JobConfig) -> int:
    S = build(_family_spec(cfg), cap=cfg.cap)
    Y = induce(S)
    f = function_from_json(S, _load_json(cfg.in_path))
    counter = OpCounter()
    c = fft(f, Y, counter)
    dump_json(spectrum_to_json(c), cfg.out_path)
    print(f"fft: {counter.additions} additions, "
          f"{counter.multiplications} multiplications -> {cfg.out_path}")
    return EXIT_OK


def cmd_ifft(cfg: JobConfig) -> int:
    S = build(_family_spec(cfg), cap=cfg.cap)
    Y = induce(S)
    c = spectrum_from_json(Y, _load_json(cfg.in_path))
    counter = OpCounter()
    f = ifft(c, counter)
    dump_json(function_to_json(f), cfg.out_path)
    print(f"ifft: {counter.additions} additions, "
          f"{counter.multiplications} multiplications -> {cfg.out_path}")
    return EXIT_OK


def cmd_convolve(cfg: JobConfig) -> int:
    S = build(_family_spec(cfg), cap=cfg.cap)
    Y = induce(S)
    f = function_from_json(S, _load_json(cfg.in_path))
    g = function_from_json(S, _load_json(cfg.g_in_path))
    out = convolve_fft(f, g, Y)
    dump_json(function_to_json(out), cfg.out_path)
    print(f"convolve -> {cfg.out_path}")
    return EXIT_OK


def _verify_checks(cfg: JobConfig):
    S = build(_family_spec(cfg), cap=cfg.cap)
    Y = induce(S)
    rng = np.random.default_rng(cfg.seed)
    tol = cfg.tol

    def rand_f():
        return FunctionOnS(S, SEMIGROUP,
                           rng.normal(size=len(S)) + 1j * rng.normal(size=len(S)))

    checks = []

    size = predicted_size(_family_spec(cfg))
    checks.append(("element_count", len(S) == size,
                   f"enumerated {len(S)}, formula {size}"))
    dim_sq = sum(d * d for d in Y.dims)
    checks.append(("dimension_identity", dim_sq == len(S),
                   f"sum d^2 = {dim_sq}, |S| = {len(S)}"))

    rep_ok, rep_msg = True, "all representation sets pass"
    try:
        for rs in Y.class_repsets:
            validate_repset(rs, tol=tol)
    except ContractError as exc:
        rep_ok, rep_msg = False, str(exc)
    checks.append(("representation_gates", rep_ok, rep_msg))

    err = 0.0
    for _ in range(5):
        f = rand_f()
        cf, cn = fft(f, Y), naive_ft(f, Y)
        err = max(err, np.abs(cf.data - cn.data).max())
    checks.append(("fft_vs_naive", err <= tol, f"max block error {err:.3e}"))

    err = 0.0
    for _ in range(5):
        f = rand_f()
        err = max(err, np.abs(ifft(fft(f, Y)).values - f.values).max())
    checks.append(("round_trip", err <= tol, f"max error {err:.3e}"))

    f, g = rand_f(), rand_f()
    err = np.abs(convolve_fft(f, g, Y).values
                 - convolve_naive(f, g).values).max()
    checks.append(("convolution_theorem", err <= max(tol, 1e-8),
                   f"max error {err:.3e}"))

    if len(S) <= 300:
        X = ConjugatedRepSet.random(Y, seed=cfg.seed + 1)
        f = rand_f()
        c = fft(f, Y)
        from .structure import zeta_naive
        g_ref = zeta_naive(f)
        err = 0.0
        for s in range(len(S)):
            err = max(err,
                      abs(invert_groupoid_local(c, s) - g_ref.values[s]),
                      abs(invert_equivalent_reps(c, s, X) - g_ref.values[s]),
                      abs(invert_uniform(c, s, X) - g_ref.values[s]))
        checks.append(("inversion_formulas", err <= max(tol, 1e-8),
                       f"max error {err:.3e}"))
    return S, checks


def cmd_verify(cfg: JobConfig) -> int:
    S, checks = _verify_checks(cfg)
    ok = all(passed for _, passed, _ in checks)
    report = {"family": S.family, "n": S.n, "seed": cfg.seed,
              "tolerance": cfg.tol, "status": "pass" if ok else "fail",
              "checks": [{"name": name, "status": "pass" if p else "fail",
                          "detail": detail} for name, p, detail in checks]}
    lines = [f"verify {S.family} n={S.n} seed={cfg.seed}"]
    for name, passed, detail in checks:
        lines.append(f"  [{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    text = "\n".join(lines)
    print(text)
    if cfg.out_path:
        dump_json(report, cfg.out_path)
        with open(cfg.out_path + ".txt", "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_bench(cfg: JobConfig) -> int:
    max_n = cfg.max_n or cfg.n
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for n in range(1, max_n + 1):
        spec = FamilySpec(cfg.family, n,
                          label_group_by_name(cfg.label_group)
                          if cfg.label_group else None)
        if predicted_size(spec) > cfg.cap:
            break
        S = build(spec, cap=cfg.cap)
        f = FunctionOnS(S, SEMIGROUP, rng.normal(size=len(S))
                        + 1j * rng.normal(size=len(S)))
        Y = induce(S)
        for name, fn in (("zeta", fast_zeta), ("fft", None)):
            counter = OpCounter()
            t0 = time.perf_counter()
            if name == "zeta":
                g = fn(f, counter)
                fast_mobius(g, counter)
            else:
                ifft(fft(f, Y, counter), counter)
            dt = time.perf_counter() - t0
            rows.append([cfg.family, n, len(S), name + "+inverse",
                         counter.additions, counter.multiplications,
                         f"{dt:.6f}"])
    with open(cfg.out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["family", "n", "size", "transform",
                    "additions", "multiplications", "wall_seconds"])
        w.writerows(rows)
    print(f"bench: {len(rows)} rows -> {cfg.out_path}")
    return EXIT_OK


def cmd_families(cfg: JobConfig) -> int:
    print("family        elements            example sizes")
    for fam in FAMILIES:
        lg = label_group_by_name("Z2") if fam == "wreath_rook" else None
        sizes = ", ".join(
            f"n={n}:{predicted_size(FamilySpec(fam, n, lg))}"
            for n in range(1, 5))
        formula = count_formula(fam)
        if fam == "wreath_rook":
            sizes += "  (label group Z2)"
        print(f"{fam:<13} {formula:<28} {sizes}")
    return EXIT_OK


_COMMANDS = {"build": cmd_build, "fft": cmd_fft, "ifft": cmd_ifft,
             "convolve": cmd_convolve, "verify": cmd_verify,
             "bench": cmd_bench, "families": cmd_families}


def run(cfg: JobConfig) -> int:
    try:
        return _COMMANDS[cfg.command](cfg)
    except SizeCapError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except CapabilityError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (ContractError, DomainError, StructureError, FileNotFoundError,
            json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_PARSE


def main(argv: list[str] | None = None) -> int:
    return run(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
