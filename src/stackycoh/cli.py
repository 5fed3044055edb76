"""Command-line front end.

Fans come from JSON files or from the bundled catalog via @name. Results
are printed as deterministic JSON (sorted keys, compact separators, one
trailing newline) or as short text.

Exit codes: 0 success, 1 invalid fan input, 2 computation gave up
(enumeration cap or an unbounded contribution), 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .catalog import catalog_fan, catalog_names
from .cohomline import (
    CapExceededError,
    PropernessError,
    _normalize_box,
    cohomology,
    forbidden_cone,
    is_h_trivial,
    scan_h_trivial,
)
from .exactlin import DEFAULT_CAP
from .fan import (
    FanError,
    FanFormatError,
    FanValidationError,
    StackyFan,
    fan_fingerprint,
    load_fan,
)
from .homology import DEFAULT_DELTA_CAP, DeltaCapError, delta_family
from .picard import class_of, class_to_json, pic_structure
from .plsearch import criterion_report, family_class, find_degenerate_psi


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    fan_source: Optional[str]
    fmt: str
    cap: int
    delta_cap: int
    threads: int
    coeffs: Optional[tuple[int, ...]] = None
    box: Optional[tuple[tuple[int, int], ...]] = None
    r_range: tuple[int, int] = (-5, 5)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _parse_coeffs(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"bad coefficient list {text!r}; expected a1,a2,...")


def _parse_ranges(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for part in text.split(","):
        try:
            lo, hi = part.split(":")
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise UsageError(f"bad range {part!r}; expected lo:hi")
        if lo > hi:
            raise UsageError(f"empty range {part!r}")
        out.append((lo, hi))
    return tuple(out)


def _load(cfg: RunConfig) -> StackyFan:
    src = cfg.fan_source
    if src.startswith("@"):
        name = src[1:]
        if name not in catalog_names():
            raise UsageError(
                f"unknown catalog fan {name!r}; try the catalog subcommand"
            )
        return catalog_fan(name)
    path = Path(src)
    if not path.is_file():
        raise UsageError(f"fan file {src!r} not found")
    return load_fan(path.read_text())


def _emit(cfg: RunConfig, payload: dict, text_lines: Sequence[str]) -> None:
    if cfg.fmt == "json":
        sys.stdout.write(
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        )
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _require_coeffs(cfg: RunConfig, fan: StackyFan) -> tuple[int, ...]:
    if cfg.coeffs is None:
        raise UsageError("--coeffs is required")
    if len(cfg.coeffs) != fan.nrays:
        raise UsageError(
            f"expected {fan.nrays} coefficients, got {len(cfg.coeffs)}"
        )
    return cfg.coeffs


def _box(cfg: RunConfig, fan: StackyFan) -> tuple[tuple[int, int], ...]:
    try:
        return _normalize_box(fan, cfg.box)
    except ValueError as exc:
        raise UsageError(str(exc))


def _cmd_catalog(cfg: RunConfig) -> None:
    rows = []
    lines = []
    for name in catalog_names():
        fan = catalog_fan(name)
        fp = fan_fingerprint(fan)
        rows.append(
            {
                "name": name,
                "rank": fan.rank,
                "rays": fan.nrays,
                "fingerprint": fp,
            }
        )
        lines.append(f"{name}: rank {fan.rank}, {fan.nrays} rays, {fp}")
    _emit(cfg, {"fans": rows}, lines)


def _cmd_validate(cfg: RunConfig) -> None:
    fan = _load(cfg)
    fp = fan_fingerprint(fan)
    payload = {
        "fan": fp,
        "valid": True,
        "rank": fan.rank,
        "rays": fan.nrays,
        "max_cones": len(fan.max_cones),
    }
    _emit(cfg, payload, [
        f"valid: rank {fan.rank}, {fan.nrays} rays, "
        f"{len(fan.max_cones)} maximal cones, {fp}"
    ])


def _cmd_pic(cfg: RunConfig) -> None:
    fan = _load(cfg)
    st = pic_structure(fan)
    payload = {
        "fan": fan_fingerprint(fan),
        "free_rank": st.free_rank,
        "torsion": list(st.torsion),
    }
    tors = " x ".join(f"Z/{d}" for d in st.torsion) or "none"
    _emit(cfg, payload, [f"free rank {st.free_rank}; torsion {tors}"])


def _cmd_delta(cfg: RunConfig) -> None:
    fan = _load(cfg)
    fam = delta_family(fan, cfg.delta_cap)
    members = [
        {"index_set": sorted(I), "betti": list(b)} for I, b in fam.members
    ]
    payload = {"fan": fan_fingerprint(fan), "members": members}
    lines = [
        f"{{{','.join(str(i) for i in sorted(I))}}}: betti {b}"
        for I, b in fam.members
    ]
    _emit(cfg, payload, lines)


def _cmd_cohomology(cfg: RunConfig) -> None:
    fan = _load(cfg)
    a = _require_coeffs(cfg, fan)
    h = cohomology(fan, a, cfg.cap, cfg.delta_cap)
    payload = {
        "fan": fan_fingerprint(fan),
        "coeffs": list(a),
        "h": list(h),
        "class": class_to_json(class_of(fan, a)),
    }
    _emit(cfg, payload, ["h = (" + ", ".join(str(x) for x in h) + ")"])


def _cmd_h_trivial(cfg: RunConfig) -> None:
    fan = _load(cfg)
    a = _require_coeffs(cfg, fan)
    fc = forbidden_cone(fan, a, cfg.cap, cfg.delta_cap)
    trivial = fc is None
    payload = {
        "fan": fan_fingerprint(fan),
        "coeffs": list(a),
        "h_trivial": trivial,
        "forbidden": None
        if trivial
        else {"index_set": sorted(fc.index_set), "witness": list(fc.witness)},
    }
    if trivial:
        lines = ["true"]
    else:
        lines = [
            f"false (index set {{{','.join(str(i) for i in sorted(fc.index_set))}}}, "
            f"witness {fc.witness})"
        ]
    _emit(cfg, payload, lines)


def _cmd_scan(cfg: RunConfig) -> None:
    fan = _load(cfg)
    box = _box(cfg, fan)
    found = scan_h_trivial(fan, box, cfg.cap, cfg.delta_cap, cfg.threads)
    payload = {
        "fan": fan_fingerprint(fan),
        "box": [list(b) for b in box],
        "count": len(found),
        "classes": [class_to_json(c) for c in found],
    }
    lines = [f"{len(found)} H-trivial classes"] + [
        f"free {c.free} torsion {c.torsion} raw {c.raw}" for c in found
    ]
    _emit(cfg, payload, lines)


def _psi_json(found) -> Optional[dict]:
    if found is None:
        return None
    s, psi = found
    return {"ray": s, "psi": [int(v) for v in psi.values]}


def _cmd_find_psi(cfg: RunConfig) -> None:
    fan = _load(cfg)
    found = find_degenerate_psi(fan)
    payload = {
        "fan": fan_fingerprint(fan),
        "found": found is not None,
        "degenerate_psi": _psi_json(found),
    }
    if found is None:
        lines = ["none"]
    else:
        s, psi = found
        lines = [f"ray {s}, psi ({', '.join(str(int(v)) for v in psi.values)})"]
    _emit(cfg, payload, lines)


def _cmd_family(cfg: RunConfig) -> None:
    fan = _load(cfg)
    found = find_degenerate_psi(fan)
    if found is None:
        _emit(
            cfg,
            {"fan": fan_fingerprint(fan), "found": False, "classes": []},
            ["none"],
        )
        return
    s, psi = found
    lo, hi = cfg.r_range
    rows = []
    lines = [f"ray {s}, psi ({', '.join(str(int(v)) for v in psi.values)})"]
    for r in range(lo, hi + 1):
        cls = family_class(fan, s, psi, r)
        trivial = is_h_trivial(fan, cls.raw, cfg.cap, cfg.delta_cap)
        rows.append(
            {"r": r, "class": class_to_json(cls), "h_trivial": trivial}
        )
        lines.append(
            f"r={r}: free {cls.free} torsion {cls.torsion} "
            f"{'H-trivial' if trivial else 'NOT H-trivial'}"
        )
    payload = {
        "fan": fan_fingerprint(fan),
        "found": True,
        "ray": s,
        "psi": [int(v) for v in psi.values],
        "classes": rows,
    }
    _emit(cfg, payload, lines)


def _cmd_report(cfg: RunConfig) -> None:
    fan = _load(cfg)
    box = _box(cfg, fan)
    rep = criterion_report(fan, box, cfg.r_range, cfg.cap, cfg.delta_cap)
    payload = {
        "fan": fan_fingerprint(fan),
        "collinear_pair_count": rep.collinear_pair_count,
        "degenerate_psi": _psi_json(rep.degenerate_psi),
        "statement3_witness": None
        if rep.statement3_witness is None
        else class_to_json(rep.statement3_witness),
        "sampled_family_checks": [[r, ok] for r, ok in rep.sampled_family_checks],
        "verdict": rep.verdict,
    }
    lines = [
        f"collinear pairs: {rep.collinear_pair_count}",
        "degenerate psi: "
        + (
            "none"
            if rep.degenerate_psi is None
            else f"ray {rep.degenerate_psi[0]}, values "
            f"({', '.join(str(int(v)) for v in rep.degenerate_psi[1].values)})"
        ),
        "witness outside all interiors: "
        + (
            "none in box"
            if rep.statement3_witness is None
            else f"free {rep.statement3_witness.free} "
            f"torsion {rep.statement3_witness.torsion}"
        ),
        f"family checks: {sum(1 for _, ok in rep.sampled_family_checks if ok)}"
        f"/{len(rep.sampled_family_checks)} H-trivial",
        f"verdict: {rep.verdict}",
    ]
    _emit(cfg, payload, lines)


_COMMANDS = {
    "catalog": _cmd_catalog,
    "validate": _cmd_validate,
    "pic": _cmd_pic,
    "delta": _cmd_delta,
    "cohomology": _cmd_cohomology,
    "h-trivial": _cmd_h_trivial,
    "scan": _cmd_scan,
    "find-psi": _cmd_find_psi,
    "family": _cmd_family,
    "report": _cmd_report,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="stackycoh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--cap", type=int, default=DEFAULT_CAP)
    common.add_argument("--delta-cap", type=int, default=DEFAULT_DELTA_CAP)
    common.add_argument("--threads", type=int, default=1)

    sub.add_parser("catalog", parents=[common])
    for name in ("validate", "pic", "delta", "find-psi"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("fan", help="fan JSON path or @catalog-name")
    for name in ("cohomology", "h-trivial"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("fan", help="fan JSON path or @catalog-name")
        p.add_argument(
            "--coeffs",
            required=True,
            help="a1,a2,... (write --coeffs=-1,0,0 for a leading minus)",
        )
    p = sub.add_parser("scan", parents=[common])
    p.add_argument("fan", help="fan JSON path or @catalog-name")
    p.add_argument(
        "--box",
        required=True,
        help="lo:hi[,lo:hi...] (write --box=-3:3 for a leading minus)",
    )
    p = sub.add_parser("family", parents=[common])
    p.add_argument("fan", help="fan JSON path or @catalog-name")
    p.add_argument("--r", default="-5:5", help="lo:hi")
    p = sub.add_parser("report", parents=[common])
    p.add_argument("fan", help="fan JSON path or @catalog-name")
    p.add_argument("--box", default="-3:3", help="lo:hi[,lo:hi...]")
    p.add_argument("--r", default="-5:5", help="lo:hi")
    return parser


def _config(args: argparse.Namespace) -> RunConfig:
    if args.cap <= 0:
        raise UsageError("--cap must be positive")
    if args.delta_cap <= 0:
        raise UsageError("--delta-cap must be positive")
    if args.threads <= 0:
        raise UsageError("--threads must be positive")
    coeffs = None
    if getattr(args, "coeffs", None) is not None:
        coeffs = _parse_coeffs(args.coeffs)
    box = None
    if getattr(args, "box", None) is not None:
        box = _parse_ranges(args.box)
    r_range = (-5, 5)
    if getattr(args, "r", None) is not None:
        ranges = _parse_ranges(args.r)
        if len(ranges) != 1:
            raise UsageError("--r takes a single lo:hi range")
        r_range = ranges[0]
    return RunConfig(
        command=args.command,
        fan_source=getattr(args, "fan", None),
        fmt=args.format,
        cap=args.cap,
        delta_cap=args.delta_cap,
        threads=args.threads,
        coeffs=coeffs,
        box=box,
        r_range=r_range,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config(args)
        _COMMANDS[cfg.command](cfg)
    except (FanFormatError, FanValidationError) as exc:
        sys.stderr.write(f"invalid fan: {exc}\n")
        return 1
    except (CapExceededError, PropernessError, DeltaCapError) as exc:
        sys.stderr.write(f"computation stopped: {exc}\n")
        return 2
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 3
    except FanError as exc:
        sys.stderr.write(f"invalid fan: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
