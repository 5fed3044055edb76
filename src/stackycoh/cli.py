"""Command-line front end.

Fans come from JSON files or from the bundled catalog via @name. Results
are printed as deterministic JSON (sorted keys, compact separators, one
trailing newline) or as short text.

Exit codes: 0 success, 1 invalid fan input, 2 computation gave up
(enumeration cap or an unbounded contribution), 3 usage error.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from .catalog import catalog_fan, catalog_names
from .cohomline import (
    CapExceededError,
    Limits,
    PropernessError,
    cohomology,
    forbidden_cone,
    h_trivial_flags,
    scan_h_trivial,
)
from .fan import (
    FanError,
    StackyFan,
    canonical_json,
    fan_fingerprint,
    load_fan,
)
from .homology import DeltaCapError, delta_family
from .picard import class_of, class_to_json, normalize_box, pic_structure
from .plsearch import criterion_report, family_classes, find_degenerate_psi
from .record import Record


class UsageError(Exception):
    pass


class RunConfig(Record):
    command: str
    fan_source: Optional[str]
    fmt: str
    limits: Limits
    threads: int
    coeffs: Optional[tuple[int, ...]]
    box: Optional[tuple[tuple[int, int], ...]]
    r_range: tuple[int, int]


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
    try:
        with open(src, "rb") as file:
            text = file.read()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, ValueError):
        raise UsageError(f"fan file {src!r} not found") from None
    except OSError as exc:
        raise UsageError(f"cannot read fan file {src!r}: {exc.strerror or exc}") from None
    return load_fan(text)


def _emit(cfg: RunConfig, payload: dict, text_lines: Sequence[str]) -> None:
    if cfg.fmt == "json":
        sys.stdout.write(canonical_json(payload) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _require_coeffs(cfg: RunConfig, fan: StackyFan) -> tuple[int, ...]:
    if len(cfg.coeffs) != fan.nrays:
        raise UsageError(
            f"expected {fan.nrays} coefficients, got {len(cfg.coeffs)}"
        )
    return cfg.coeffs


def _box(cfg: RunConfig, fan: StackyFan) -> tuple[tuple[int, int], ...]:
    try:
        return normalize_box(fan, cfg.box)
    except ValueError as exc:
        raise UsageError(str(exc))


# Each command maps (cfg, fan) to its JSON payload and its text lines; main
# loads the fan and adds its fingerprint to the payload as "fan".


def _cmd_catalog(cfg: RunConfig, _: None) -> tuple[dict, list[str]]:
    rows, lines = [], []
    for name in catalog_names():
        fan = catalog_fan(name)
        fp = fan_fingerprint(fan)
        rows.append({"name": name, "rank": fan.rank, "rays": fan.nrays, "fingerprint": fp})
        lines.append(f"{name}: rank {fan.rank}, {fan.nrays} rays, {fp}")
    return {"fans": rows}, lines


def _cmd_validate(cfg: RunConfig, fan: StackyFan) -> tuple[dict, list[str]]:
    payload = {"valid": True, "rank": fan.rank, "rays": fan.nrays, "max_cones": len(fan.max_cones)}
    return payload, [
        f"valid: rank {fan.rank}, {fan.nrays} rays, "
        f"{len(fan.max_cones)} maximal cones, {fan_fingerprint(fan)}"
    ]


def _cmd_pic(cfg: RunConfig, fan: StackyFan) -> tuple[dict, list[str]]:
    st = pic_structure(fan)
    payload = {"free_rank": st.free_rank, "torsion": list(st.torsion)}
    tors = " x ".join(f"Z/{d}" for d in st.torsion) or "none"
    return payload, [f"free rank {st.free_rank}; torsion {tors}"]


def _cmd_delta(cfg: RunConfig, fan: StackyFan) -> tuple[dict, list[str]]:
    fam = delta_family(fan, cfg.limits.delta_cap)
    members = [{"index_set": sorted(I), "betti": list(b)} for I, b in fam]
    lines = [f"{{{','.join(str(i) for i in sorted(I))}}}: betti {b}" for I, b in fam]
    return {"members": members}, lines


def _cmd_cohomology(cfg: RunConfig, fan: StackyFan) -> tuple[dict, list[str]]:
    a = _require_coeffs(cfg, fan)
    h = cohomology(fan, a, cfg.limits)
    payload = {"coeffs": list(a), "h": list(h), "class": class_to_json(class_of(fan, a))}
    return payload, ["h = (" + ", ".join(str(x) for x in h) + ")"]


def _cmd_h_trivial(cfg: RunConfig, fan: StackyFan) -> tuple[dict, list[str]]:
    a = _require_coeffs(cfg, fan)
    fc = forbidden_cone(fan, a, cfg.limits)
    trivial = fc is None
    payload = {
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
    return payload, lines


def _cmd_scan(cfg: RunConfig, fan: StackyFan) -> tuple[dict, list[str]]:
    box = _box(cfg, fan)
    found = scan_h_trivial(fan, box, cfg.limits, cfg.threads)
    payload = {
        "box": [list(b) for b in box],
        "count": len(found),
        "classes": [class_to_json(c) for c in found],
    }
    lines = [f"{len(found)} H-trivial classes"] + [
        f"free {c.free} torsion {c.torsion} raw {c.raw}" for c in found
    ]
    return payload, lines


def _psi_json(found) -> Optional[dict]:
    if found is None:
        return None
    s, psi = found
    return {"ray": s, "psi": [int(v) for v in psi.values]}


def _psi_text(psi) -> str:
    return ", ".join(str(int(v)) for v in psi.values)


def _cmd_find_psi(cfg: RunConfig, fan: StackyFan) -> tuple[dict, list[str]]:
    found = find_degenerate_psi(fan)
    payload = {"found": found is not None, "degenerate_psi": _psi_json(found)}
    if found is None:
        return payload, ["none"]
    s, psi = found
    return payload, [f"ray {s}, psi ({_psi_text(psi)})"]


def _cmd_family(cfg: RunConfig, fan: StackyFan) -> tuple[dict, list[str]]:
    found = find_degenerate_psi(fan)
    if found is None:
        return {"found": False, "classes": []}, ["none"]
    s, psi = found
    lo, hi = cfg.r_range
    classes = family_classes(fan, s, psi, cfg.r_range)
    flags = h_trivial_flags(fan, [c.point for c in classes], cfg.limits)
    rows, lines = [], [f"ray {s}, psi ({_psi_text(psi)})"]
    for r, cls, trivial in zip(range(lo, hi + 1), classes, flags):
        rows.append({"r": r, "class": class_to_json(cls), "h_trivial": trivial})
        lines.append(f"r={r}: free {cls.free} torsion {cls.torsion} {'' if trivial else 'NOT '}H-trivial")
    return {"found": True, **_psi_json(found), "classes": rows}, lines


def _cmd_report(cfg: RunConfig, fan: StackyFan) -> tuple[dict, list[str]]:
    box = _box(cfg, fan)
    rep = criterion_report(fan, box, cfg.r_range, cfg.limits)
    psi, witness, checks = rep.degenerate_psi, rep.statement3_witness, rep.sampled_family_checks
    payload = {
        "collinear_pair_count": rep.collinear_pair_count,
        "degenerate_psi": _psi_json(psi),
        "statement3_witness": None if witness is None else class_to_json(witness),
        "sampled_family_checks": [[r, ok] for r, ok in checks],
        "verdict": rep.verdict,
    }
    lines = [
        f"collinear pairs: {rep.collinear_pair_count}",
        "degenerate psi: " + ("none" if psi is None else f"ray {psi[0]}, values ({_psi_text(psi[1])})"),
        "witness outside all interiors: "
        + ("none in box" if witness is None else f"free {witness.free} torsion {witness.torsion}"),
        f"family checks: {sum(ok for _, ok in checks)}/{len(checks)} H-trivial",
        f"verdict: {rep.verdict}",
    ]
    return payload, lines


# limit flags left off the command line stay absent, so their defaults live in
# Limits; argparse, imported only to build the full parser, spells this SUPPRESS
_ABSENT = object()
_LIMIT = {"type": int, "default": _ABSENT}
_FORMAT = {"choices": ("json", "text"), "default": "json"}
_CAP = {**_LIMIT, "help": f"lattice point enumeration budget per sign system (default {Limits().cap})"}
_DELTA_CAP = {**_LIMIT, "help": "most rays for which the index family is enumerated "
              f"(default {Limits().delta_cap})"}
_THREADS = {**_LIMIT, "help": "parallel scan workers, at most one per class and per usable core (default 1)"}
_COEFFS = {"required": True, "help": "a1,a2,... (write --coeffs=-1,0,0 for a leading minus)"}
_BOX = {"required": True, "help": "lo:hi[,lo:hi...] (write --box=-3:3 for a leading minus)"}
_R = {"default": "-5:5", "help": "lo:hi"}

# per subcommand: what runs it, whether it takes the fan positional, and its
# flags as argparse keyword arguments, in help order. family and report take
# no --cap: their only lattice point searches are the checks of family
# classes, whose weak systems are rationally infeasible
# (tests/test_plsearch.py), so those searches never spend the cap.
_GRAMMAR = {
    "catalog": (_cmd_catalog, False, {"--format": _FORMAT}),
    "validate": (_cmd_validate, True, {"--format": _FORMAT}),
    "pic": (_cmd_pic, True, {"--format": _FORMAT}),
    "delta": (_cmd_delta, True, {"--format": _FORMAT, "--delta-cap": _DELTA_CAP}),
    "cohomology": (_cmd_cohomology, True,
                   {"--format": _FORMAT, "--cap": _CAP, "--delta-cap": _DELTA_CAP, "--coeffs": _COEFFS}),
    "h-trivial": (_cmd_h_trivial, True,
                  {"--format": _FORMAT, "--cap": _CAP, "--delta-cap": _DELTA_CAP, "--coeffs": _COEFFS}),
    "scan": (_cmd_scan, True, {"--format": _FORMAT, "--cap": _CAP, "--delta-cap": _DELTA_CAP,
                               "--threads": _THREADS, "--box": _BOX}),
    "find-psi": (_cmd_find_psi, True, {"--format": _FORMAT}),
    "family": (_cmd_family, True, {"--format": _FORMAT, "--delta-cap": _DELTA_CAP, "--r": _R}),
    "report": (_cmd_report, True, {"--format": _FORMAT, "--delta-cap": _DELTA_CAP,
                                   "--box": {"default": "-3:3", "help": "lo:hi[,lo:hi...]"}, "--r": _R}),
}

# the subcommands that read each limit flag, named when another one gets it
_LIMIT_FLAGS = {
    flag: tuple(name for name, (_, _, flags) in _GRAMMAR.items() if flag in flags)
    for flag in ("--cap", "--delta-cap", "--threads")
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _build_parser():
    import argparse  # only help, usage errors and unusual spellings get here

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            self.exit(3, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="stackycoh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, takes_fan, flags) in _GRAMMAR.items():
        p = sub.add_parser(name)
        if takes_fan:
            p.add_argument("fan", help="fan JSON path or @catalog-name")
        for flag, spec in flags.items():
            if spec.get("default") is _ABSENT:
                spec = {**spec, "default": argparse.SUPPRESS}
            p.add_argument(flag, **spec)
    return parser


def _parse_canonical(argv: Sequence[str]) -> Optional[dict]:
    """vars() of what argparse parses argv to, for plain spellings; else None.

    Plain: an exact subcommand, then exact flags as --flag=value or --flag
    value (value not starting with -), and the fan not starting with -.
    Help, abbreviations, -- and every usage error are left to argparse.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    _, takes_fan, flags = _GRAMMAR[argv[0]]
    given, fans, rest = {"command": argv[0]}, [], iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            fans.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        value = value if eq else next(rest, "-")  # a missing value is declined
        spec = flags.get(flag)
        if spec is None or (not eq and value.startswith("-")):
            return None
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            return None
        if value not in spec.get("choices", (value,)):
            return None
        given[_dest(flag)] = value  # every repeat is checked; the last one wins
    if len(fans) != takes_fan:
        return None
    if fans:
        given["fan"] = fans[0]
    for flag, spec in flags.items():
        if _dest(flag) not in given:
            if spec.get("required"):
                return None
            if spec["default"] is not _ABSENT:
                given[_dest(flag)] = spec["default"]
    return given


def _parse(parser, argv: Optional[Sequence[str]]):
    args, extra = parser.parse_known_args(argv)
    for arg in extra:
        flag = arg.split("=")[0]
        if flag in _LIMIT_FLAGS:
            raise UsageError(
                f"{args.command} does not take {flag}; "
                f"it is read by {', '.join(_LIMIT_FLAGS[flag])}"
            )
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def _config(given: dict) -> RunConfig:
    try:
        limits = Limits(**{k: given[k] for k in ("cap", "delta_cap") if k in given})
    except ValueError as exc:
        raise UsageError(f"--{exc}".replace("_", "-"))
    threads = given.get("threads", 1)
    if threads <= 0:
        raise UsageError("--threads must be positive")
    coeffs = _parse_coeffs(given["coeffs"]) if "coeffs" in given else None
    box = _parse_ranges(given["box"]) if "box" in given else None
    r_range = _parse_ranges(given.get("r", "-5:5"))
    if len(r_range) != 1:
        raise UsageError("--r takes a single lo:hi range")
    return RunConfig(
        command=given["command"],
        fan_source=given.get("fan"),
        fmt=given["format"],
        limits=limits,
        threads=threads,
        coeffs=coeffs,
        box=box,
        r_range=r_range[0],
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # argparse is built only for help, usage errors and unusual spellings
        given = _parse_canonical(argv)
        if given is None:
            given = vars(_parse(_build_parser(), argv))
        cfg = _config(given)
        run, takes_fan, _ = _GRAMMAR[cfg.command]
        fan = _load(cfg) if takes_fan else None
        payload, lines = run(cfg, fan)
        if takes_fan:
            payload["fan"] = fan_fingerprint(fan)
        _emit(cfg, payload, lines)
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
