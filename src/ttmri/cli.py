"""Command-line front end.

Subcommands: ``phantom``, ``mask``, ``forward``, ``recon``, ``tsvd``,
``metrics``, ``check``. Every file-producing run writes exactly one
manifest (``<out>.manifest.json``) recording the resolved parameters,
paths, seed, tool version, and wall time; outputs are deterministic given
the manifest in sequential mode (``--threads 0``).

Exit codes:

- 0: success.
- 2: usage or configuration error: a missing ``--out``; a negative
  ``--seed`` or ``--threads``; a size below 1; an ``--accel`` of 1 or less;
  a non-finite ``--accel``, ``--theta0`` or ``--sigma``; ``--matrix-path`` missing for ``--transform
  matrix`` or given with another transform; a recon config key that is
  unknown, missing, of the wrong type, not finite, outside the solver's
  range, or a ``matrix_path`` with a kind other than ``matrix`` (each named
  in the message); an identically zero ``--ref``.
- 3: data error: a missing, truncated, undecodable or non-finite input
  file; a config that is not JSON; a mask whose sample count differs from
  the k-space; a ``--ref`` of other dimensions; a ``--frames-out`` that
  exists and is not a directory; other I/O failures.
- 4: numeric failure: a schedule that diverges mid-solve, a non-unitary or
  non-finite transform matrix, a failed invariant check.

Every exit 2 or 3 above but an I/O failure happens before any output file
is written and, in ``recon``, before the first iteration.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

from . import __version__, admm, checks, fileio, mri, tsvd
from .errors import DataFormatError, NumericError, ParameterError, TtmriError, UnitarityError
from .errors import _check_real, _check_seed
from .transforms import KINDS, make_transform

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# Exit code of an error raised by a command: the first row whose types match.
_EXIT_CODES = (
    (ParameterError, EXIT_USAGE),
    ((UnitarityError, NumericError), EXIT_NUMERIC),
    ((TtmriError, OSError), EXIT_DATA),
)

HISTORY_COLUMNS = ("iter", "objective", "fidelity", "ttnn", "primal_residual", "elapsed_ms")


def _format_value(v: float) -> str:
    return f"{v:.17g}"


def _format_snr(v: float) -> str:
    if math.isinf(v):
        return "inf"
    return f"{v:.12g}"


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """``v`` is within the float range: not NaN, infinite, or an integer too large for a float."""
    return abs(v) <= sys.float_info.max


def _write_manifest(args, parameters, inputs, outputs, seed=None):
    """Write ``<out>.manifest.json``; ``seed`` defaults to ``--seed``."""
    manifest = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed if seed is None else seed,
        "threads": args.threads,
        "parameters": parameters,
        "inputs": inputs,
        "outputs": [str(p) for p in outputs],
        "wall_time_s": time.perf_counter() - args.start,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    fileio.atomic_write_text(f"{args.out}.manifest.json", text)


def _write_history_csv(path, history):
    lines = [",".join(HISTORY_COLUMNS)]
    lines += [",".join(map(_format_value, dataclasses.astuple(s))) for s in history]
    fileio.atomic_write_text(path, "\n".join(lines) + "\n")


def _require_file(path, role):
    p = Path(path)
    if not p.is_file():
        raise DataFormatError(f"{role} file not found: {path}")
    return p


def _check_frames_dir(path):
    """Reject a ``--frames-out`` that exists and is not a directory, before any output."""
    if path and Path(path).exists() and not Path(path).is_dir():
        raise DataFormatError(f"--frames-out is not a directory: {path}")


def _load_spec(mask_path) -> mri.SamplingSpec:
    mask = fileio.load_mask(_require_file(mask_path, "mask"))
    return mri.SamplingSpec(mask, descriptor={"pattern": "file", "path": str(mask_path)})


class ConfigError(ParameterError):
    """A reconstruction config violates the schema; names the key."""


def _cfg_get(cfg, key, kind, required=False, default=None, prefix=""):
    """``cfg[key]`` of JSON type ``kind`` (a float also finite); errors name ``prefix + key``."""
    name = prefix + key
    if key not in cfg:
        if required:
            raise ConfigError(f"config key '{name}' is required")
        return default
    value = cfg[key]
    if kind is float:
        if not _is_number(value):
            raise ConfigError(f"config key '{name}' must be a number")
        if not _is_finite(value):
            raise ConfigError(f"config key '{name}' must be finite")
        value = float(value)
    elif kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"config key '{name}' must be an integer")
    return value


# The keys a recon config, a schedule entry and a transform accept. Either
# mode accepts every top-level key, so one file can switch modes.
_CONFIG_KEYS = {"mode", "transform", "lambda", "mu", "eta", "max_iters", "rel_tol", "seed",
                "schedule"}
_SCHEDULE_KEYS = {"gamma", "eta", "tau", "a", "transform"}
_TRANSFORM_KEYS = {"kind", "matrix_path"}


def _check_keys(cfg, accepted, prefix=""):
    """Reject the first key of ``cfg``, in file order, that is not in ``accepted``."""
    for key in cfg:
        if key not in accepted:
            raise ConfigError(f"config key '{prefix}{key}' is not recognised")


def _build(where, make, **kwargs):
    """``make(**kwargs)``; a value the library rejects becomes a ConfigError naming ``where``."""
    try:
        return make(**kwargs)
    except ParameterError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _make_transform(kind, nt, matrix_path, role):
    """Transform ``kind`` of size ``nt``; kind 'matrix' loads ``matrix_path``.

    Callers check that a matrix kind comes with a path, each with its own
    message; ``role`` names the matrix file in the not-found error.
    """
    if kind != "matrix":
        return make_transform(kind, nt)
    matrix = fileio.load_transform_matrix(_require_file(matrix_path, role))
    return make_transform("matrix", nt, matrix)


def _transform_from_config(entry, nt, key):
    if isinstance(entry, dict):
        _check_keys(entry, _TRANSFORM_KEYS, f"{key}.")
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ConfigError(f"config key '{key}' must be an object with a 'kind'")
    kind = entry["kind"]
    if kind not in KINDS:
        raise ConfigError(f"config key '{key}.kind' must be one of {KINDS}")
    if kind == "matrix" and "matrix_path" not in entry:
        raise ConfigError(f"config key '{key}.matrix_path' is required for kind 'matrix'")
    if kind == "matrix" and not isinstance(entry["matrix_path"], str):
        raise ConfigError(f"config key '{key}.matrix_path' must be a string")
    if kind != "matrix" and "matrix_path" in entry:
        raise ConfigError(f"config key '{key}.matrix_path' is only for kind 'matrix', not {kind!r}")
    return _make_transform(kind, nt, entry.get("matrix_path"), "transform matrix")


def _parse_recon_config(path, nt):
    """Parse a recon config into ``(mode, seed, solver)``.

    ``solver(b, spec, threads=...)`` runs ``admm.solve`` or
    ``admm.solve_generalized`` with every other argument bound.
    """
    try:
        cfg = json.loads(Path(path).read_text())
    except ValueError as exc:  # undecodable, not JSON, or an integer beyond int's digit limit
        raise DataFormatError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(cfg, _CONFIG_KEYS)
    mode = cfg.get("mode", "classic")
    if mode not in ("classic", "generalized"):
        raise ConfigError("config key 'mode' must be 'classic' or 'generalized'")
    transform = _transform_from_config(
        _cfg_get(cfg, "transform", dict, required=True), nt, "transform"
    )
    lam = _cfg_get(cfg, "lambda", float, required=(mode == "classic"), default=0.0)
    rel_tol = _cfg_get(cfg, "rel_tol", float, default=1e-6)
    seed = _cfg_get(cfg, "seed", int, default=0)
    _build("config key 'seed'", _check_seed, value=seed)
    if mode == "classic":
        config = _build(
            "config", admm.AdmmConfig,
            lam=lam,
            mu=_cfg_get(cfg, "mu", float, required=True),
            eta=_cfg_get(cfg, "eta", float, default=1.0),
            max_iters=_cfg_get(cfg, "max_iters", int, default=300),
            rel_tol=rel_tol,
            transform=transform,
        )
        return mode, seed, functools.partial(admm.solve, config=config)
    # The solver's own rules, checked here so that both modes name the value alike.
    _build("config", _check_real, name="lambda", value=lam)
    _build("config", _check_real, name="rel_tol", value=rel_tol, finite=False)
    raw_schedule = cfg.get("schedule")
    if not isinstance(raw_schedule, list) or not raw_schedule:
        raise ConfigError("config key 'schedule' must be a nonempty list in generalized mode")
    schedule = []
    for idx, entry in enumerate(raw_schedule):
        key = f"schedule[{idx}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"config key '{key}' must be an object")
        _check_keys(entry, _SCHEDULE_KEYS, f"{key}.")
        # Whichever of tau and a the entry has; IterationParams requires exactly one.
        thresholds = {name: entry[name] for name in ("tau", "a") if name in entry}
        for name, raw in thresholds.items():
            is_list = isinstance(raw, list) and len(raw) == nt and all(map(_is_number, raw))
            if not (_is_number(raw) or is_list):
                raise ConfigError(
                    f"config key '{key}.{name}' must be a number or a list of {nt} numbers"
                )
            if not all(map(_is_finite, raw if is_list else [raw])):
                raise ConfigError(f"config key '{key}.{name}' must be finite")
        entry_transform = (
            _transform_from_config(entry["transform"], nt, f"{key}.transform")
            if "transform" in entry
            else None
        )
        schedule.append(_build(
            f"config key '{key}'", admm.IterationParams,
            gamma=_cfg_get(entry, "gamma", float, required=True, prefix=f"{key}."),
            eta=_cfg_get(entry, "eta", float, required=True, prefix=f"{key}."),
            transform=entry_transform,
            **thresholds,
        ))
    solver = functools.partial(
        admm.solve_generalized, schedule=schedule, init_transform=transform,
        rel_tol=rel_tol, report_lambda=lam,
    )
    return mode, seed, solver


def _cmd_phantom(args):
    _check_frames_dir(args.frames_out)
    transform = None
    if args.phantom_transform != "fft":
        transform = make_transform(args.phantom_transform, args.nt)
    x = mri.make_phantom(
        args.nx, args.ny, args.nt, args.kind, args.seed,
        rank=args.rank, transform=transform,
    )
    fileio.save_tensor(args.out, x)
    outputs = [args.out]
    if args.frames_out:
        outputs.extend(fileio.dump_frames_pgm(args.frames_out, x))
    params = {
        "kind": args.kind, "nx": args.nx, "ny": args.ny, "nt": args.nt,
        "rank": args.rank, "phantom_transform": args.phantom_transform,
    }
    _write_manifest(args, params, {}, outputs)
    return EXIT_OK


def _cmd_mask(args):
    if args.pattern == "radial":
        spec = mri.gen_pseudo_radial_mask(
            args.nx, args.ny, args.nt, args.lines, args.seed,
            freeze_angles=args.freeze_angles, theta0=args.theta0,
        )
    else:
        spec = mri.gen_vds_mask(args.nx, args.ny, args.nt, args.accel, args.seed)
    fileio.save_mask(args.out, spec)
    params = dict(spec.descriptor)
    params.update({"nx": args.nx, "ny": args.ny, "nt": args.nt, "m": spec.m})
    _write_manifest(args, params, {}, [args.out])
    return EXIT_OK


def _cmd_forward(args):
    image = fileio.load_tensor(_require_file(args.image, "image"))
    spec = _load_spec(args.mask)
    b = mri.forward(image, spec)
    b = mri.add_noise(b, args.sigma, args.seed)
    fileio.save_kspace(args.out, b, mask_path=args.mask)
    params = {"sigma": args.sigma, "m": b.m}
    inputs = {"image": str(args.image), "mask": str(args.mask)}
    _write_manifest(args, params, inputs, [args.out, f"{args.out}.mask"])
    return EXIT_OK


def _cmd_recon(args):
    spec = _load_spec(args.mask)
    values, _ = fileio.load_kspace(_require_file(args.kspace, "k-space"))
    b = mri.KSpaceVector._wrap(values, spec)
    inputs = {"kspace": str(args.kspace), "mask": str(args.mask)}
    if args.ref:  # checked before any iteration runs or any file is written
        ref = fileio.load_tensor(_require_file(args.ref, "reference"))
        mri._check_reference(spec.dims, ref)
        inputs["ref"] = str(args.ref)
    _check_frames_dir(args.frames_out)
    mode, seed, solver = _parse_recon_config(_require_file(args.config, "config"), spec.dims[2])
    report = solver(b, spec, threads=args.threads)
    fileio.save_tensor(args.out, report.reconstruction)
    history_path = f"{args.out}.history.csv"
    _write_history_csv(history_path, report.history)
    outputs = [args.out, history_path]
    if args.frames_out:
        outputs.extend(fileio.dump_frames_pgm(args.frames_out, report.reconstruction))
    if args.ref:
        print(f"SNR_dB: {_format_snr(mri.snr(report.reconstruction, ref))}")
    outside_svd, svd = tsvd._blas_thread_counts()
    params = {
        "mode": mode, "config": str(args.config), "iterations_run": report.iterations_run,
        "blas_threads": {"outside_svd": outside_svd, "svd": svd},
    }
    _write_manifest(args, params, inputs, outputs, seed=seed)
    return EXIT_OK


def _cmd_tsvd(args):
    if args.transform == "matrix" and not args.matrix_path:
        raise ParameterError("--matrix-path is required for --transform matrix")
    if args.transform != "matrix" and args.matrix_path is not None:
        raise ParameterError(
            f"--matrix-path is only for --transform matrix, not {args.transform!r}")
    x = fileio.load_tensor(_require_file(args.tensor, "tensor"))
    transform = _make_transform(args.transform, x.dims[2], args.matrix_path, "matrix")
    factors = tsvd.tt_svd(x, transform, threads=args.threads)
    outputs = [f"{args.out}_{name}.t2t" for name in ("U", "S", "V")]
    for path, factor in zip(outputs, (factors.U, factors.S, factors.V)):
        fileio.save_tensor(path, factor)
    svals = factors.singular_values
    outputs.append(f"{args.out}_sv.txt")
    sv_lines = [" ".join(_format_value(v) for v in row) for row in svals]
    fileio.atomic_write_text(outputs[-1], "\n".join(sv_lines) + "\n")
    rank = tsvd._multirank(svals)
    print(f"TTNN: {_format_value(float(svals.sum()))}")
    print("multirank: " + " ".join(str(r) for r in rank.ranks))
    print(f"sum_rank: {rank.total}")
    params = {"transform": args.transform, "matrix_path": args.matrix_path}
    _write_manifest(args, params, {"tensor": str(args.tensor)}, outputs)
    return EXIT_OK


def _print_report(args, text):
    """Print ``text`` and, with ``--out``, also write it there."""
    print(text)
    if args.out:
        fileio.atomic_write_text(args.out, text + "\n")


def _cmd_metrics(args):
    rec = fileio.load_tensor(_require_file(args.rec, "reconstruction"))
    ref = fileio.load_tensor(_require_file(args.ref, "reference"))
    _print_report(args, f"SNR_dB: {_format_snr(mri.snr(rec, ref))}")
    return EXIT_OK


def _cmd_check(args):
    results = checks.run_checks(level=args.level)
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    _print_report(args, "\n".join(lines))
    return EXIT_OK if passed == len(results) else EXIT_NUMERIC


def _thread_count(text):
    """argparse type of ``--threads``: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return value


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    common.add_argument(
        "--threads", type=_thread_count, default=0,
        help="slice-level worker threads; 0 = sequential reference mode",
    )
    common.add_argument("--out", help="primary output path (prefix for tsvd)")

    parser = argparse.ArgumentParser(
        prog="ttmri",
        description="Transformed tensor low-rank reconstruction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", parents=[common], help="generate a synthetic image series")
    p.add_argument("--kind", required=True, choices=mri.PHANTOM_KINDS)
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--nt", type=int, required=True)
    p.add_argument("--rank", type=int, default=2, help="tubal rank for low_tubal_rank")
    p.add_argument(
        "--phantom-transform", default="fft", choices=("identity", "fft", "dct"),
        help="transform defining the low_tubal_rank construction",
    )
    p.add_argument("--frames-out", help="directory for per-frame PGM dumps")
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("mask", parents=[common], help="generate a sampling mask")
    p.add_argument("--pattern", required=True, choices=("radial", "vds"))
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--nt", type=int, required=True)
    p.add_argument("--lines", type=int, default=16, help="spokes per frame (radial)")
    p.add_argument("--freeze-angles", action="store_true",
                   help="use the same spoke angles in every frame")
    p.add_argument("--theta0", type=float, default=None,
                   help="explicit base angle instead of a seeded draw (radial)")
    p.add_argument("--accel", type=float, default=8.0, help="acceleration factor (vds)")
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("forward", parents=[common], help="simulate undersampled k-space")
    p.add_argument("--image", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--sigma", type=float, default=0.0, help="complex noise std per component")
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("recon", parents=[common], help="reconstruct from k-space")
    p.add_argument("--kspace", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--config", required=True, help="JSON solver configuration")
    p.add_argument("--ref", help="reference tensor; prints the final SNR")
    p.add_argument("--frames-out", help="directory for per-frame PGM dumps")
    p.set_defaults(func=_cmd_recon)

    p = sub.add_parser("tsvd", parents=[common], help="factorise a tensor and report norms")
    p.add_argument("--tensor", required=True)
    p.add_argument("--transform", default="fft", choices=KINDS)
    p.add_argument("--matrix-path", help="T2T1 matrix for --transform matrix")
    p.set_defaults(func=_cmd_tsvd)

    p = sub.add_parser("metrics", parents=[common], help="SNR between two tensors")
    p.add_argument("--rec", required=True)
    p.add_argument("--ref", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("check", parents=[common], help="run the invariant suite")
    p.add_argument("--level", default="quick", choices=checks.LEVELS)
    p.set_defaults(func=_cmd_check)

    return parser


_NEEDS_OUT = {"phantom", "mask", "forward", "recon", "tsvd"}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in _NEEDS_OUT and not args.out:
        parser.error(f"--out is required for '{args.command}'")
    args.start = time.perf_counter()
    try:
        _check_seed(args.seed)
        return args.func(args)
    except (TtmriError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
