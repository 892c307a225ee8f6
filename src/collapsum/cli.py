"""Command-line interface: blur, kernel, verify, bench.

Exit codes: 0 success, 1 verification failure, 2 usage or parse errors.

Every command runs ``kernels`` and ``pipeline``, which this module
imports; a handler imports what only its command runs, so ``netpbm``
loads only for blur and ``bench`` only for bench.
"""

from __future__ import annotations

import argparse
import sys

from .kernels import (
    EdgeMode,
    Kernel,
    _check_window,
    _coefficient_kernel,
    check_interpolation,
)
from .matrix import ExactOverflowError, ScalarMode, _lazy
from .pipeline import (
    BlurRequest,
    Method,
    _blurred_raster,
    equivalence_report,
    seeded_image,
)

# Not called here.  Served by name only because the benchmark harness's
# tracer, perfbench/tracing.py, looks them up here.
__getattr__ = _lazy(globals(), {
    "netpbm": "merge_color plane_from_matrix read_netpbm split_color "
              "write_netpbm",
    "pipeline": "blur",
})

EDGE_CHOICES = [e.value for e in EdgeMode]
METHOD_CHOICES = [m.value for m in Method]


def integer(text: str) -> int:
    """An int literal, 0x/0o/0b prefixes allowed; argparse names this type
    by the function's name when it refuses a value."""
    return int(text, 0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapsum",
        description="Binomial Gaussian blur via pair-sum collapses, "
        "with exact verification and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Window options, shared by blur and kernel.
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--radius", "-r", type=int, default=None,
                        help="window radius (default 1)")
    window.add_argument("--filter", choices=["gauss", "box", "interp", "rect"],
                        default="gauss", dest="filter_name",
                        help="kernel family (default gauss)")
    window.add_argument("--s", type=int, default=None,
                        help="interp only: collapse count, 0 (box) .. 2r (gauss)")
    window.add_argument("--a", type=int, default=None, help="rect only: window height")
    window.add_argument("--b", type=int, default=None, help="rect only: window width")

    p_blur = sub.add_parser("blur", parents=[window], help="blur a netpbm image")
    p_blur.add_argument("input", help="input .pgm/.ppm file (P2/P3/P5/P6)")
    p_blur.add_argument("output", help="output file, same format as the input")
    p_blur.add_argument("--method", choices=METHOD_CHOICES, default="collapse",
                        help="execution strategy (default collapse)")
    p_blur.add_argument("--edge", choices=EDGE_CHOICES, default="replicate",
                        help="edge handling; mirror reflects without "
                        "repeating the edge row (default replicate)")

    sub.add_parser("kernel", parents=[window], help="print a kernel table")

    p_verify = sub.add_parser(
        "verify", help="check that all three strategies agree on a seeded image"
    )
    p_verify.add_argument("--radius", "-r", type=int, default=2)
    p_verify.add_argument("--size", type=int, default=16)
    p_verify.add_argument("--edge", choices=EDGE_CHOICES, default="replicate")
    p_verify.add_argument("--mode", choices=["exact", "float"], default="exact")
    p_verify.add_argument("--seed", type=integer, default=0x5EED)

    p_bench = sub.add_parser("bench", help="time the three strategies")
    p_bench.add_argument("--sizes", default="64,128,256",
                         help="comma-separated image sizes")
    p_bench.add_argument("--radii", default="1,2,4,8",
                         help="comma-separated radii")
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--csv", default=None,
                         help="write the CSV here instead of stdout")
    return parser


def _int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def _request(args, **fields) -> BlurRequest:
    # The request of the window the options name, with ``fields``; its
    # filter's options must be set, no other window option given, and an
    # interp step in range.
    name = args.filter_name
    takes = {"rect": ("a", "b"), "interp": ("radius", "s")}.get(name, ("radius",))
    for option in ("radius", "s", "a", "b"):
        if getattr(args, option) is not None and option not in takes:
            raise ValueError(f"--filter {name} does not take --{option}")
    if name == "rect":
        if args.a is None or args.b is None:
            raise ValueError("--filter rect requires --a and --b")
        return BlurRequest(rect=(args.a, args.b), **fields)
    radius = 1 if args.radius is None else args.radius
    if name == "interp":
        if args.s is None:
            raise ValueError("--filter interp requires --s")
        check_interpolation(radius, args.s)
    collapses = {"box": (0, 0), "interp": (args.s, args.s)}.get(name)
    return BlurRequest(radius=radius, collapses=collapses, **fields)


def _cmd_blur(args) -> int:
    # A bad window, one whose exact weights leave int128 included, is
    # refused before the input is opened and before any weight is built.
    req = _request(args, method=Method(args.method), edge=EdgeMode(args.edge))
    _check_window(*req.rect, *req.collapses, ScalarMode.EXACT)
    from .netpbm import read_raster, write_raster

    with open(args.input, "rb") as fh:
        raw = fh.read()
    image = read_raster(raw)
    encoding = "ascii" if raw[:2] in (b"P2", b"P3") else "binary"
    # read_raster has checked the raster, so the unchecked core blurs it.
    out = write_raster(_blurred_raster(image, req), encoding)
    with open(args.output, "wb") as fh:
        fh.write(out)
    return 0


def format_kernel(kernel: Kernel) -> str:
    """Fixed text form: a divisor line, then right-aligned weight rows."""
    rows = kernel.weights.to_rows()
    width = max(len(str(v)) for row in rows for v in row)
    lines = [f"divisor {kernel.divisor}"]
    for row in rows:
        lines.append(" ".join(str(v).rjust(width) for v in row))
    return "\n".join(lines) + "\n"


def _cmd_kernel(args) -> int:
    req = _request(args)
    sys.stdout.write(format_kernel(_coefficient_kernel(*req.rect, *req.collapses)))
    return 0


def _cmd_verify(args) -> int:
    image = seeded_image(args.size, args.size, args.seed)
    if args.mode == "float":
        image = image.to_float()
    report = equivalence_report(image, args.radius, EdgeMode(args.edge))
    if report.mode is ScalarMode.EXACT and report.max_deviation == 0.0:
        print("deviation 0 (exact)")
    else:
        print(f"deviation {report.max_deviation:.2e} ({report.mode.value})")
    if report.passed:
        return 0
    print(
        f"FAIL: max deviation {report.max_deviation:.2e} exceeds "
        f"tolerance {report.tolerance:.2e}",
        file=sys.stderr,
    )
    return 1


def _cmd_bench(args) -> int:
    from .bench import benchmark

    report = benchmark(_int_list(args.sizes), _int_list(args.radii), args.reps)
    print(f"# {report.timing_contract}", file=sys.stderr)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write(report.to_csv())
    else:
        sys.stdout.write(report.to_csv())
    return 0


_HANDLERS = {
    "blur": _cmd_blur,
    "kernel": _cmd_kernel,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    # NetpbmError and DimensionError are ValueErrors.
    except (ExactOverflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:  # console-script entry point
    raise SystemExit(main())


if __name__ == "__main__":
    run()
