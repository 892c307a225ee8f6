"""Command-line interface: blur, kernel, verify, bench.

Exit codes: 0 success, 1 verification failure, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys

from .kernels import (
    EdgeMode,
    FilterResult,
    Kernel,
    box_kernel,
    convolve,
    gaussian_kernel,
    gaussian_kernel_rect,
    interpolation_kernel,
)
from .matrix import DimensionError, ExactOverflowError, Matrix, ScalarMode
from .netpbm import (
    ColorImage,
    NetpbmError,
    merge_color,
    plane_from_matrix,
    read_netpbm,
    split_color,
    write_netpbm,
)
from .pipeline import (
    BlurRequest,
    Method,
    benchmark,
    blur,
    equivalence_report,
    seeded_image,
)

EDGE_CHOICES = [e.value for e in EdgeMode]
METHOD_CHOICES = [m.value for m in Method]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapsum",
        description="Binomial Gaussian blur via pair-sum collapses, "
        "with exact verification and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_blur = sub.add_parser("blur", help="blur a netpbm image")
    p_blur.add_argument("input", help="input .pgm/.ppm file (P2/P3/P5/P6)")
    p_blur.add_argument("output", help="output file, same format as the input")
    p_blur.add_argument("--radius", "-r", type=int, default=1,
                        help="window radius (default 1)")
    p_blur.add_argument("--method", choices=METHOD_CHOICES, default="collapse",
                        help="execution strategy for gauss/rect filters "
                        "(default collapse)")
    p_blur.add_argument("--edge", choices=EDGE_CHOICES, default="replicate",
                        help="edge handling; mirror reflects without "
                        "repeating the edge row (default replicate)")
    p_blur.add_argument("--filter", choices=["gauss", "box", "interp", "rect"],
                        default="gauss", dest="filter_name",
                        help="kernel family (default gauss); box and interp "
                        "always run direct convolution")
    p_blur.add_argument("--s", type=int, default=None,
                        help="interp only: collapse count, 0 (box) .. 2r (gauss)")
    p_blur.add_argument("--a", type=int, default=None, help="rect only: window height")
    p_blur.add_argument("--b", type=int, default=None, help="rect only: window width")

    p_kernel = sub.add_parser("kernel", help="print a kernel table")
    p_kernel.add_argument("--radius", "-r", type=int, default=1)
    p_kernel.add_argument("--filter", choices=["gauss", "box", "interp", "rect"],
                          default="gauss", dest="filter_name")
    p_kernel.add_argument("--s", type=int, default=None)
    p_kernel.add_argument("--a", type=int, default=None)
    p_kernel.add_argument("--b", type=int, default=None)

    p_verify = sub.add_parser(
        "verify", help="check that all three strategies agree on a seeded image"
    )
    p_verify.add_argument("--radius", "-r", type=int, default=2)
    p_verify.add_argument("--size", type=int, default=16)
    p_verify.add_argument("--edge", choices=EDGE_CHOICES, default="replicate")
    p_verify.add_argument("--mode", choices=["exact", "float"], default="exact")
    p_verify.add_argument("--seed", type=lambda s: int(s, 0), default=0x5EED)

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


def _pick_kernel(args) -> Kernel:
    name = args.filter_name
    if name == "gauss":
        return gaussian_kernel(args.radius)
    if name == "box":
        return box_kernel(args.radius)
    if name == "interp":
        if args.s is None:
            raise ValueError("--filter interp requires --s")
        return interpolation_kernel(args.radius, args.s)
    if args.a is None or args.b is None:
        raise ValueError("--filter rect requires --a and --b")
    return gaussian_kernel_rect(args.a, args.b)


def _blur_plane(samples: Matrix, args) -> FilterResult:
    edge = EdgeMode(args.edge)
    kernel = _pick_kernel(args)
    if args.filter_name not in ("gauss", "rect"):
        return convolve(kernel, samples, edge)
    return blur(samples, BlurRequest(rect=(kernel.height, kernel.width),
                                     method=Method(args.method), edge=edge))


def _cmd_blur(args) -> int:
    with open(args.input, "rb") as fh:
        raw = fh.read()
    img = read_netpbm(raw)
    encoding = "ascii" if raw[:2] in (b"P2", b"P3") else "binary"
    if isinstance(img, ColorImage):
        planes = [_blur_plane(p, args).rounded() for p in split_color(img)]
        out = merge_color(*planes, maxval=img.maxval)
    else:
        result = _blur_plane(img.samples, args).rounded()
        out = plane_from_matrix(result, img.maxval)
    with open(args.output, "wb") as fh:
        fh.write(write_netpbm(out, encoding))
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
    sys.stdout.write(format_kernel(_pick_kernel(args)))
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
    except (NetpbmError, DimensionError, ExactOverflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:  # console-script entry point
    raise SystemExit(main())


if __name__ == "__main__":
    run()
