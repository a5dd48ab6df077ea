"""Digest of every CLI output of the benchmark's job cycles, for byte-identity checks.

Usage, from the repository root::

    python3 tools/cli_digest.py 6011 > change.json
    python3 tools/cli_digest.py 6011 --root ../parent > parent.json
    diff parent.json change.json

Every job of ``perfbench/workloads.build_jobs(w, seed)`` for the ``scan``,
``files`` and ``duality`` workloads goes through ``almostconv.cli.main`` in
this process, followed by fixed probes: default and explicit abscissas
on both groups, abscissa lists that are out of order or out of range,
``tauber`` on a sample file one Laplace term past ``BLOCK``, chains on
short data, on data with three and four doubling windows, on
zero-outside and ``-0.0``-led data, on R at ``2*BLOCK + 3`` samples, on
a convergent profile at the defaults and on ones declared
``bound=1e308``, one-sided window means on ``-0.0``-led samples whose
largest real mean is a zero,
``spectrum`` and ``tauber`` on sample files with indented and trailing
metadata lines and ``-0.0`` samples, block sequences on grids that
straddle 0, on the real line and with many short blocks, block sequences
past 2**53, with no symbols or a NaN growth, a Dirichlet line at its
declared abscissa (exit 2), ``generate`` at ``BLOCK + 1`` rows, of a
character whose whole-block turn is not 0, of a character of frequency
1/2 on 16-digit negative indices from ``-2**53``, of a 12-term Dirichlet line
at ``3*BLOCK + 7`` samples (every sample of a turned render's matrix
product) and of custom samples with
every float the ``repr`` kernel leaves to ``float.__repr__``, and every
analysis command on sample files with an unknown kind, grid positions
that are not finite floats, or rows off their grid.  A probe whose argv
names ``{out}`` writes there; every other one gets ``--out-dir {out}``.  For
each job the digest records the exit code, stdout, stderr and the sha256
of every file written.  The package and the job lists are imported from
``--root`` (default: this checkout), so one copy of this script digests
any checkout.  Temporary paths in messages read ``{tmp}``.  The script
reads the benchmark's files and writes none of them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("scan", "files", "duality")

_TRIG = {"kind": "trig_poly", "terms": [
    {"coefficient": {"re": 0.5, "im": 0.25}, "frequency": 0.0},
    {"coefficient": {"re": 0.3, "im": 0.0}, "frequency": 0.125}]}
_CONVERGENT = {"kind": "convergent", "limit": 2.0}
_BLOCKS = {"kind": "block_sequence"}
# many short blocks, and blocks of three symbols on grids that start below 0
_BLOCKS_THREE = {"kind": "block_sequence", "growth": 1.05, "symbols": [
    {"re": 1.0, "im": 2.0}, -0.5, {"re": -0.0, "im": 3.0}]}
_BLOCKS_SLOW = {"kind": "block_sequence", "growth": 1.01}
_BLOCKS_NO_SYMBOLS = {"kind": "block_sequence", "symbols": []}
_BLOCKS_NAN_GROWTH = {"kind": "block_sequence", "growth": "nan"}
# exact phases, but f*BLOCK is not whole: block-turned, not tiled
_CHAR_EXACT = {"kind": "character", "frequency": 2 ** -16}
# samples +-1 on 16-digit negative indices: integer cells, deduplicated floats
_CHAR_HALF = {"kind": "character", "frequency": 0.5}
_DIRICHLET = {"kind": "dirichlet_line", "coeffs": [1.0, 0.5], "sigma": 2.0}
# twelve terms, so twelve rows of tables in the turned render's product
_DIRICHLET_12 = {"kind": "dirichlet_line", "sigma": 1.5, "coeffs": [
    {"re": 1.0 / n, "im": (-1) ** n * 0.5 / (n + 1)} for n in range(1, 13)]}
# sigma at the declared abscissa (1.0 by default): a violated hypothesis
_DIRICHLET_DIVERGENT = {"kind": "dirichlet_line", "coeffs": [1.0, 0.5], "sigma": 1.0}
# more distinct floats than serialize.KERNEL_MIN, among them every kind
# the repr kernel leaves to float.__repr__ (subnormal, zero, a power of
# two, an interval-end tie, out of its range); |re + i*im| stays finite
_EXTREMES = [5e-324, 2.0 ** -1022, 1e-300, 0.0, -0.0, 0.5, 1024.0, 7.4e22, 1e300,
             1.7976931348623157e308]
_SPREAD = [(-1) ** j * (j + 0.5) * 10.0 ** (j % 61 - 30) for j in range(1200)]
_CUSTOM_EXTREMES = {"kind": "custom", "values": [
    {"re": re, "im": im} for re, im in zip(
        _EXTREMES + [-v for v in _EXTREMES] + _SPREAD,
        [1 / (j + 3) for j in range(20)] + _EXTREMES + _SPREAD[::-1])]}
_ZERO_OUTSIDE = ("# signal kind=discrete n_min=-3 bound=2.0 extension=zero_outside "
                 "source=custom\nindex,re,im\n"
                 + "".join(f"{j - 3},{(j % 5) / 2.5!r},0.0\n" for j in range(300)))
_NEG_ZERO = ("# signal kind=continuous x0=-0.0 h=0.25 bound=3.0 "
             "extension=valid_only source=custom\nx,re,im\n"
             + "".join(f"{0.25 * j!r},{-0.0 if j < 3 else (j % 7) / 3.5!r},"
                       f"{-0.0 if j < 2 else 0.5!r}\n" for j in range(600)))
# ones under a bound whose double overflows: the chain once failed on the
# bounds of its translation differences
_BIG_BOUND = ("# signal kind=discrete n_min=0 bound=1e308\nindex,re,im\n"
              + "".join(f"{j},1.0,0.0\n" for j in range(4000)))
# the negated 0, 1, 2, 1, 3: the first one-sided window's sum is -0.0 - 0.0,
# so the largest real mean at width 1 is -0.0
_NEG_ZERO_Z = ("# signal kind=discrete n_min=0 bound=3.0 extension=valid_only "
               "source=custom\nindex,re,im\n"
               + "".join(f"{j},{-v!r},0.0\n"
                         for j, v in enumerate([0.0, 1.0, 2.0, 1.0, 3.0])))

# metadata indented by str.isspace characters and after the last row
_EDGES_Z = ("  \t# signal kind=discrete n_min=-5\n\x1c # bound=2.5 extension=zero_outside\n"
            "index,re,im\n"
            + "".join(f"{j - 5},{-0.0 if j % 4 == 0 else (j % 5) / 2!r},"
                      f"{-0.0 if j % 3 else 0.5}\n" for j in range(2000))
            + "# source=trailing\n")
_EDGES_R = ("\u2028#signal kind=continuous x0=-0.0\n \x0b# h=0.25 bound=2.0\nx,re,im\n"
            + "".join(f"{0.25 * j!r},{-0.0 if j % 2 else 1.5},-0.0\n"
                      for j in range(2400))
            + "# source=trailing\n")


# almostconv.signals.BLOCK: the Laplace sweep and the chain's window-mean
# sweep work BLOCK samples at a time
_BLOCK = 16384
# one Laplace term past a block
_BLOCK_EDGE_R = ("# signal kind=continuous x0=0.0 h=0.25 bound=3.0 "
                 "extension=valid_only source=custom\nx,re,im\n"
                 + "".join(f"{0.25 * j!r},{1.5 + (j % 7) / 7!r},{(j % 3) / 4 - 0.25!r}\n"
                           for j in range(_BLOCK + 1)))


def _hostile(meta: str, grid: str = "x") -> str:
    return (f"# signal {meta} bound=1.0\n{grid},re,im\n"
            + "".join(f"{0.5 * j!r},{(j % 3) / 2},0.0\n" for j in range(1200)))


_HOSTILE = {
    "kind-bogus": _hostile("kind=bogus x0=0 h=0.5"),
    "x0-inf": _hostile("kind=continuous x0=inf"),
    "grid-end-overflow": _hostile("kind=continuous x0=1e308 h=1e306"),
    "n-min-401-digits": _hostile(f"kind=discrete n_min=1{'0' * 400}", "index"),
    # rows off the grid that the first two positions start
    "step-change": "x,re,im\n" + "".join(
        f"{0.1 * j if j < 1000 else 99.9 + (j - 999)!r},{(j % 3) / 2},0.0\n"
        for j in range(1400)),
    "swapped-rows": "# signal kind=discrete n_min=0 bound=1.0\nindex,re,im\n" + "".join(
        f"{j},{(j % 3) / 2},0.0\n" for j in [*range(500), 501, 500, *range(502, 1200)]),
}
_HOSTILE_ARGV = {
    "analyze": ["analyze", "--input", "{in}", "--k-min", "2", "--k-max", "64"],
    "tauber": ["tauber", "--input", "{in}"],
    "spectrum": ["spectrum", "--input", "{in}"],
    "chain": ["chain", "--input", "{in}"],
}

# (name, input file name, input text, argv with {in} and maybe {out}); each
# writes to its own output directory
PROBES = [
    ("tauber-trig-z", "trig.json", _TRIG,
     ["tauber", "--input", "{in}", "--n-max", "2047"]),
    ("tauber-trig-z-xs", "trig.json", _TRIG,
     ["tauber", "--input", "{in}", "--n-max", "2047", "--xs", "0.5,0.75,0.9"]),
    ("tauber-trig-z-xs-order", "trig.json", _TRIG,
     ["tauber", "--input", "{in}", "--xs", "0.1,0.2,0.3"]),
    ("tauber-trig-z-xs-back", "trig.json", _TRIG,
     ["tauber", "--input", "{in}", "--xs", "0.9,0.5"]),
    ("tauber-trig-z-xs-one", "trig.json", _TRIG,
     ["tauber", "--input", "{in}", "--xs", "0.5,1.0"]),
    ("tauber-trig-z-short", "trig.json", _TRIG,
     ["tauber", "--input", "{in}", "--n-max", "20"]),
    ("tauber-convergent-r-default", "conv.json", _CONVERGENT,
     ["tauber", "--input", "{in}"]),
    ("tauber-convergent-r", "conv.json", _CONVERGENT,
     ["tauber", "--input", "{in}", "--h", "0.25", "--count", "32769"]),
    ("tauber-convergent-r-xs", "conv.json", _CONVERGENT,
     ["tauber", "--input", "{in}", "--h", "0.25", "--count", "32769",
      "--xs", "0.25,0.125,0.0625"]),
    ("tauber-convergent-r-xs-order", "conv.json", _CONVERGENT,
     ["tauber", "--input", "{in}", "--xs", "0.1,0.2,0.3"]),
    ("tauber-convergent-r-xs-negative", "conv.json", _CONVERGENT,
     ["tauber", "--input", "{in}", "--xs", "0.5,-0.1"]),
    ("tauber-convergent-r-xs-zero", "conv.json", _CONVERGENT,
     ["tauber", "--input", "{in}", "--h", "0.25", "--count", "32769",
      "--xs", "0.5,0.0"]),
    ("tauber-dirichlet-r", "dirichlet.json", _DIRICHLET,
     ["tauber", "--input", "{in}", "--h", "0.1", "--count", "4096"]),
    ("tauber-csv-z", "zero.csv", _ZERO_OUTSIDE, ["tauber", "--input", "{in}"]),
    ("tauber-csv-r-block-edge", "block_edge.csv", _BLOCK_EDGE_R,
     ["tauber", "--input", "{in}"]),
    ("chain-trig-z", "trig.json", _TRIG,
     ["chain", "--input", "{in}", "--n-max", "4095"]),
    ("chain-trig-z-straddle", "trig.json", _TRIG,
     ["chain", "--input", "{in}", "--n-min", "-3000", "--n-max", "1000",
      "--tol", "1e-3"]),
    ("chain-trig-z-short", "trig.json", _TRIG,
     ["chain", "--input", "{in}", "--n-max", "40"]),
    # the chain sweeps the three largest of its doubling windows: here
    # there are three, and four
    ("chain-trig-z-three-windows", "trig.json", _TRIG,
     ["chain", "--input", "{in}", "--n-max", "255"]),
    ("chain-trig-z-four-windows", "trig.json", _TRIG,
     ["chain", "--input", "{in}", "--n-max", "511"]),
    ("chain-blocks-z", "blocks.json", _BLOCKS,
     ["chain", "--input", "{in}", "--n-max", "65535"]),
    ("chain-blocks-z-slow-growth", "blocks_slow.json", _BLOCKS_SLOW,
     ["chain", "--input", "{in}", "--n-max", "131071"]),
    ("chain-trig-r-two-blocks", "trig.json", _TRIG,
     ["chain", "--input", "{in}", "--h", "0.25", "--count", str(2 * _BLOCK + 3)]),
    # an inconclusive window-mean verdict: unconfirmed, not a violation
    ("chain-convergent-r-default", "conv.json", _CONVERGENT,
     ["chain", "--input", "{in}"]),
    ("chain-convergent-r", "conv.json", _CONVERGENT,
     ["chain", "--input", "{in}", "--h", "0.25", "--count", "2049"]),
    ("chain-convergent-r-below", "conv.json", _CONVERGENT,
     ["chain", "--input", "{in}", "--x0", "-100", "--h", "0.125",
      "--count", "3001", "--tol", "0.1"]),
    ("chain-dirichlet-r", "dirichlet.json", _DIRICHLET,
     ["chain", "--input", "{in}", "--h", "0.1", "--count", "8192"]),
    ("analyze-dirichlet-divergent", "dirichlet_divergent.json", _DIRICHLET_DIVERGENT,
     ["analyze", "--input", "{in}", "--h", "0.1"]),
    ("chain-csv-zero-outside", "zero.csv", _ZERO_OUTSIDE,
     ["chain", "--input", "{in}"]),
    ("chain-csv-negative-zero", "negzero.csv", _NEG_ZERO,
     ["chain", "--input", "{in}"]),
    ("chain-csv-bound-near-dbl-max", "big_bound.csv", _BIG_BOUND,
     ["chain", "--input", "{in}"]),
    ("cesaro-csv-zero-outside-two", "zero.csv", _ZERO_OUTSIDE,
     ["analyze", "--input", "{in}", "--k-min", "2", "--k-max", "64"]),
    ("cesaro-csv-zero-outside-one", "zero.csv", _ZERO_OUTSIDE,
     ["analyze", "--input", "{in}", "--k-min", "2", "--k-max", "64",
      "--sidedness", "one"]),
    ("cesaro-csv-negative-zero", "negzero.csv", _NEG_ZERO,
     ["analyze", "--input", "{in}", "--k-min", "0.25", "--k-max", "16",
      "--sidedness", "one"]),
    # a zero mean keeps the sign of its window sum: this entry's sweep.csv
    # reads sup_re -0.0 at k = 1, where a complex division of the sums
    # gives +0.0
    ("cesaro-csv-negative-zero-z", "negzero_z.csv", _NEG_ZERO_Z,
     ["analyze", "--input", "{in}", "--k-min", "1", "--k-max", "4",
      "--sidedness", "one"]),
    ("spectrum-trig-z", "trig.json", _TRIG,
     ["spectrum", "--input", "{in}", "--n-max", "1023"]),
    ("spectrum-csv-edges-z", "edges_z.csv", _EDGES_Z, ["spectrum", "--input", "{in}"]),
    ("spectrum-csv-edges-r", "edges_r.csv", _EDGES_R, ["spectrum", "--input", "{in}"]),
    ("tauber-csv-edges-z", "edges_z.csv", _EDGES_Z, ["tauber", "--input", "{in}"]),
    ("tauber-csv-edges-r", "edges_r.csv", _EDGES_R,
     ["tauber", "--input", "{in}", "--xs", "0.5,0.25"]),
    ("generate-blocks-z", "blocks.json", _BLOCKS,
     ["generate", "--spec", "{in}", "--out", "{out}/samples.csv", "--n-max", "16384"]),
    ("generate-blocks-z-straddle", "blocks_three.json", _BLOCKS_THREE,
     ["generate", "--spec", "{in}", "--out", "{out}/samples.csv",
      "--n-min", "-70000", "--n-max", "70000"]),
    ("generate-blocks-r", "blocks_three.json", _BLOCKS_THREE,
     ["generate", "--spec", "{in}", "--out", "{out}/samples.csv",
      "--x0", "-3.3", "--h", "0.3", "--count", "49159"]),
    # block ends past 2**53 are not all floats: refused
    ("generate-blocks-past-2p53", "blocks.json", _BLOCKS,
     ["generate", "--spec", "{in}", "--out", "{out}/samples.csv",
      "--h", "1e17", "--x0", "1e19", "--count", "5"]),
    ("generate-blocks-no-symbols", "blocks_none.json", _BLOCKS_NO_SYMBOLS,
     ["generate", "--spec", "{in}", "--out", "{out}/samples.csv"]),
    ("analyze-blocks-nan-growth", "blocks_nan.json", _BLOCKS_NAN_GROWTH,
     ["analyze", "--input", "{in}"]),
    ("generate-trig-z", "trig.json", _TRIG,
     ["generate", "--spec", "{in}", "--out", "{out}/samples.csv", "--n-max", "16384"]),
    ("generate-char-exact-nonperiodic", "char.json", _CHAR_EXACT,
     ["generate", "--spec", "{in}", "--out", "{out}/samples.csv", "--n-max", "65535"]),
    ("generate-char-half-near-minus-2p53", "char_half.json", _CHAR_HALF,
     ["generate", "--spec", "{in}", "--out", "{out}/samples.csv",
      "--n-min", str(-2 ** 53), "--n-max", "-9007199254700000"]),
    ("generate-dirichlet-12-r", "dirichlet_12.json", _DIRICHLET_12,
     ["generate", "--spec", "{in}", "--out", "{out}/samples.csv", "--h", "0.1",
      "--count", str(3 * _BLOCK + 7)]),
    ("generate-custom-extremes", "extremes.json", _CUSTOM_EXTREMES,
     ["generate", "--spec", "{in}", "--out", "{out}/samples.csv",
      "--n-max", str(len(_CUSTOM_EXTREMES["values"]) - 1)]),
] + [(f"{command}-csv-{name}", f"{name}.csv", text, argv)
     for name, text in _HOSTILE.items() for command, argv in _HOSTILE_ARGV.items()]


def _outputs(out_dir: str) -> dict:
    digest = {}
    for base, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digest[os.path.relpath(path, out_dir)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return dict(sorted(digest.items()))


def _run(cli, argv, in_path: str, out_dir: str, tmp: str) -> dict:
    os.makedirs(out_dir)
    argv = [a.replace("{in}", in_path).replace("{out}", out_dir) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # recorded, so that a crash shows in the diff
            rc = f"{type(exc).__name__}: {exc}"
    return {"exit": rc, "stdout": out.getvalue().replace(tmp, "{tmp}"),
            "stderr": err.getvalue().replace(tmp, "{tmp}"),
            "files": _outputs(out_dir)}


def digest(seed: int, root: Path) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from almostconv import cli
    from workloads import build_jobs, write_inputs

    tmp = tempfile.mkdtemp(prefix="cli-digest-")
    result = {}
    try:
        for workload in WORKLOADS:
            jobs = build_jobs(workload, seed)
            inputs = os.path.join(tmp, workload)
            write_inputs(jobs, inputs)
            for job in jobs:
                result[f"{workload}/{job.key}"] = _run(
                    cli, job.argv, os.path.join(inputs, job.input_name or ""),
                    os.path.join(tmp, "out", workload, job.key), tmp)
        probes = os.path.join(tmp, "probes")
        os.makedirs(probes)
        for name, file_name, content, argv in PROBES:
            path = os.path.join(probes, file_name)
            with open(path, "w") as fh:
                fh.write(content if isinstance(content, str)
                         else json.dumps(content))
            if not any("{out}" in a for a in argv):
                argv = argv + ["--out-dir", "{out}"]
            result[f"probe/{name}"] = _run(
                cli, argv, path, os.path.join(tmp, "out", "probe", name), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("seed", type=int, help="seed of the benchmark job lists")
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                   help="checkout whose src/ and perfbench/ are used")
    args = p.parse_args(argv)
    json.dump(digest(args.seed, args.root.resolve()), sys.stdout, indent=1,
              sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
