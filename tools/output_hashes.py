"""Hash every output of one fixed CLI recipe, run against a source tree.

Usage: python3 tools/output_hashes.py TREE OUT

Runs the ``texsyn`` CLI of ``TREE/src`` (``PYTHONPATH=TREE/src``) in the
new directory OUT, with relative paths so that nothing printed depends
on where OUT is:

- three 32x32 exemplars from ``TREE/tests/helpers.write_exemplars``
  (transfer contents: exemplar3, exemplar1);
- seed 7, default network sizes, ``train.K=3 train.iterations=12
  train.checkpoint_every=4 transfer.K=2 transfer.iterations=6``;
- ``train --log-every 3``, then ``train --transfer --resize 32
  --log-every 2`` (its log in ``transfer_log.csv``);
- ``synth --texture 2 --samples 3``, ``interpolate --from 1 --to 3
  --steps 4``, ``transfer --content exemplar2.png`` with ``--style 2``
  and with ``--mix 1:0.3,2:0.7``;
- ``synth --texture 1 --samples 20`` and ``interpolate --from 3 --to 2
  --steps 20``: at 32x32 both render more than one batch, so the bytes
  cover where the batches split;
- ``oracle --target exemplar1.png --steps 20`` (noise init), and with
  ``--init exemplar2.png --steps 5 --out o2.png --trace t2.csv``;
- ``transfer --content filtered.png --style 1`` and ``oracle --target
  filtered.png --steps 5``, where ``filtered.png`` is a 32x32 content
  image written by this tool's own encoder with row filters 1-4 (Sub, Up,
  Average, Paeth), so the bytes cover the decoder's filter paths; texsyn
  writes filter 0 only;
- ``defaults`` and ``gradcheck --seed 0``.

Prints ``<sha256>  <name>`` for every file under OUT and
``<sha256>  stdout: <command>`` for each command's output.  Two trees
that print the same lines wrote the same bytes.  Exits 1 if a command
fails.
"""

from __future__ import annotations

import hashlib
import os
import struct
import subprocess
import sys
import zlib

CONFIG = """\
paths.exemplars = exemplar1.png, exemplar2.png, exemplar3.png
paths.contents = exemplar3.png, exemplar1.png
train.K = 3
train.iterations = 12
train.checkpoint_every = 4
train.checkpoint_dir = checkpoints
transfer.K = 2
transfer.iterations = 6
"""

WRITE_EXEMPLARS = (
    "import pathlib; from helpers import write_exemplars; "
    "write_exemplars(pathlib.Path('.'), 3, size=32)"
)

COMMANDS = (
    ["train", "--log-every", "3"],
    ["train", "--transfer", "--resize", "32", "--log-every", "2", "--set", "paths.log=transfer_log.csv"],
    ["synth", "--texture", "2", "--samples", "3"],
    ["interpolate", "--from", "1", "--to", "3", "--steps", "4"],
    ["synth", "--texture", "1", "--samples", "20"],
    ["interpolate", "--from", "3", "--to", "2", "--steps", "20"],
    ["transfer", "--content", "exemplar2.png", "--style", "2"],
    ["transfer", "--content", "exemplar2.png", "--mix", "1:0.3,2:0.7"],
    ["oracle", "--target", "exemplar1.png", "--steps", "20"],
    ["oracle", "--target", "exemplar1.png", "--init", "exemplar2.png", "--steps", "5", "--out", "o2.png", "--trace", "t2.csv"],
    ["transfer", "--content", "filtered.png", "--style", "1"],
    ["oracle", "--target", "filtered.png", "--steps", "5", "--out", "o3.png", "--trace", "t3.csv"],
)


def filtered_png(size: int = 32) -> bytes:
    """A size x size RGB PNG whose rows cycle through filters 1-4."""

    def chunk(ctype: bytes, data: bytes) -> bytes:
        return struct.pack(">I", len(data)) + ctype + data + struct.pack(">I", zlib.crc32(ctype + data))

    def paeth(a: int, b: int, c: int) -> int:
        pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - 2 * c)
        return a if pa <= pb and pa <= pc else b if pb <= pc else c

    stride = 3 * size
    pixels = []  # row-major RGB bytes
    for y in range(size):
        for x in range(size):
            pixels += [(x * 7 + y * 3) % 256, (x * y + 40) % 256, (200 - 5 * x + (y * y) % 31) % 256]
    raw = bytearray()
    for y in range(size):
        filt = 1 + y % 4
        raw.append(filt)
        for i in range(stride):
            a = pixels[y * stride + i - 3] if i >= 3 else 0
            b = pixels[(y - 1) * stride + i] if y else 0
            c = pixels[(y - 1) * stride + i - 3] if y and i >= 3 else 0
            predicted = (a, b, (a + b) // 2, paeth(a, b, c))[filt - 1]
            raw.append((pixels[y * stride + i] - predicted) % 256)
    ihdr = struct.pack(">IIBBBBB", size, size, 8, 2, 0, 0, 0)
    return b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr) + chunk(b"IDAT", zlib.compress(bytes(raw))) + chunk(b"IEND", b"")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list, out: str, env: dict) -> bytes:
    done = subprocess.run(argv, cwd=out, env=env, capture_output=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace"))
        raise SystemExit(f"exit {done.returncode}: {' '.join(argv)}")
    return done.stdout


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    tree, out = (os.path.abspath(a) for a in argv)
    os.makedirs(os.path.join(out, "checkpoints"))  # fails if OUT already holds a run
    with open(os.path.join(out, "run.cfg"), "w") as f:
        f.write(CONFIG)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(tree, "src"), os.path.join(tree, "tests")]))
    run([sys.executable, "-c", WRITE_EXEMPLARS], out, env)
    with open(os.path.join(out, "filtered.png"), "wb") as f:
        f.write(filtered_png())

    cli = [sys.executable, "-m", "texsyn.cli"]
    lines = []
    for command in COMMANDS:
        args = command[:1] + ["--seed", "7", "--config", "run.cfg"] + command[1:]
        lines.append(f"{sha256(run(cli + args, out, env))}  stdout: {' '.join(args)}")
    for args in (["defaults"], ["gradcheck", "--seed", "0"]):
        lines.append(f"{sha256(run(cli + args, out, env))}  stdout: {' '.join(args)}")

    files = []
    for root, _, names in os.walk(out):
        files += [os.path.relpath(os.path.join(root, n), out) for n in names]
    for name in sorted(files):
        with open(os.path.join(out, name), "rb") as f:
            print(f"{sha256(f.read())}  {name}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
