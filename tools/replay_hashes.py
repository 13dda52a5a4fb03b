"""Hash the bytes of a few short, seeded crdgan runs, to compare two checkouts.

    python tools/replay_hashes.py [CHECKOUT]

imports ``crdgan`` from CHECKOUT/src (default: the checkout this file sits
in), and in one process runs:

- a short 16x16 paired ``invert`` train (batch 1, sampled triples) and its
  ``crdgan eval``;
- a short 16x16 unpaired ``shapes`` train at batch 2;
- ``crdgan gradcheck`` at its defaults and at ``--budget 20``.

It prints one JSON line mapping each artifact (each run's ``metrics.csv``,
``config.cfg``, checkpoint files and sample grids, ``eval.csv``, and each
gradient check's stdout) to its SHA-256, plus numpy's version and the BLAS
thread count, which run bytes depend on.  Two checkouts wrote the same bytes
when their lines are equal.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

CONFIG = """\
epochs = 2
train_count = 20
val_count = 4
batch_size = {batch}
image_size = 16
base_width = 8
num_res_blocks = 1
disc_base_width = 8
patch = 4,4
triplet_budget = 64
teacher_eval_interval = 2
sample_every = 1
"""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(main, argv: list) -> str:
    """stdout of one ``crdgan`` command, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"crdgan {' '.join(argv)} exited {code}")
    return out.getvalue()


def replay(main, work: Path) -> dict:
    """artifact name -> SHA-256 of the runs, made under work with ``cli.main``."""
    hashes = {}
    for name, task, batch in (("invert", "invert", 1), ("shapes_b2", "shapes", 2)):
        config = work / f"{name}.cfg"
        config.write_text(CONFIG.format(batch=batch))
        run = work / name
        _cli(main, ["train", "--config", str(config), "--task", task, "--out", str(run)])
        if name == "invert":
            _cli(main, ["eval", "--run", str(run), "--task", task])
        for path in sorted(p for p in run.rglob("*") if p.is_file()):
            hashes[f"{name}/{path.relative_to(run).as_posix()}"] = _sha(path.read_bytes())
    for name, extra in (("gradcheck", []), ("gradcheck_budget20", ["--budget", "20"])):
        hashes[f"{name}/stdout"] = _sha(_cli(main, ["gradcheck", *extra]).encode())
    return hashes


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    from crdgan import cli

    with tempfile.TemporaryDirectory() as work:
        hashes = replay(cli.main, Path(work))
    print(json.dumps({"numpy_version": np.__version__, "blas_threads": cli._blas_threads(),
                      "sha256": hashes}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
