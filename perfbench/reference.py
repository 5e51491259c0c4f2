"""Per-artefact export digests: the benchmark's correctness reference.

A ``run-all --json`` report carries every artefact's result already
flattened by ``repro.experiments.export.jsonable``. The digest of one
artefact is the SHA-256 of that value dumped the way the golden test
dumps it (``indent=2, sort_keys=True``), so two runs agree on a digest
exactly when their exports agree byte for byte.

Record the reference for a set of seeds (a cold full-scale run-all per
seed, each in its own empty cache) with::

    python3 perfbench/reference.py 0 1 2 ... 2024

Run it from the repository root; it rewrites ``perfbench/reference/digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Any, Dict

HERE = pathlib.Path(__file__).resolve().parent
DIGESTS = HERE / "reference" / "digests.json"
GOLDEN = pathlib.Path("tests") / "core" / "golden" / "run_all_seed2024_scale0.05.json"
#: Every workload runs run-all at the paper's full Table 4 scale.
SCALE = 1.0


def digest(value: Any) -> str:
    text = json.dumps(value, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def digests_of(results: Dict[str, Any]) -> Dict[str, str]:
    return {artefact: digest(value) for artefact, value in sorted(results.items())}


def load_reference(seed: int) -> Dict[str, str]:
    """The recorded digests for ``seed`` at :data:`SCALE` ({} if none)."""
    table = json.loads(DIGESTS.read_text())
    if table["scale"] != SCALE:
        raise ValueError(f"{DIGESTS} was recorded at scale {table['scale']}")
    return table["seeds"].get(str(seed), {})


def golden_digests() -> Dict[str, str]:
    """Digests of the committed scale-0.05, seed-2024 golden export."""
    return digests_of(json.loads(GOLDEN.read_text())["results"])


def _record(seeds) -> None:
    import tempfile

    from common import TMP_PARENT, run_child, runall_command

    table = {"scale": SCALE, "seeds": {}}
    if DIGESTS.exists():
        table = json.loads(DIGESTS.read_text())
    for seed in seeds:
        TMP_PARENT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=TMP_PARENT) as root:
            root = pathlib.Path(root)
            out = root / "report.json"
            child = run_child(runall_command(seed, SCALE, out), root)
            report = json.loads(out.read_text())
            if child.status != 0 or not report["ok"]:
                raise SystemExit(f"seed {seed}: run-all failed ({child.status})")
            table["seeds"][str(seed)] = digests_of(report["results"])
            print(f"seed {seed}: {len(report['results'])} artefacts, "
                  f"{child.wall_s:.1f} s", flush=True)
    table["seeds"] = dict(sorted(table["seeds"].items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    _record([int(arg) for arg in sys.argv[1:]])
