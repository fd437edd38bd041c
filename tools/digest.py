"""Print a digest of what the benchmark workloads compute, to show that a
change leaves every output bit-identical.

    python3 tools/digest.py [--src DIR]

Every operation of the four ``perfbench`` workloads runs once, at seed 1
and full size, on the workloads' own inputs: the ``cell`` sets' chains, the
``line-diag`` residual and dissipativity sweeps, the paired ``ensemble``
runs and the ``particles`` Q estimates and signal runs.  The operations come
from the workload classes themselves (``workloads.Phase`` is replaced by a
recorder that keeps what each returns, untimed and unchecked), so the digest
follows the benchmark with no copy of its settings.

One line per output: its name, the sha256 of its float64 bytes and its
max|x|.  An output is a number, an array, a field's values or a record's
numeric fields, named by its path in the returned value; the items of a list
(the paths of an ensemble, the sets of a set-up) share one line per name.

``--src`` imports the package from DIR (default: the ``src`` of the
checkout holding this tool), so two checkouts compare by ``diff`` of the
output run once with each one's ``src``.
"""

import argparse
import dataclasses
import hashlib
import os
import sys

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SEED = 1


def leaves(value, name):
    """(name, number or array) of every number in ``value``, depth first."""
    if hasattr(value, "values") and hasattr(value, "grid"):
        yield name, value.values
    elif dataclasses.is_dataclass(value):
        for fld in dataclasses.fields(value):
            yield from leaves(getattr(value, fld.name),
                              "%s %s" % (name, fld.name))
    elif isinstance(value, dict):
        for key in sorted(value):
            yield from leaves(value[key], "%s[%s]" % (name, key))
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from leaves(item, "%s[%d]" % (name, i))
    elif isinstance(value, list):
        for item in value:
            yield from leaves(item, name)
    elif isinstance(value, (int, float, np.number, np.ndarray)):
        yield name, value


def emit(name, value):
    digests = {}
    for leaf, x in leaves(value, name):
        sha, top = digests.setdefault(leaf, [hashlib.sha256(), 0.0])
        x = np.ascontiguousarray(x, dtype=np.float64)
        sha.update(x.tobytes())
        if x.size:
            digests[leaf][1] = max(top, float(np.max(np.abs(x))))
    for leaf, (sha, top) in digests.items():
        print("%-60s %s %.17g" % (leaf, sha.hexdigest(), top))


class Recorder:
    """Stands in for ``workloads.Phase``: runs each operation once and
    prints the digest of what it returns."""

    prefix = ""

    def run(self, name, fn, inspect=None):
        emit("%s %s" % (self.prefix, name), fn())

    def summary(self, name):
        return None

    def add_problems(self, name, problems):
        pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the nlhom package")
    args = parser.parse_args()
    sys.path[:0] = [os.path.abspath(args.src),
                    os.path.join(ROOT, "perfbench")]
    import workloads

    workloads.Phase = Recorder
    for make in workloads.WORKLOADS.values():
        workload = make(SEED)
        inputs = workload.setup()
        emit("%s setup" % workload.name, inputs)
        for part in ("part_I", "part_II"):
            Recorder.prefix = "%s %s" % (workload.name, part)
            getattr(workload, part)(inputs)


if __name__ == "__main__":
    main()
