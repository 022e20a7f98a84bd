"""Library operations the CLI cannot reach, run the way the CLI runs: one
fresh interpreter per call, output on stdout with a fingerprint header.

usage: python3 perfbench/libop.py finite_eigenvalues MODEL SHIFT SIZE
"""

import json
import sys


def main(argv) -> int:
    from qsturm import spectrum
    from qsturm.words import ModelSpec

    kind, path, shift, size = argv
    if kind != "finite_eigenvalues":
        raise SystemExit(f"unknown library op {kind!r}")
    with open(path) as fh:
        spec = ModelSpec.from_json(json.load(fh))
    lams = spectrum.finite_eigenvalues(spec, int(shift), int(size))
    lines = [f"# fingerprint={spec.fingerprint()}", f"# command={kind}", "lambda"]
    lines += [format(float(x), ".17g") for x in lams]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
