"""Compare a JSON report with an expected one: equal structure, keys,
integers, booleans and strings, and every float within ``FLOAT_TOL``.

    python tests/compare_report.py GOT.json WANT.json

exits 0 when the reports match and 1, naming the first difference, when
they do not.
"""

import json
import sys

FLOAT_TOL = 1e-14


def assert_close(got, want, where="report"):
    """Equal structure, keys, integers, booleans and strings; floats within FLOAT_TOL."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert abs(got - want) <= FLOAT_TOL, f"{where}: {got!r} vs {want!r}"
    else:
        assert got == want, where


def main(argv) -> int:
    got_path, want_path = argv
    with open(got_path, encoding="utf-8") as got, open(want_path, encoding="utf-8") as want:
        try:
            assert_close(json.load(got), json.load(want))
        except AssertionError as exc:
            print(f"{got_path} differs from {want_path} at {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
