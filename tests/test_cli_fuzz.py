"""Small random inputs through the command line end in a documented exit code.

Every run of `saddlebary barycenter`, on masses down to the smallest
subnormal, grids spaced from 1e-200 to 1e150, costs up to 1e308 and reg and
eps over their whole ranges, exits 0, 2, 3 or 4, with no warning and no
traceback.  An exit-0 run writes finite report values and an iterates.csv
that `gap` replays; an exit-2 or -3 run names its error on stderr.
"""

import contextlib
import csv
import io
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from saddlebary.cli import main

MODES = {
    "mp": ["--algo", "mp"],
    "de": ["--algo", "de"],
    "ibp": ["--algo", "ibp"],
    "ibp-stabilized": ["--algo", "ibp", "--stabilized"],
}
MASSES = (0.0, 5e-324, 1e-310, 1e-300, 1e-30)
COSTS = (0.0, 5e-324, 1.0, 1e300, 1e308)


@st.composite
def cases(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 3))
    mass = st.one_of(st.sampled_from(MASSES), st.floats(0.0, 1.0))
    normalize = draw(st.booleans())
    rows = []
    for _ in range(m):
        row = draw(st.lists(mass, min_size=n, max_size=n))
        if not normalize:
            # one entry takes up the rest of the unit mass
            j = draw(st.integers(0, n - 1))
            row[j] = max(0.0, 1.0 - (sum(row) - row[j]))
        rows.append(row)
    log_spacings = draw(st.lists(st.floats(-200.0, 150.0), min_size=n - 1, max_size=n - 1))
    cost = draw(st.one_of(st.none(), st.lists(st.sampled_from(COSTS), min_size=n * n,
                                              max_size=n * n)))
    return {
        "mode": draw(st.sampled_from(sorted(MODES))),
        "rows": rows,
        "spacings": [10.0**e for e in log_spacings],
        "cost": cost,
        "normalize": normalize,
        "normalize_cost": draw(st.booleans()),
        "reg": 10.0 ** draw(st.floats(-300.0, 300.0)),
        "eps": 10.0 ** draw(st.floats(-12.0, 6.0)),
    }


def _grid_text(spacings):
    points = [0.0]
    for s in spacings:
        points.append(points[-1] + s)
    return ",".join(repr(t) for t in points)


def _run(argv):
    """main(argv) with every warning an error; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_failure(code, err):
    if code in (2, 3):
        assert err.startswith(("error:", "numerical failure:")), err
        assert "np.float64" not in err, err  # numbers print as plain floats


# ibp on a cost near the largest double once certified NaN: 2 d_inf
# overflowed in the certificate
HUGE_COST = {
    "rows": [[0.2, 0.3, 0.5], [0.5, 0.25, 0.25]], "spacings": [1.0, 1.0],
    "cost": [0.0, 1e308, 1e308, 1e308, 0.0, 1e308, 1e308, 1e308, 0.0],
    "normalize": False, "normalize_cost": False, "reg": 1e10, "eps": 0.05,
}
# naive ibp's column scaling underflows under the mass 5e-324
ZERO_COLUMN_SCALING = {
    "rows": [[5e-324, 0.5, 0.5], [0.5, 0.5, 0.0]], "spacings": [0.5, 0.5], "cost": None,
    "normalize": False, "normalize_cost": False, "reg": 0.01, "eps": 0.05, "mode": "ibp",
}
# a squared-distance cost whose largest entry, 4e-320, is subnormal
SUBNORMAL_COST = {
    "rows": [[0.2, 0.3, 0.5], [0.5, 0.25, 0.25]], "spacings": [1e-160, 1e-160], "cost": None,
    "normalize": False, "normalize_cost": False, "reg": 0.01, "eps": 0.05,
}


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(case=cases())
@example(case={**HUGE_COST, "mode": "ibp"})
@example(case={**HUGE_COST, "mode": "ibp-stabilized"})
@example(case={**SUBNORMAL_COST, "mode": "mp"})
@example(case={**SUBNORMAL_COST, "mode": "de"})
@example(case=ZERO_COLUMN_SCALING)
def test_every_input_ends_in_a_documented_exit_code(case):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        hists = root / "h.csv"
        rows = "\n".join(",".join(repr(v) for v in row) for row in case["rows"])
        hists.write_text(f"# grid: {_grid_text(case['spacings'])}\n{rows}\n")
        argv = ["barycenter", *MODES[case["mode"]], "--input", str(hists),
                "--reg", repr(case["reg"]), "--eps", repr(case["eps"]),
                "--max-iters", "3" if case["mode"] == "de" else "30",
                "--out", str(root / "out"), "--timing", "off"]
        if case["cost"] is not None:
            n = len(case["rows"][0])
            cost = root / "cost.csv"
            cost.write_text("\n".join(
                ",".join(repr(v) for v in case["cost"][j * n:(j + 1) * n]) for j in range(n)
            ) + "\n")
            argv += ["--cost", f"csv:{cost}"]
        argv += ["--normalize"] * case["normalize"] + ["--normalize-cost"] * case["normalize_cost"]

        code, _, err = _run(argv)
        assert code in (0, 2, 3, 4), (code, err)
        _check_failure(code, err)
        if code != 0:
            return
        assert err == ""
        with open(root / "out" / "report.csv", newline="") as fh:
            records = list(csv.DictReader(fh))
        assert records
        for record in records:
            for column, text in record.items():
                assert text == "" or math.isfinite(float(text)), (column, text)
        code, out, err = _run(["gap", "--iterates", str(root / "out" / "iterates.csv")])
        assert code == 0, err
        assert math.isfinite(float(out.removeprefix("duality gap: ")))
