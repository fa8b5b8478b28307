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


# `gap` on iterates.csv files: a feasible file, then a few mutations of its
# rows.  Every replay exits 0 with a finite gap or 2 with an error.
KINDS = ("cost_row", "measure", "plan", "bary", "dual")
EDGES = (-0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 8.98e306, 1.5e307, 1e308,
         1.7976931348623157e308, -1e308)
MASS_DELTAS = (-2e-12, -1.1e-12, -1e-12, -9e-13, 9e-13, 1e-12, 1.1e-12, 2e-12)


def _simplex(draw, width):
    """A row on the simplex: one entry takes up what the others leave of the unit mass."""
    row = draw(st.lists(st.one_of(st.sampled_from(MASSES), st.floats(0.0, 1.0 / width)),
                        min_size=width, max_size=width))
    j = draw(st.integers(0, width - 1))
    row[j] = max(0.0, 1.0 - (sum(row) - row[j]))
    return row


@st.composite
def iterates_files(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 3))
    # at m = 1 and 2 the scale 8.98e306 is inside the certificate's limit, and
    # 1.5e307 is past it for every m
    scale = draw(st.sampled_from((1.0, 1e-300, 8.98e306, 1.5e307)))
    cost_entry = st.one_of(st.sampled_from((0.0, 5e-324, 1.0)), st.floats(0.0, 1.0))
    dual_entry = st.one_of(st.sampled_from((-1.0, -0.0, 0.0, 1.0)), st.floats(-1.0, 1.0))
    rows = {
        "cost_row": [[scale * c for c in draw(st.lists(cost_entry, min_size=n, max_size=n))]
                     for _ in range(n)],
        "measure": [_simplex(draw, n) for _ in range(m)],
        "plan": [_simplex(draw, n * n) for _ in range(m)],
        "bary": [_simplex(draw, n)],
        "dual": [draw(st.lists(dual_entry, min_size=2 * n, max_size=2 * n)) for _ in range(m)],
    }
    # (operation, kind, row, entry): row and entry are taken modulo the sizes
    operation = st.one_of(
        st.just(("truncate",)), st.just(("drop",)),
        st.tuples(st.just("set"), st.sampled_from(EDGES)),
        st.tuples(st.just("shift"), st.sampled_from(MASS_DELTAS)),
    )
    mutations = draw(st.lists(
        st.tuples(operation, st.sampled_from(KINDS), st.integers(0, 8), st.integers(0, 31)),
        max_size=3,
    ))
    return {"rows": rows, "mutations": mutations}


def _iterates_text(case):
    lines = [[kind, i, list(values)] for kind in KINDS
             for i, values in enumerate(case["rows"][kind])]
    for operation, kind, row, entry in case["mutations"]:
        targets = [line for line in lines if line[0] == kind]
        if not targets:
            continue
        line = targets[row % len(targets)]
        values = line[2]
        if operation[0] == "drop":
            lines.remove(line)
        elif not values:
            continue
        elif operation[0] == "truncate":
            del values[entry % len(values):]
        elif operation[0] == "set":
            values[entry % len(values)] = operation[1]
        else:
            values[entry % len(values)] += operation[1]
    return "kind,index,values...\r\n" + "".join(
        f"{kind},{i}," + ",".join(repr(v) for v in values) + "\r\n" for kind, i, values in lines
    )


# m = 1, a 1.5e307 cost: the certificate values (1.35e308, -6e307) made the
# gap overflow, and `gap` printed inf with exit 0
SINGLE_MEASURE_OVERFLOW = {
    "rows": {
        "cost_row": [[0.0, 1.5e307, 1.5e307], [1.5e307, 0.0, 1.5e307], [1.5e307, 1.5e307, 0.0]],
        "measure": [[0.5, 0.5, 0.0]],
        "plan": [[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
        "bary": [[0.0, 0.0, 1.0]],
        "dual": [[-1.0, -1.0, -1.0, 1.0, 1.0, -1.0]],
    },
    "mutations": [],
}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=iterates_files())
@example(case=SINGLE_MEASURE_OVERFLOW)
def test_gap_on_mutated_iterates_ends_in_exit_0_or_2(case):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "iterates.csv"
        path.write_text(_iterates_text(case), newline="")
        code, out, err = _run(["gap", "--iterates", str(path)])
    assert code in (0, 2), (code, err)
    if code == 2:
        assert out == "" and err.startswith("error:"), err
        return
    assert err == ""
    assert math.isfinite(float(out.removeprefix("duality gap: ")))
