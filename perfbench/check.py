"""Output checker for the hdperm benchmark.

Every job's output is checked after it ran, outside the timed span. JSON
outputs are compared field by field (never byte for byte), so later versions
may add fields such as a backend name or work counters without failing the
check. Reference values come from definitions re-implemented here (f, c_d,
the validity of a tensor), from known counts of full supports, from oracle
counts computed once with tests/oracles.py (recorded.json), and, for the
enumerate workload's planted supports outside the oracle table, from the
package's own count (a cross-check of two code paths).
"""

import hashlib
import json
import math
from itertools import product
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
TOL_EXACT = 1e-12  # the CLI's own tolerance for the shade identity
TOL_REF = 1e-9  # agreement with the re-implemented definitions
SMALL_CELLS = 16  # supports this small are recounted by small_count


class CheckError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _close(a, b, tol=TOL_REF):
    return abs(a - b) <= tol * max(1.0, abs(b))


class FTable:
    """f(0,r) = log r, f(d,r) = (1/r) Σ_{k<=r} f(d-1,k), in plain floats."""

    def __init__(self):
        self.rows = {}

    def row(self, d, rmax):
        have = self.rows.get(d)
        if have is not None and len(have) >= rmax:
            return have
        if d == 0:
            row = [math.log(r) for r in range(1, rmax + 1)]
        else:
            prev = self.row(d - 1, rmax)
            row, acc = [], 0.0
            for r in range(1, rmax + 1):
                acc += prev[r - 1]
                row.append(acc / r)
        self.rows[d] = row
        return row

    def __call__(self, d, r):
        return self.row(d, r)[r - 1]


F = FTable()


def c_d(d):
    c = 0.0
    for k in range(1, d + 1):
        c = (1 + math.e ** (-(k - 1))) * c / k + k * (2 / k**k + (math.e / k) ** k)
    return c


def support_key(d, n, masks):
    text = f"{d}:{n}:" + ",".join(map(str, masks))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def job_key(job):
    """Names a job by its argv and the content of its input files."""
    files = hashlib.sha256(json.dumps(job.get("files", {}), sort_keys=True).encode()).hexdigest()[:12]
    return " ".join(job["argv"]) + " #" + files


def log_bound(d, masks):
    return math.fsum(F(d, m.bit_count()) for m in masks)


def small_count(d, n, masks):
    """Independent count for tiny supports: fill cells in reverse row-major
    order, one set of used values per line."""
    cells = list(product(range(n), repeat=d))[::-1]
    used = {}

    def place(i):
        if i == len(cells):
            return 1
        coords = cells[i]
        keys = [(k, coords[:k] + coords[k + 1:]) for k in range(d)]
        total = 0
        for v in range(n):
            if not (masks[len(cells) - 1 - i] >> v) & 1:
                continue
            if any(v in used.setdefault(key, set()) for key in keys):
                continue
            for key in keys:
                used[key].add(v)
            total += place(i + 1)
            for key in keys:
                used[key].discard(v)
        return total

    return place(0)


def load_recorded():
    return json.loads((HERE / "recorded.json").read_text())


def parse_tensors(text, d, n):
    """Parse blank-line separated tensors into a (T, n^d) int array."""
    text = text.strip()
    if not text:
        return np.zeros((0, n**d), dtype=np.int64)
    width = 2 + n**d
    tokens = np.array(text.split(), dtype=np.int64)
    _require(tokens.size % width == 0, f"{tokens.size} tokens is not a multiple of {width}")
    table = tokens.reshape(-1, width)
    _require(text.count("\n\n") + 1 == table.shape[0], "tensor blocks are not blank-line separated")
    _require((table[:, 0] == d).all() and (table[:, 1] == n).all(), "bad tensor header")
    return table[:, 2:]


def check_tensors(values, d, n, masks=None):
    """Each row is a valid d-dimensional permutation (inside masks); rows
    strictly increase lexicographically, so none repeats."""
    if values.shape[0] == 0:
        return
    cube = values.reshape((-1,) + (n,) * d)
    ramp = np.arange(n)
    for k in range(1, d + 1):
        shape = [1] * (d + 1)
        shape[k] = n
        _require((np.sort(cube, axis=k) == ramp.reshape(shape)).all(),
                 f"a line along axis {k} is not a permutation")
    if masks is not None:
        m = np.array(masks, dtype=np.int64)
        _require((((m[None, :] >> values) & 1) == 1).all(), "a tensor leaves the support")
    if values.shape[0] > 1:
        prev, cur = values[:-1], values[1:]
        diff = prev != cur
        _require(diff.any(axis=1).all(), "an enumerated tensor repeats")
        first = diff.argmax(axis=1)
        rows = np.arange(first.size)
        _require((cur[rows, first] > prev[rows, first]).all(), "tensors are not in sorted order")


def _json_out(stdout):
    lines = stdout.decode().strip().splitlines()
    _require(lines, "empty output")
    try:
        obj = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise CheckError("last output line is not JSON") from None
    _require(obj.get("status") == "ok", f"status {obj.get('status')!r}")
    return obj


def _matches_recorded(got, want, path="$"):
    """Every recorded field is present and equal (reals to TOL_REF)."""
    if isinstance(want, dict):
        _require(isinstance(got, dict), f"{path} is not an object")
        for k, v in want.items():
            _require(k in got, f"{path}.{k} missing")
            _matches_recorded(got[k], v, f"{path}.{k}")
    elif isinstance(want, float) and not isinstance(got, bool):
        _require(isinstance(got, (int, float)) and _close(got, want), f"{path}: {got} != {want}")
    elif isinstance(want, list):
        _require(isinstance(got, list) and len(got) == len(want), f"{path} length differs")
        for i, (g, w) in enumerate(zip(got, want)):
            _matches_recorded(g, w, f"{path}[{i}]")
    else:
        _require(got == want, f"{path}: {got!r} != {want!r}")


class Checker:
    """Checks jobs; keeps the recorded values and a count cache."""

    def __init__(self, count_fallback=None):
        rec = load_recorded()
        self.oracle = rec["oracle_counts"]
        self.recorded = rec["outputs"]
        self.count_fallback = count_fallback  # (d, n, masks) -> int
        self._counts = {}

    def expected_count(self, expect):
        if "count" in expect:
            return expect["count"]
        key = support_key(expect["d"], expect["n"], expect["masks"])
        if key in self.oracle:
            return self.oracle[key]
        if key not in self._counts:
            _require(self.count_fallback is not None, "no reference count")
            self._counts[key] = self.count_fallback(expect["d"], expect["n"], expect["masks"])
        return self._counts[key]

    def check(self, job, returncode, stdout):
        """None when the output is right, else the reason it is not."""
        try:
            _require(returncode == 0, f"exit code {returncode}")
            getattr(self, "_" + job["kind"])(job["expect"], stdout, job["argv"])
            recorded = self.recorded.get(job_key(job))
            if recorded is not None:
                _matches_recorded(_json_out(stdout), recorded)
        except CheckError as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        return None

    def check_all(self, jobs, results):
        """Per-job reasons (None = ok), plus the cross-job rule that a
        support counts the same under every --threads value."""
        reasons = [self.check(job, rc, out) for job, (rc, out) in zip(jobs, results)]
        seen = {}
        for i, job in enumerate(jobs):
            e = job["expect"]
            if job["kind"] != "count" or "masks" not in e or reasons[i] is not None:
                continue
            key = support_key(e["d"], e["n"], e["masks"])
            count = _json_out(results[i][1])["count"]
            if key in seen and seen[key][1] != count:
                reasons[i] = f"count {count} differs from {seen[key][1]} of {jobs[seen[key][0]]['id']}"
            seen.setdefault(key, (i, count))
        return reasons

    # -- one method per job kind ------------------------------------------

    def _count(self, e, out, argv):
        obj = _json_out(out)
        _require(obj["params"]["d"] == e["d"] and obj["params"]["n"] == e["n"], "params differ")
        count = int(obj["count"])
        if "count" in e:
            _require(count == e["count"], f"count {count} != {e['count']}")
            return
        _require(count >= 1, "a planted support counted 0")
        _require(math.log(count) <= log_bound(e["d"], e["masks"]) + TOL_REF,
                 f"count {count} exceeds exp(log_bound)")
        key = support_key(e["d"], e["n"], e["masks"])
        if key in self.oracle:
            _require(count == self.oracle[key], f"count {count} != oracle {self.oracle[key]}")
        elif e["n"] ** e["d"] <= SMALL_CELLS:
            want = small_count(e["d"], e["n"], e["masks"])
            _require(count == want, f"count {count} != {want}")

    def _enumerate(self, e, out, argv):
        d, n = e["d"], e["n"]
        values = parse_tensors(out.decode(), d, n)
        want = e["limit"] if "limit" in e else self.expected_count(e)
        _require(values.shape[0] == want, f"{values.shape[0]} tensors, expected {want}")
        check_tensors(values, d, n, e.get("masks"))

    def _shade(self, e, out, argv):
        obj = _json_out(out)
        d, n, r = e["d"], e["n"], e["r"]
        p = obj["params"]
        _require((p["d"], p["n"], p["r"]) == (d, n, r), "params differ")
        _require(obj["mode"] == e["mode"], "mode differs")
        _require(_close(obj["f_reference"], F(d, r)), "f_reference differs from f(d, r)")
        if e["mode"] == "mc":
            _require(obj["samples"] == e["samples"], "sample count differs")
            _require(obj["pass"] is True, "mc estimate outside 4 stderr of f")
            return
        total = math.factorial(n) ** d
        _require(obj["samples"] == total, "exact run did not cover (n!)^d orderings")
        _require(abs(obj["mean"] - obj["f_reference"]) <= TOL_EXACT,
                 f"|mean - f| = {abs(obj['mean'] - obj['f_reference']):.3g}")
        if e["mode"] == "hist":
            _require(sum(obj["counts"].values()) == total, "histogram does not sum to (n!)^d")

    def _f(self, e, out, argv):
        obj = _json_out(out)
        d, r = obj["params"]["d"], obj["params"]["r"]
        _require(_close(obj["f"], F(d, r)), f"f({d},{r}) = {obj['f']}")

    def _f_csv(self, e, out, argv):
        rows = [line.split(",") for line in out.decode().strip().splitlines()]
        _require(rows[0] == ["d", "r", "f_float"], "bad CSV header")
        d, rmax = int(argv[argv.index("--d") + 1]), int(argv[argv.index("--rmax") + 1])
        _require(len(rows) == rmax + 1, "wrong number of rows")
        for i, (dd, r, f) in enumerate(rows[1:], start=1):
            _require(int(dd) == d and int(r) == i and _close(float(f), F(d, i)), f"row {i} wrong")

    def _cd(self, e, out, argv):
        obj = _json_out(out)
        d = obj["params"]["d"]
        _require(_close(obj["c_d"], c_d(d)), "c_d differs from its recursion")
        _require(_close(obj["xi"], (d - 1) * math.e ** (d - 1)), "xi wrong")
        _require(_close(obj["r_d"], math.e**d), "r_d wrong")
        _require(obj["cap"] >= obj["c_d"], "cap below c_d")

    def _theorem5(self, e, out, argv):
        obj = _json_out(out)
        d, rmax = obj["params"]["d"], obj["params"]["rmax"]
        r_start = math.ceil(math.e**d)
        _require(obj["r_start"] == r_start and obj["checked"] == rmax - r_start + 1, "sweep range wrong")
        _require(obj["pass"] is True and obj["violations"] == 0 and obj["weak_violations"] == 0,
                 "theorem5 sweep failed")

    def _sdn_bound(self, e, out, argv):
        obj = _json_out(out)
        d, n = obj["params"]["d"], obj["params"]["n"]
        f = F(d, n)
        _require(_close(obj["log_bound"], n**d * f), "log_bound differs from n^d f(d,n)")
        denom = math.log(n) - d
        if denom > 0:
            _require(_close(obj["ratio"], f / denom), "ratio wrong")
        else:
            _require(obj["ratio"] is None, "ratio should be null")

    def _bound(self, e, out, argv):
        obj = _json_out(out)
        _require(_close(obj["log_bound"], log_bound(e["d"], e["masks"])), "log_bound differs")

    def _construct(self, e, out, argv):
        d, n = e["d"], e["n"]
        values = parse_tensors(out.decode(), d, n)
        _require(values.shape[0] == 1, "expected one tensor")
        check_tensors(values, d, n)
        if e["kind"] == "modular":
            want = [sum(c) % n for c in product(range(n), repeat=d)]
            _require(values[0].tolist() == want, "not the modular permutation")

    def _verify(self, e, out, argv):
        obj = _json_out(out)
        _require(obj["suites"] and all(s["passed"] for s in obj["suites"].values()), "a suite failed")
