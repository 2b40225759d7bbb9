"""The three workloads: their seeded inputs, their operations, and the check
of every output against ``reference``.

Each job function imports the package, generates its inputs from the seed and
returns a Job.  Operations call the package through module attributes
(``cli.main``, ``bijections.perm_to_history``), so wrappers that the
tracer installs after set-up are the ones called.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import reference as ref

#: Series order of every ``gf`` command; all of them together take a few
#: seconds at this order on a 2-CPU machine.
GF_ORDER = 12
#: Largest n at which the series are compared with brute force over the
#: classes; beyond it the checks are the path counts and the identities.
BRUTE_N = 9
#: nmax of every ``verify`` suite that takes one, and the series order of
#: the genfun and cluster suites.
VERIFY_NMAX = 7
VERIFY_ORDER = 10
#: (class, statistics, n) of the ``table`` exports.
TABLES = (("I(3412)", "inv,des,fix", 9), ("S(132,_123)", "coinv,des", 9), ("M", "weak_valleys", 12))

CLUSTER_FAMILIES = ("HHH,HHU,DHH,DHU", "HU,DU")
INV_PATTERNS = {
    "f123_inv": (1, 2, 3), "f132_inv": (1, 3, 2), "f213_inv": (2, 1, 3),
    "f231_inv": (2, 3, 1), "f312_inv": (3, 1, 2), "f321_inv": (3, 2, 1),
    "f312_via_t1t2": (3, 1, 2),
}
PERM_PATTERNS = {"f213_perm": (2, 1, 3), "f231_perm": (2, 3, 1), "f312_perm": (3, 1, 2), "f321_perm": (3, 2, 1)}
GF_VARS = {
    "inv_des_fix": ("y", "z", "w"), "weak_valley": ("z",), "coinv_des": ("y", "z"),
    **{name: ("t", "z") for name in INV_PATTERNS},
    **{name: ("t",) for name in PERM_PATTERNS},
}

#: Sizes of the maps inputs; the contents come from the seed.
PERM_SIZES = (25, 50, 100, 200, 300) * 5
INVERSE_SIZES = (6, 7, 8) * 8
INVOLUTION_SIZES = (25, 50, 100, 150, 200, 250, 300) * 4
PATH_SIZES = (25, 50, 100, 200, 300) * 4
WORD_SIZES = (25, 50, 100, 200, 300) * 4
#: Histories past the search bound of Gamma^-1; the same in every run.
REFUSED_HISTORIES = (
    "UUTUDTDHD | l=0,0,1,2,1,0,1,0,0",
    "UTTTTTTTTD | l=0,0,0,0,0,0,0,0,0,0",
    "HHHHHHHHHHH | l=0,0,0,0,0,0,0,0,0,0,0",
    "UDUDUDUDUDUD | l=0,0,0,0,0,0,0,0,0,0,0,0",
)


@dataclass
class Op:
    """One timed operation.  ``check`` gets the value ``call`` returned and
    gives a failure message or None.  ``may_refuse`` marks an operation
    whose bound refusal is a known fault, counted as failed but not wrong."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    may_refuse: bool = False


@dataclass
class Job:
    ops: list[Op] = field(default_factory=list)
    #: Whether an exception is the known refusal of a ``may_refuse`` operation.
    is_refusal: Callable[[BaseException], bool] = lambda exc: False
    #: (operation names, check) for identities that need the outputs of
    #: several operations; a failure fails every named operation.
    joint_checks: list[tuple[tuple[str, ...], Callable[[], str | None]]] = field(default_factory=list)
    output_bytes: int = 0


class References:
    """Reference tables, computed on first use after the timed job."""

    def __init__(self, order: int):
        self.order = order
        self._cache: dict = {}

    def get(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def motzkin(self) -> list[int]:
        return self.get("motzkin", lambda: ref.motzkin_numbers(self.order))

    def inv_des_fix(self):
        return self.get("idf", lambda: ref.inv_des_fix_paths(self.order))

    def weak_valley(self):
        return self.get("wv", lambda: ref.weak_valley_paths(self.order))

    def area_tunnel(self):
        return self.get("at", lambda: ref.area_tunnel_paths(self.order))

    def cluster(self, family: str):
        return self.get(("cl", family), lambda: ref.factor_count_paths(self.order, tuple(family.split(","))))

    def i3412(self, n: int):
        return self.get(("i3412", n), lambda: list(ref.i3412_class(n)))

    def s132(self, n: int):
        return self.get(("s132", n), lambda: list(ref.s132_class(n)))


def _run_cli(job: Job, cli, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    text = out.getvalue()
    job.output_bytes += len(text.encode())
    return rc, text, err.getvalue()


def _cli_op(job: Job, cli, name: str, argv: list[str], check) -> Op:
    def checked(value):
        rc, out, err = value
        if rc != 0:
            return f"exit {rc}: {err.strip()[:200]}"
        return check(out)

    return Op(name, lambda: _run_cli(job, cli, argv), checked)


# ---------------------------------------------------------------------------
# gf


def parse_poly(text: str, names: tuple[str, ...]) -> dict[tuple, Fraction]:
    """Read a coefficient as ``format_poly`` prints it, e.g. ``2*y^2*z - 3/4``."""
    if text == "0":
        return {}
    tokens = text.split(" ")
    signed = [(-1, tokens[0][1:]) if tokens[0].startswith("-") else (1, tokens[0])]
    signed += [(-1 if tokens[i] == "-" else 1, tokens[i + 1]) for i in range(1, len(tokens), 2)]
    out: dict[tuple, Fraction] = {}
    for sign, term in signed:
        coeff, exps = Fraction(1), [0] * len(names)
        for factor in term.split("*"):
            if factor[0].isdigit():
                coeff = Fraction(factor)
            else:
                var, _, e = factor.partition("^")
                exps[names.index(var)] += int(e or 1)
        out[tuple(exps)] = sign * coeff
    return out


def parse_series(out: str, names: tuple[str, ...], order: int) -> list[dict[tuple, Fraction]]:
    payload = json.loads(out)
    if sorted(payload, key=int) != [str(n) for n in range(order + 1)]:
        raise ValueError(f"expected coefficients 0..{order}, got {sorted(payload, key=int)}")
    return [parse_poly(payload[str(n)], names) for n in range(order + 1)]


def _first_mismatch(got, want, sizes) -> str | None:
    for n in sizes:
        if got[n] != want(n):
            return f"coefficient of x^{n} differs from the reference"
    return None


def gf_job(seed: int) -> Job:
    from motzkinperm import cli

    rng = random.Random(seed)
    refs = References(GF_ORDER)
    order = GF_ORDER
    full = range(order + 1)
    brute = range(min(BRUTE_N, order) + 1)
    job = Job()
    outputs: dict[str, list] = {}

    def series_check(name, names, *checks):
        def check(out):
            got = parse_series(out, names, order)
            outputs[name] = got
            for c in checks:
                message = c(got)
                if message:
                    return message
            return None

        return check

    def equals(table):
        return lambda got: _first_mismatch(got, lambda n: table()[n], full)

    def h_marginal(index):
        """Fixed points (H steps) are counted by C(n,k) Catalan((n-k)/2)."""
        return lambda got: _first_mismatch([ref.marginal(p, index) for p in got], ref.h_step_marginal, full)

    checks = {
        "inv_des_fix": (equals(refs.inv_des_fix), h_marginal(2)),
        "weak_valley": (equals(refs.weak_valley),),
        "coinv_des": (
            equals(refs.area_tunnel),
            lambda got: _first_mismatch([ref.marginal(p, 1) for p in got], ref.tunnel_marginal, full),
            lambda got: _first_mismatch(
                got, lambda n: ref.tabulate(refs.s132(n), (ref.coinv, ref.des)), brute
            ),
        ),
    }
    for name, pattern in INV_PATTERNS.items():
        checks[name] = (
            h_marginal(1),
            lambda got, pattern=pattern: _first_mismatch(
                got, lambda n: ref.tabulate(refs.i3412(n), (lambda p: ref.consecutive(p, pattern), ref.fix)), brute
            ),
        )
    for name, pattern in PERM_PATTERNS.items():
        checks[name] = (
            lambda got: _first_mismatch([sum(p.values()) for p in got], lambda n: refs.motzkin()[n], full),
            lambda got, pattern=pattern: _first_mismatch(
                got, lambda n: ref.tabulate(refs.s132(n), (lambda p: ref.consecutive(p, pattern),)), brute
            ),
        )

    argv = ["gf", "--N", str(order)]
    for name, name_checks in checks.items():
        job.ops.append(_cli_op(job, cli, f"gf {name}", argv + ["--name", name],
                               series_check(name, GF_VARS[name], *name_checks)))
    for family in CLUSTER_FAMILIES:
        job.ops.append(_cli_op(job, cli, f"gf cluster {family}", argv + ["--name", "cluster", "--S", family],
                               series_check(family, ("t", "z"), equals(lambda f=family: refs.cluster(f)))))

    def point() -> Fraction:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))

    def eval_op(name, table, values, reference_names, extra=()):
        rest = tuple(v for v in reference_names if v not in values)
        assignment = ",".join(f"{k}={v}" for k, v in values.items())
        want = lambda n: ref.evaluate(table()[n], reference_names, values)
        job.ops.append(_cli_op(
            job, cli, f"gf {name} --eval {assignment}",
            argv + ["--name", name, *extra, "--eval", assignment],
            series_check(f"{name} {assignment}", rest, lambda got: _first_mismatch(got, want, full)),
        ))

    one = Fraction(1)
    eval_op("inv_des_fix", refs.inv_des_fix, {"y": one, "z": one}, ("y", "z", "w"))
    eval_op("coinv_des", refs.area_tunnel, {"y": one}, ("y", "z"))
    eval_op("weak_valley", refs.weak_valley, {"z": point()}, ("z",))
    eval_op("cluster", lambda: refs.cluster("HU,DU"), {"t": point(), "z": point()}, ("t", "z"),
            extra=("--S", "HU,DU"))
    for name in PERM_PATTERNS:
        job.ops.append(_cli_op(
            job, cli, f"gf {name} --eval t=1", argv + ["--name", name, "--eval", "t=1"],
            series_check(f"{name} t=1", (), lambda got: _first_mismatch(
                got, lambda n: {(): refs.motzkin()[n]}, full)),
        ))

    six = [name for name in INV_PATTERNS if name != "f312_via_t1t2"]

    def window_sum() -> str | None:
        """Every window of three steps realizes exactly one pattern."""
        if any(name not in outputs for name in six):
            return "a pattern series is missing"
        for n in range(2, order + 1):
            total = sum(exps[0] * c for name in six for exps, c in outputs[name][n].items())
            if total != (n - 2) * refs.motzkin()[n]:
                return f"window-sum identity fails at n={n}"
        return None

    job.joint_checks.append((tuple(f"gf {name}" for name in six), window_sum))
    rng.shuffle(job.ops)
    return job


# ---------------------------------------------------------------------------
# verify


def parse_table(out: str, fmt: str, width: int) -> dict[tuple, int]:
    """Rows of a ``table`` export as {values: count}; the printed total must
    equal the sum of the rows."""
    if fmt == "json":
        payload = json.loads(out)
        rows = {tuple(r["values"]): r["count"] for r in payload["rows"]}
        total = payload["total"]
    else:
        lines = out.strip().splitlines()[1:]
        if fmt == "text":
            total = int(lines.pop().split()[1])
            rows = {tuple(map(int, l.split()[:width])): int(l.split()[width]) for l in lines}
        else:
            rows = {tuple(map(int, l.split(",")[:width])): int(l.split(",")[width]) for l in lines}
            total = sum(rows.values())
    if total != sum(rows.values()):
        raise ValueError(f"printed total {total} differs from the sum of the rows")
    return rows


def verify_job(seed: int) -> Job:
    from motzkinperm import cli

    rng = random.Random(seed)
    refs = References(max(n for _, _, n in TABLES))
    job = Job()

    def suite_check(fmt):
        def check(out):
            if fmt == "json":
                payload = json.loads(out)
                return None if payload["ok"] and not payload["failures"] else f"failures: {payload['failures'][:3]}"
            last = out.strip().splitlines()[-1]
            return None if last.endswith(": PASS") else last[:200]

        return check

    for suite in ("bijection", "diagram", "stat-transport", "s132-transport", "genfun", "cluster", "counting"):
        fmt = rng.choice(("text", "json"))
        argv = ["verify", suite, "--nmax", str(VERIFY_NMAX), "--format", fmt]
        if suite in ("genfun", "cluster"):
            argv += ["--N", str(VERIFY_ORDER)]
        if suite == "cluster":
            argv += ["--seed", str(rng.randrange(1, 2**31))]
        job.ops.append(_cli_op(job, cli, f"verify {suite}", argv, suite_check(fmt)))
    # The series suite keeps its default seed: its cost doubles from one seed
    # to another, which would make slowest_op_s follow the seed.
    fmt = rng.choice(("text", "json"))
    job.ops.append(_cli_op(job, cli, "verify series", ["verify", "series", "--format", fmt], suite_check(fmt)))

    def table_check(class_spec, stats, n, fmt):
        width = len(stats.split(","))

        def check(out):
            rows = parse_table(out, fmt, width)
            if sum(rows.values()) != refs.motzkin()[n]:
                return f"total {sum(rows.values())} != Motzkin({n})"
            if class_spec == "I(3412)":
                if ref.marginal(rows, 2) != ref.h_step_marginal(n):
                    return "fix marginal differs from C(n,k) Catalan((n-k)/2)"
                want = ref.tabulate(refs.i3412(n), (ref.inv, ref.des, ref.fix))
            elif class_spec == "S(132,_123)":
                if ref.marginal(rows, 1) != ref.tunnel_marginal(n):
                    return "des marginal differs from C(n,2u) Catalan(u)"
                want = ref.tabulate(refs.s132(n), (ref.coinv, ref.des))
            else:
                want = ref.weak_valley_paths(n)[n]
            return None if rows == want else "rows differ from the reference"

        return check

    for class_spec, stats, n in TABLES:
        fmt = rng.choice(("text", "csv", "json"))
        argv = ["table", "--class", class_spec, "--stats", stats, "--n", str(n), "--format", fmt]
        job.ops.append(_cli_op(job, cli, f"table {class_spec}", argv, table_check(class_spec, stats, n, fmt)))
    return job


# ---------------------------------------------------------------------------
# maps


def random_involution(rng: random.Random, n: int) -> list[int]:
    values = rng.sample(range(1, n + 1), n)
    word = list(range(1, n + 1))
    for k in range(n // 3):
        a, b = values[2 * k], values[2 * k + 1]
        word[a - 1], word[b - 1] = b, a
    return word


def random_motzkin(rng: random.Random, n: int) -> str:
    steps, h = [], 0
    for i in range(n):
        rest = n - i - 1
        choices = [s for s, h2 in (("U", h + 1), ("D", h - 1), ("H", h)) if 0 <= h2 <= rest]
        step = rng.choice(choices)
        h += {"U": 1, "D": -1, "H": 0}[step]
        steps.append(step)
    return "".join(steps)


def _history_shape(p, h) -> str | None:
    if str(h.word) != ref.run_steps(p):
        return "step word does not match the ascending runs"
    for step, label, height in zip(str(h.word), h.labels, ref.heights(str(h.word))):
        if not 0 <= label <= (height - 1 if step == "T" else height):
            return "label exceeds its bound"
    return None


def _psi_shape(p, path) -> str | None:
    """H at fixed points, U at openers, D at closers; the closer of (j, i)
    is labeled with the number of cycles (x, y) with j < x < i < y."""
    word = str(path.word)
    pairs = [(i, v) for i, v in enumerate(p, start=1) if i < v]
    labels = []
    for i, v in enumerate(p, start=1):
        expected = "H" if v == i else "U" if v > i else "D"
        if word[i - 1] != expected:
            return f"step {i} is {word[i - 1]}, expected {expected}"
        if v < i:
            labels.append(sum(1 for x, y in pairs if v < x < i < y))
    return None if tuple(labels) == tuple(path.labels) else "crossing labels differ"


def maps_job(seed: int) -> Job:
    from motzkinperm import bijections as bij
    from motzkinperm.errors import BoundExceededError
    from motzkinperm.paths import LabeledMotzkinPath, LaguerreHistory, MotzkinWord
    from motzkinperm.permutations import Permutation

    rng = random.Random(seed)
    job = Job(is_refusal=lambda exc: isinstance(exc, BoundExceededError))
    got: dict[str, object] = {}
    groups: list[list[Op]] = []

    def op(key, call, check, may_refuse=False) -> Op:
        def run():
            got[key] = call()
            return got[key]

        return Op(key, run, check, may_refuse)

    for i, n in enumerate(PERM_SIZES + INVERSE_SIZES):
        p = Permutation(rng.sample(range(1, n + 1), n))
        key = f"perm{i}"
        group = [op(f"{key} gamma", lambda p=p: bij.perm_to_history(p), lambda h, p=p: _history_shape(p, h))]
        if n <= 8:
            group.append(op(f"{key} gamma-inv", lambda k=key: bij.history_to_perm(got[f"{k} gamma"]),
                            lambda q, p=p: None if q == p else "round trip differs"))
        groups.append(group)
    for i, text in enumerate(REFUSED_HISTORIES):
        h = LaguerreHistory.parse(text)

        def back(q, h=h):
            return None if bij.perm_to_history(q) == h else "round trip differs"

        groups.append([op(f"history{i} gamma-inv", lambda h=h: bij.history_to_perm(h), back, may_refuse=True)])
    for i, n in enumerate(INVOLUTION_SIZES):
        p = Permutation(random_involution(rng, n))
        cycles = ref.standard_cycles(p)
        key = f"inv{i}"

        def foata_check(q, cycles=cycles):
            if tuple(q) != tuple(v for c in cycles for v in c):
                return "image differs from the concatenated standard cycle form"
            if ref.contains_1_32(q) or ref.contains_1_23(q):
                return "image contains 1_32 or 1_23"
            return None

        groups.append([
            op(f"{key} psi", lambda p=p: bij.involution_to_path(p), lambda m, p=p: _psi_shape(p, m)),
            op(f"{key} psi-inv", lambda k=key: bij.path_to_involution(got[f"{k} psi"]),
               lambda q, p=p: None if q == p else "round trip differs"),
            op(f"{key} foata", lambda p=p: bij.foata_of(p), foata_check),
            op(f"{key} foata-inv", lambda k=key: bij.foata_inverse(got[f"{k} foata"]),
               lambda c, cycles=cycles: None if tuple(c) == cycles else "cycles differ from the standard form"),
        ])
    for i, n in enumerate(PATH_SIZES):
        word = random_motzkin(rng, n)
        d_heights = [h for s, h in zip(word, ref.heights(word)) if s == "D"]
        path = LabeledMotzkinPath(MotzkinWord(word), tuple(rng.randint(0, h) for h in d_heights))
        key = f"path{i}"
        groups.append([
            op(f"{key} psi-inv", lambda m=path: bij.path_to_involution(m),
               lambda q, m=path: _psi_shape(q, m) if all(q[v - 1] == i for i, v in enumerate(q, 1)) else "not an involution"),
            op(f"{key} psi", lambda k=key: bij.involution_to_path(got[f"{k} psi-inv"]),
               lambda m2, m=path: None if m2 == m else "round trip differs"),
        ])
    for i, n in enumerate(WORD_SIZES):
        word = MotzkinWord(random_motzkin(rng, n))
        key = f"word{i}"

        def image_check(q, n=n):
            if sorted(q) != list(range(1, n + 1)):
                return "image is not a permutation"
            if ref.contains_132(q) or ref.contains_consecutive_123(q):
                return "image contains 132 or consecutive 123"
            return None

        def history_check(h, w=word, k=key):
            if str(h.word) != str(w) or any(h.labels):
                return "history of the image is not (word, zero labels)"
            return _history_shape(got[f"{k} motzkin-to-perm"], h)

        groups.append([
            op(f"{key} motzkin-to-perm", lambda w=word: bij.motzkin_to_perm(w), image_check),
            op(f"{key} gamma", lambda k=key: bij.perm_to_history(got[f"{k} motzkin-to-perm"]), history_check),
        ])
    rng.shuffle(groups)
    job.ops = [o for group in groups for o in group]
    return job


WORKLOADS = {"gf": gf_job, "verify": verify_job, "maps": maps_job}
