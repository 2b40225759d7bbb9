import inspect
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from motzkinperm import checks, permutations
from motzkinperm.cli import main
from motzkinperm.permutations import ENUMERATION_BOUND, SERIES_ORDER_BOUND


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_map_gamma(capsys):
    code, out, _ = run(capsys, "map", "--via", "gamma", "8 2 6 9 1 3 5 4 7")
    assert code == 0
    assert out.strip() == "UUTUDTDHD | l=0,0,1,2,1,0,1,0,0"


def test_map_gamma_inverse(capsys):
    code, out, _ = run(capsys, "map", "--via", "gamma-inv", "UUTUDTDHD | l=0,0,1,2,1,0,1,0,0")
    assert code == 0
    assert out.strip() == "8 2 6 9 1 3 5 4 7"


def test_map_gamma_inverse_size_12(capsys):
    code, out, _ = run(
        capsys, "map", "--via", "gamma-inv", "UDUDUDUDUDUD | l=0,0,0,0,0,0,0,0,0,0,0,0"
    )
    assert code == 0
    assert out.strip() == "11 12 9 10 7 8 5 6 3 4 1 2"


def test_map_has_no_bound_option():
    with pytest.raises(SystemExit) as exc:
        main(["map", "--via", "gamma-inv", "--bound", "9", "HD | l=0,0"])
    assert exc.value.code == 2


def test_map_psi(capsys):
    code, out, _ = run(capsys, "map", "--via", "psi", "6 5 3 8 2 1 7 4")
    assert code == 0
    assert out.strip() == "UUHUD1D1HD0"


def test_map_psi_inverse(capsys):
    code, out, _ = run(capsys, "map", "--via", "psi-inv", "UUHUD1D1HD0")
    assert code == 0
    assert out.strip() == "6 5 3 8 2 1 7 4"


def test_map_foata_both_ways(capsys):
    code, out, _ = run(capsys, "map", "--via", "foata", "(6)(5,8)(3)(2,7)(1,4)")
    assert code == 0 and out.strip() == "6 5 8 3 2 7 1 4"
    code, out, _ = run(capsys, "map", "--via", "foata-inv", "65832714")
    assert code == 0 and out.strip() == "(6)(5,8)(3)(2,7)(1,4)"


def test_map_restricted_inverse(capsys):
    code, out, _ = run(capsys, "map", "--via", "gamma-inv-restricted", "UUUDDUHDDUD")
    assert code == 0
    assert out.strip() == "10 11 7 6 8 3 4 2 5 1 9"


def test_map_json_format(capsys):
    code, out, _ = run(capsys, "map", "--via", "psi", "--format", "json", "2 1")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "via": "psi",
        "input": "2 1",
        "image": "UD0",
        "path": {"steps": "UD", "labels": [0]},
    }


#: One input per ``map --via`` verb, foata with both of its forms, with the
#: image printed and, for a path-valued image, the path of its JSON form.
MAP_EXAMPLES = [
    ("gamma", " 2 1 ", "HH | l=0,0", {"steps": "HH", "labels": [0, 0]}),
    ("gamma-inv", "UUTUDTDHD | l=0,0,1,2,1,0,1,0,0", "8 2 6 9 1 3 5 4 7", None),
    ("psi", "6 5 3 8 2 1 7 4", "UUHUD1D1HD0", {"steps": "UUHUDDHD", "labels": [1, 1, 0]}),
    ("psi-inv", "UUHUD1D1HD0", "6 5 3 8 2 1 7 4", None),
    ("foata", "(6)(5,8)(3)(2,7)(1,4)", "6 5 8 3 2 7 1 4", None),
    ("foata", " 4 7 3 1 8 6 2 5", "6 5 8 3 2 7 1 4", None),
    ("foata-inv", "65832714", "(6)(5,8)(3)(2,7)(1,4)", None),
    ("gamma-inv-restricted", " UUUDDUHDDUD ", "10 11 7 6 8 3 4 2 5 1 9", None),
]


@pytest.mark.parametrize("via, text, image, path", MAP_EXAMPLES)
def test_every_map_verb_in_text_and_json(capsys, via, text, image, path):
    assert run(capsys, "map", "--via", via, text) == (0, image + "\n", "")
    code, out, err = run(capsys, "map", "--via", via, "--format", "json", text)
    payload = {"via": via, "input": text.strip(), "image": image}
    assert (code, json.loads(out), err) == (0, {**payload, **({"path": path} if path else {})}, "")


def test_map_parse_error_is_usage(capsys):
    for via, text, message in [
        ("gamma", "not a permutation", "cannot parse permutation from 'not a permutation'"),
        ("gamma", "1,x", "cannot parse permutation from '1,x'"),
        ("gamma", "²", "cannot parse permutation from '²'"),
        ("psi-inv", "UD²", "invalid step '²' at position 3 in 'UD²'"),
        ("psi-inv", "UUDD", "missing label on D at position 3 in 'UUDD'"),
        ("foata", "(1,)", "cannot parse cycle form from '(1,)'"),
        ("foata", "()", "cannot parse cycle form from '()'"),
        ("gamma-inv", "UD | l=0,x", "cannot parse history from 'UD | l=0,x'"),
        ("gamma-inv", "UD | l=0,,0", "cannot parse history from 'UD | l=0,,0'"),
        ("gamma-inv", "UD | l=0,0,", "cannot parse history from 'UD | l=0,0,'"),
        ("psi", "x", "cannot parse permutation from 'x'"),
        ("foata-inv", "x", "cannot parse permutation from 'x'"),
        ("foata-inv", "132", "1 3 2 contains the vincular pattern 1_32"),
        ("gamma-inv-restricted", " UDT ", "invalid step 'T' at position 3 in 'UDT'"),
    ]:
        code, _, err = run(capsys, "map", "--via", via, text)
        assert (code, err) == (2, f"error: {message}\n"), text


def test_map_non_involution_is_usage(capsys):
    code, _, err = run(capsys, "map", "--via", "psi", "2 3 1")
    assert code == 2
    assert "involution" in err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "diagram", "--nmax", "4")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize(
    "suite",
    [["bijection"], ["diagram"], ["cluster", "--S", "HU,DU"]],
    ids=["bijection", "diagram", "cluster-S"],
)
def test_verify_refuses_nmax_past_bound_at_once(capsys, suite):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", *suite, "--nmax", str(ENUMERATION_BOUND + 1))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "refused" in err


@pytest.mark.parametrize("suite", ["bijection", "diagram"])
def test_verify_refuses_all_permutation_suites_past_their_ceiling(capsys, suite):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", suite, "--nmax", "10")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "refused" in err


def test_verify_refuses_random_sets_past_their_ceiling_at_once(capsys):
    # at the largest accepted --N and --nmax, 10 million families would take hours
    start = time.perf_counter()
    code, out, err = run(
        capsys, "verify", "cluster", "--random-sets", "10000000", "--N", str(SERIES_ORDER_BOUND),
        "--nmax", str(ENUMERATION_BOUND),
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err == (
        "refused: verify cluster --random-sets at n=10000000 refused: "
        f"exceeds the bound {checks.RANDOM_SETS_BOUND}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--S", "HU,DU", "--nmax", "-1", "--N", "3"],
        ["cluster", "--S", "HU,DU", "--N", "-1"],
        ["counting", "--nmax", "-1"],
        ["genfun", "--N", "-2"],
        ["cluster", "--random-sets", "-1", "--nmax", "3", "--N", "3"],
    ],
    ids=["cluster-S-nmax", "cluster-S-N", "counting-nmax", "genfun-N", "cluster-random-sets"],
)
def test_verify_rejects_negative_sizes(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert "non-negative" in err


@pytest.mark.parametrize("source", [["--name", "f123_inv"], ["--name", "cluster", "--S", "HU,DU"]],
                         ids=["named", "cluster"])
@pytest.mark.parametrize("evaluate", [[], ["--eval", "t=1,z=1"]], ids=["series", "eval"])
def test_gf_rejects_negative_order(capsys, source, evaluate):
    code, out, err = run(capsys, "gf", *source, "--N", "-1", *evaluate)
    assert code == 2
    assert out == ""
    assert err == "error: truncation order must be non-negative\n"


@pytest.mark.parametrize(
    "flags, expected",
    [
        ([], {"order": 12, "nmax": 10}),
        (["--nmax", "0"], {"order": 12, "nmax": 0}),
        (["--N", "0"], {"order": 0, "nmax": 10}),
        (["--nmax", "0", "--N", "0"], {"order": 0, "nmax": 0}),
    ],
    ids=["defaults", "nmax-0", "N-0", "both-0"],
)
def test_verify_cluster_takes_zero_literally(capsys, monkeypatch, flags, expected):
    real = checks.check_cluster_family
    calls = []

    def record(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append({k: bound.arguments[k] for k in ("order", "nmax")})
        return real(*args, **kwargs)

    monkeypatch.setattr(checks, "check_cluster_family", record)
    code, out, _ = run(capsys, "verify", "cluster", "--S", "HU,DU", *flags)
    assert code == 0 and "PASS" in out
    assert calls == [expected]


def test_verify_cluster_passes_seed(capsys, monkeypatch):
    real = checks.random_cluster_specs
    seeds = []

    def record(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        seeds.append(bound.arguments["seed"])
        return real(*args, **kwargs)

    monkeypatch.setattr(checks, "random_cluster_specs", record)
    code, out, _ = run(capsys, "verify", "cluster", "--seed", "5", "--nmax", "5", "--N", "6")
    assert code == 0
    assert out == "verify cluster {'order': 6, 'nmax': 5, 'random_sets': 20, 'seed': 5}: PASS\n"
    assert seeds == [5]


def test_verify_ignores_flags_a_suite_does_not_take(capsys):
    code, out, _ = run(capsys, "verify", "genfun", "--nmax", "4", "--seed", "3", "--N", "6")
    assert code == 0
    assert out == "verify genfun {'order': 6}: PASS\n"


def test_verify_cluster_long_factor_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "verify", "cluster", "--S", "UD" * 10, "--N", "12", "--nmax", "12"
    )
    assert time.perf_counter() - start < 2.0
    assert code == 0 and "PASS" in out


def test_verify_refuses_series_order_past_bound(capsys):
    code, _, err = run(
        capsys, "verify", "genfun", "--nmax", "4", "--N", str(SERIES_ORDER_BOUND + 1)
    )
    assert code == 3
    assert "refused" in err


def test_verify_cluster_with_factors(capsys):
    code, out, _ = run(capsys, "verify", "cluster", "--S", "HU,DU", "--N", "8", "--nmax", "6")
    assert code == 0
    assert "PASS" in out


def test_verify_cluster_rejects_invalid_family(capsys):
    # U is a proper factor of HU: a usage error, as in gf --name cluster
    code, out, err = run(capsys, "verify", "cluster", "--S", "HU,U", "--N", "6")
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("factors", ["", ","])
def test_verify_cluster_rejects_empty_family(capsys, factors):
    # an empty --S is a factor set, not a request for the random-family suite
    code, out, err = run(capsys, "verify", "cluster", "--S", factors, "--N", "6")
    assert code == 2
    assert out == "" and err == "error: empty factor set\n"


def test_verify_cluster_accepts_multi_step_clusters(capsys):
    code, out, _ = run(capsys, "verify", "cluster", "--S", "UU", "--N", "6")
    assert code == 0
    assert out == "verify cluster UU: PASS\n"


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "counting", "--nmax", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["failures"] == []


def test_table_csv(capsys):
    code, out, _ = run(
        capsys, "table", "--class", "I(3412)", "--stats", "inv,des,fix", "--n", "4",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "inv,des,fix,count"
    assert sum(int(line.rsplit(",", 1)[1]) for line in lines[1:]) == 9


def test_table_matches_series(capsys):
    code, out, _ = run(
        capsys, "table", "--class", "S(132,1_23)", "--stats", "coinv,des", "--n", "5",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    from motzkinperm.genfun import coinv_des_gf

    series = coinv_des_gf(5)
    table = {tuple(row["values"]): row["count"] for row in payload["rows"]}
    assert table == series.coefficient(5)


def test_table_empty_size(capsys):
    code, out, _ = run(capsys, "table", "--class", "M", "--stats", "peaks", "--n", "0",
                       "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1] == "0,1"


@pytest.mark.parametrize(
    "class_spec, stat", [("I(3412)", "des"), ("S(132)", "des"), ("M", "peaks")]
)
def test_table_rejects_negative_size(capsys, class_spec, stat):
    code, out, err = run(capsys, "table", "--class", class_spec, "--stats", stat, "--n", "-1")
    assert code == 2
    assert out == ""
    assert "non-negative" in err


def test_table_bound_refusal(capsys):
    code, _, err = run(capsys, "table", "--class", "I(3412)", "--stats", "inv", "--n", "13")
    assert code == 3
    assert "refused" in err


def test_table_has_no_bound_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--class", "S()", "--stats", "inv", "--n", "13", "--bound", "13"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bound 13" in capsys.readouterr().err


def test_table_ignores_bound_environment(capsys, monkeypatch):
    # the ceiling cannot be raised: all of S_13 would take about a day
    monkeypatch.setenv("MOTZKINPERM_BOUND", "13")
    start = time.perf_counter()
    code, out, err = run(capsys, "table", "--class", "S()", "--stats", "inv", "--n", "13")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err == f"refused: oracle for S() at n=13 refused: exceeds the bound {ENUMERATION_BOUND}\n"


def test_table_past_the_walk_budget_is_refused(capsys, monkeypatch):
    # S_5 has 325 nonempty prefixes; the budget is read when a walk starts
    monkeypatch.setattr(permutations, "WALK_BUDGET", 325)
    code, out, _ = run(capsys, "table", "--class", "S()", "--stats", "inv", "--n", "5")
    assert code == 0 and out.endswith("total 120\n")
    monkeypatch.setattr(permutations, "WALK_BUDGET", 324)
    code, out, err = run(capsys, "table", "--class", "S()", "--stats", "inv", "--n", "5")
    assert code == 3
    assert out == ""
    assert err == "refused: class enumeration at n=5 refused: exceeds the bound 324 prefixes\n"


@pytest.mark.parametrize("stats", ["", " , "])
def test_table_without_a_statistic_is_usage(capsys, stats):
    code, out, err = run(capsys, "table", "--class", "M", "--stats", stats, "--n", "3", "--format", "csv")
    assert code == 2
    assert out == ""
    assert err == "error: no statistic to tabulate\n"


def test_table_empty_subword_factor_is_usage(capsys):
    code, out, err = run(capsys, "table", "--class", "M", "--stats", "subword:", "--n", "3")
    assert code == 2
    assert out == ""
    assert "empty factor" in err


@pytest.mark.parametrize("stat", ["subword:XY", "subword:T", "subword:u d", "subword:UDT"])
def test_table_subword_factor_off_the_path_alphabet_is_usage(capsys, stat):
    code, out, err = run(capsys, "table", "--class", "M", "--stats", stat, "--n", "3")
    assert code == 2
    assert out == ""
    assert err == f"error: statistic {stat!r} has a factor with a letter other than U, D, H\n"


def test_table_motzkin_class_takes_no_patterns(capsys):
    code, out, err = run(capsys, "table", "--class", "M(3412)", "--stats", "peaks", "--n", "3")
    assert code == 2
    assert out == "" and err.startswith("error:")
    outputs = {run(capsys, "table", "--class", spec, "--stats", "peaks", "--n", "3")
               for spec in ("M", "M()")}
    assert len(outputs) == 1 and next(iter(outputs))[0] == 0


def test_table_deterministic(capsys):
    args = ("table", "--class", "I(3412)", "--stats", "inv,des", "--n", "5", "--format", "csv")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_gf_motzkin_totals(capsys):
    code, out, _ = run(capsys, "gf", "--name", "f123_inv", "--N", "6", "--eval", "t=1,z=1")
    assert code == 0
    assert json.loads(out) == {
        "0": "1", "1": "1", "2": "2", "3": "4", "4": "9", "5": "21", "6": "51",
    }


@pytest.mark.parametrize("assignment, message", [
    ("z=1/0", "zero denominator"), ("z=1,z=2", "assigns z twice"),
    ("z", "--eval part 'z' is not name=value"), (",", "--eval part '' is not name=value"),
    ("z=1,=2", "--eval part '=2' is not name=value"), ("z=", "--eval part 'z=' is not name=value"),
    ("z=abc", "--eval z=abc is not a rational"),
])
def test_gf_eval_input_error_is_a_usage_error(capsys, assignment, message):
    code, out, err = run(capsys, "gf", "--name", "weak_valley", "--N", "3", "--eval", assignment)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_gf_cluster(capsys):
    code, out, _ = run(
        capsys, "gf", "--name", "cluster", "--S", "HHH,HHU,DHH,DHU", "--N", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["3"] == "t*z^3 + 3*z"


@pytest.mark.parametrize("name", ["inv_des_fix", "cluster"])
def test_gf_refuses_order_past_bound(capsys, name):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "gf", "--name", name, "--S", "HU,DU", "--N", str(SERIES_ORDER_BOUND + 1)
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "refused" in err


def test_gf_accepts_order_at_bound(capsys):
    code, out, _ = run(capsys, "gf", "--name", "f231_perm", "--N", str(SERIES_ORDER_BOUND))
    assert code == 0
    assert str(SERIES_ORDER_BOUND) in json.loads(out)


def test_gf_requires_factors_for_cluster(capsys):
    code, _, err = run(capsys, "gf", "--name", "cluster", "--N", "4")
    assert code == 2
    assert "requires --S" in err


def test_gf_unknown_name(capsys):
    code, _, err = run(capsys, "gf", "--name", "nope", "--N", "4")
    assert code == 2
    assert "unknown generating function" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["map", "--via", "bogus", "1 2 3"])
    assert exc.value.code == 2


def test_main_in_one_process_prints_what_separate_processes_print(capsys):
    commands = [
        ["gf", "--name", "weak_valley", "--N", "5", "--format", "text"],
        ["gf", "--name", "cluster", "--S", "HU,DU", "--N", "4"],
    ]
    in_process = [run(capsys, *commands[0])]
    with pytest.raises(SystemExit) as exc:
        main(["gf", "--N", "5"])  # --name is required
    assert exc.value.code == 2
    capsys.readouterr()
    in_process += [run(capsys, *argv) for argv in (*commands, commands[0])]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    separate = []
    for argv in (commands[0], *commands, commands[0]):
        result = subprocess.run([sys.executable, "-m", "motzkinperm.cli", *argv], env=env,
                                capture_output=True, text=True, timeout=60)
        separate.append((result.returncode, result.stdout, result.stderr))
    assert in_process == separate
    assert in_process[0][0] == 0 and in_process[0][1].startswith("[n=0] 1\n")


def readme_commands() -> list[tuple[list[str], str | None]]:
    """(argv, printed output or None) for each ``motzkinperm`` line of the
    README's command-line block; the indented lines under a command are
    the output it prints."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    commands: list[tuple[list[str], str | None]] = []
    for line in block.splitlines():
        if line.startswith("motzkinperm "):
            commands.append((shlex.split(line)[1:], None))
        elif line.startswith("    "):
            argv, shown = commands[-1]
            commands[-1] = (argv, (shown or "") + line.strip() + "\n")
    return commands


def test_readme_command_line_block_runs(capsys):
    commands = readme_commands()
    assert len(commands) == 12
    assert [shown is not None for argv, shown in commands] == [argv[0] == "map" for argv, _ in commands]
    for argv, shown in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0, f"{shlex.join(argv)} exited {code}: {err}"
        if shown is not None:
            assert out == shown, shlex.join(argv)
