import json
import time

import pytest

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


def test_map_parse_error_is_usage(capsys):
    code, _, err = run(capsys, "map", "--via", "gamma", "not a permutation")
    assert code == 2
    assert "error" in err


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
    code, out, _ = run(capsys, "verify", "cluster", "--S", "UU", "--N", "6")
    assert code == 1
    assert "FAIL" in out


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


def test_table_bound_refusal(capsys):
    code, _, err = run(capsys, "table", "--class", "I(3412)", "--stats", "inv", "--n", "13")
    assert code == 3
    assert "refused" in err


def test_table_bound_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("MOTZKINPERM_BOUND", "3")
    code, _, err = run(capsys, "table", "--class", "M", "--stats", "peaks", "--n", "4")
    assert code == 3
    assert "refused" in err


def test_table_bad_bound_environment_is_usage(capsys, monkeypatch):
    monkeypatch.setenv("MOTZKINPERM_BOUND", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["table", "--class", "M", "--stats", "peaks", "--n", "3"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


def test_table_empty_subword_factor_is_usage(capsys):
    code, out, err = run(capsys, "table", "--class", "M", "--stats", "subword:", "--n", "3")
    assert code == 2
    assert out == ""
    assert "empty factor" in err


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
