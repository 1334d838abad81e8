"""Command-line behavior: schemas, determinism, exit codes."""
import json

import numpy as np
import pytest

from invsemifft.cli import (EXIT_CAP, EXIT_CAPABILITY, EXIT_OK, EXIT_PARSE,
                            main, parse_args)
from invsemifft.errors import ContractError
from invsemifft.semigroup_fourier import (fft, function_from_json,
                                          function_to_json, induce,
                                          spectrum_from_json, spectrum_to_json)

from conftest import make_structure, random_function


def write_function(path, S, f):
    with open(path, "w") as fh:
        json.dump(function_to_json(f), fh)


def test_parse_args():
    cfg = parse_args(["fft", "--family", "rook", "--n", "3",
                      "--in", "a.json", "--out", "b.json", "--seed", "9"])
    assert cfg.command == "fft" and cfg.family == "rook" and cfg.n == 3
    assert cfg.in_path == "a.json" and cfg.out_path == "b.json"
    assert cfg.seed == 9 and cfg.threads == 1


def test_build_and_families(capsys):
    assert main(["build", "--family", "rook", "--n", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "|S|=34" in out
    assert main(["families"]) == EXIT_OK
    out = capsys.readouterr().out
    for fam in ("rook", "planar_rook", "rotation", "chain"):
        assert fam in out


def test_fft_ifft_file_round_trip(tmp_path, rng):
    S = make_structure("cyclic_shift", 3)
    f = random_function(S, rng)
    src = tmp_path / "f.json"
    spec = tmp_path / "spec.json"
    back = tmp_path / "back.json"
    write_function(src, S, f)
    args = ["--family", "cyclic_shift", "--n", "3"]
    assert main(["fft", *args, "--in", str(src), "--out", str(spec)]) == EXIT_OK
    assert main(["ifft", *args, "--in", str(spec), "--out", str(back)]) == EXIT_OK
    recovered = function_from_json(S, json.loads(back.read_text()))
    assert np.abs(recovered.values - f.values).max() < 1e-9


def test_fft_deterministic_bytes(tmp_path, rng):
    S = make_structure("rook", 2)
    f = random_function(S, rng)
    src = tmp_path / "f.json"
    write_function(src, S, f)
    outs = []
    for threads, name in ((1, "a.json"), (4, "b.json")):
        out = tmp_path / name
        assert main(["fft", "--family", "rook", "--n", "2",
                     "--threads", str(threads),
                     "--in", str(src), "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_convolve_unit(tmp_path):
    S = make_structure("rook", 2)
    from invsemifft.elements import identity_map
    from invsemifft.structure import SEMIGROUP, FunctionOnS
    unit = np.zeros(len(S))
    unit[S.id_of(identity_map(2))] = 1.0
    f = FunctionOnS(S, SEMIGROUP, unit)
    g = random_function(S, np.random.default_rng(7))
    fp, gp, op = (tmp_path / x for x in ("f.json", "g.json", "o.json"))
    write_function(fp, S, f)
    write_function(gp, S, g)
    assert main(["convolve", "--family", "rook", "--n", "2", "--in", str(fp),
                 "--g-in", str(gp), "--out", str(op)]) == EXIT_OK
    out = function_from_json(S, json.loads(op.read_text()))
    assert np.abs(out.values - g.values).max() < 1e-9


def test_verify_writes_report(tmp_path):
    report = tmp_path / "report.json"
    assert main(["verify", "--family", "rotation", "--n", "3", "--seed", "7",
                 "--out", str(report)]) == EXIT_OK
    data = json.loads(report.read_text())
    assert data["status"] == "pass"
    names = {c["name"] for c in data["checks"]}
    assert {"element_count", "dimension_identity", "round_trip"} <= names
    text = (tmp_path / "report.json.txt").read_text()
    assert "overall: PASS" in text


def test_verify_seed_determinism(tmp_path):
    paths = []
    for name in ("r1.json", "r2.json"):
        p = tmp_path / name
        main(["verify", "--family", "rook", "--n", "2", "--seed", "11",
              "--out", str(p)])
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--family", "planar_rook", "--n", "4",
                 "--out", str(out)]) == EXIT_OK
    rows = out.read_text().strip().splitlines()
    assert rows[0].split(",") == ["family", "n", "size", "transform",
                                  "additions", "multiplications",
                                  "wall_seconds"]
    assert len(rows) > 4
    # header, then a zeta and an fft row for each n = 1..4
    assert len(rows) == 1 + 2 * 4
    assert [r.split(",")[3] for r in rows[1:]] == \
        ["zeta+inverse", "fft+inverse"] * 4


def test_exit_codes(tmp_path):
    # size cap
    assert main(["build", "--family", "rook", "--n", "3",
                 "--cap", "10"]) == EXIT_CAP
    # missing input file
    assert main(["fft", "--family", "rook", "--n", "2",
                 "--in", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "o.json")]) == EXIT_PARSE
    # malformed json
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["fft", "--family", "rook", "--n", "2", "--in", str(bad),
                 "--out", str(tmp_path / "o.json")]) == EXIT_PARSE
    # non-abelian labels have no built-in representations
    f = tmp_path / "w.json"
    f.write_text(json.dumps({"family": "wreath_rook", "n": 1,
                             "basis": "semigroup", "values": {"#": [1, 0]}}))
    assert main(["fft", "--family", "wreath_rook", "--n", "1",
                 "--label-group", "S3", "--in", str(f),
                 "--out", str(tmp_path / "o.json")]) == EXIT_CAPABILITY


def test_unknown_label_group():
    assert main(["build", "--family", "wreath_rook", "--n", "2",
                 "--label-group", "Q8"]) == EXIT_PARSE


# edit -> (what it replaces: one value, the values, the document; with what)
BAD_FUNCTION_FILES = {
    "nan": ("value", [1.0, float("nan")]),
    "inf": ("value", [1.0, float("inf")]),
    "string": ("value", ["a", 0]),
    "null": ("value", [None, 0]),
    "scalar": ("value", 5),
    "values_list": ("values", [1, 2]),
    "document_list": ("document", [1, 2]),
}


@pytest.mark.parametrize("edit", list(BAD_FUNCTION_FILES))
def test_non_finite_function_rejected(tmp_path, edit):
    S = make_structure("rook", 2)
    data = function_to_json(random_function(S, np.random.default_rng(8)))
    where, bad = BAD_FUNCTION_FILES[edit]
    if where == "value":
        data["values"]["#"] = bad
    elif where == "values":
        data["values"] = bad
    else:
        data = bad
    with pytest.raises(ContractError):
        function_from_json(S, data)
    src, out = tmp_path / "f.json", tmp_path / "spec.json"
    src.write_text(json.dumps(data))
    assert main(["fft", "--family", "rook", "--n", "2", "--in", str(src),
                 "--out", str(out)]) == EXIT_PARSE
    assert not out.exists()


@pytest.mark.parametrize("edit", ["nan", "inf", "rows", "cols", "string",
                                  "block_list", "document_list"])
def test_bad_spectrum_rejected(tmp_path, edit):
    S = make_structure("rook", 2)
    Y = induce(S)
    data = spectrum_to_json(fft(random_function(S, np.random.default_rng(9)), Y))
    pos, blk = next((p, b) for p, b in enumerate(data["blocks"])
                    if len(b["rows"]) > 1)
    if edit == "nan":
        blk["data"][0] = float("nan")
    elif edit == "inf":
        blk["data"][1] = float("-inf")
    elif edit == "string":
        blk["data"][2] = "a"
    elif edit == "block_list":
        data["blocks"][pos] = [1, 2]
    elif edit == "document_list":
        data = [1, 2]
    else:
        blk[edit] = blk[edit][::-1]
    with pytest.raises(ContractError):
        spectrum_from_json(Y, data)
    src, out = tmp_path / "spec.json", tmp_path / "back.json"
    src.write_text(json.dumps(data))
    assert main(["ifft", "--family", "rook", "--n", "2", "--in", str(src),
                 "--out", str(out)]) == EXIT_PARSE
    assert not out.exists()
