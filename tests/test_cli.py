import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import rkdist
from rkdist import core, make_profile, product
from rkdist.catalog import chain_profile, get
from rkdist.cli import ORACLE_BUDGET, _build_parser, run
from rkdist.core import MAX_VERTICES
from rkdist.enumeration import enumerate_profiles
from rkdist.io import serialize

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def files(tmp_path):
    def write(name, profile):
        path = tmp_path / f"{name}.rkp"
        path.write_bytes(serialize(profile))
        return str(path)

    return {
        "fig1a": write("fig1a", get("fig1a")),
        "fig1b.1": write("fig1b1", get("fig1b.1")),
        "fig1b.3": write("fig1b3", get("fig1b.3")),
        "fig2.2": write("fig22", get("fig2.2")),
        "tmp": tmp_path,
    }


def test_report_fig1a(files):
    out, err, code = run(["report", files["fig1a"]])
    assert code == 0 and err == b""
    assert out.decode().splitlines() == [
        "3 = 2 + 1",
        "class a size 1 il 0",
        "class b size 1 il 1",
    ]


def test_product_then_report(files):
    target = str(files["tmp"] / "prod.rkp")
    out, err, code = run(["product", files["fig1a"], files["fig1b.1"], "-o", target])
    assert code == 0 and out == b""
    out, err, code = run(["report", target])
    assert code == 0
    assert out.decode().splitlines()[0] == "12 = 4 + 8"


def test_product_to_stdout_parses(files):
    out, err, code = run(["product", files["fig1a"], files["fig1b.1"]])
    assert code == 0
    assert out.startswith(b"rkp 1\n")


def test_report_with_factors(files):
    target = str(files["tmp"] / "prod.rkp")
    run(["product", files["fig1a"], files["fig1b.1"], "-o", target])
    out, err, code = run(
        ["report", target, "--factor", files["fig1a"], "--factor", files["fig1b.1"]]
    )
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0] == "3·4=4+8=2·2+(0+1+2+5)"
    assert lines[1:] == [
        "term a,a size 1 il 0",
        "term a,b size 1 il 2",
        "term b,a size 1 il 1",
        "term b,b size 1 il 5",
    ]


def test_report_factor_mismatch_exits_1(files):
    out, err, code = run(["report", files["fig1a"], "--factor", files["fig1b.1"]])
    assert code == 1
    assert b"error" in err


def test_validate_passing(files):
    out, err, code = run(["validate", files["fig1a"]])
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0] == "V1 pass least class a"
    assert lines[5].startswith("V6 pass") and "(informational)" in lines[5]


def test_validate_failing_exits_1(tmp_path):
    bad = tmp_path / "bad.rkp"
    bad.write_bytes(b"rkp 1\nvertex a\nvertex b\nle a b\nil a 0\nil b 0\n")
    out, err, code = run(["validate", str(bad)])
    assert code == 1
    assert "V4 fail greatest class b has limit count 0" in out.decode()


def test_validate_names_failing_class(tmp_path):
    bad = tmp_path / "bad.rkp"
    bad.write_bytes(
        b"rkp 1\nvertex a\nvertex b\nvertex c\nle a b\nle a c\nil a 0\nil b 1\nil c 1\n"
    )
    out, err, code = run(["validate", str(bad)])
    assert code == 1
    assert "V3 fail no unique greatest class (maximal: b, c)" in out.decode()


def test_oracle_subcommand(files):
    out, err, code = run(["oracle", files["fig1a"], files["fig1b.1"]])
    assert code == 0
    assert out.decode().splitlines() == [
        "pareto 12 = 4 + 8",
        "oracle 12 = 4 + 8",
        "isomorphic",
    ]


def test_render_dot_and_ascii(files):
    out, err, code = run(["render", files["fig1a"], "--format", "dot"])
    assert code == 0 and out.startswith(b"digraph rk {")
    out, err, code = run(["render", files["fig1b.3"], "--format", "ascii"])
    assert code == 0
    assert out == b"c(1,1)\nb(1,0)\na(1,0)\n"


def test_catalog_list_golden():
    out, err, code = run(["catalog", "list"])
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[:4] == ["fig1a", "fig1b.1", "fig1b.2", "fig1b.3"]
    assert "diamond4" in lines
    assert "param.ex11 k m" in lines
    assert "param.chain2 k" in lines


def test_catalog_show(files):
    out, err, code = run(["catalog", "show", "fig1a"])
    assert code == 0
    assert out == serialize(get("fig1a"))


def test_catalog_show_with_params(files):
    out, err, code = run(["catalog", "show", "param.ex11", "--param", "k=2", "--param", "m=3"])
    assert code == 0
    assert out.startswith(b"rkp 1\n")
    out2, err, code = run(["report", "-"], stdin=out)
    assert code == 0
    assert out2.decode().splitlines()[0] == "25 = 6 + 19"


def test_catalog_errors_exit_2():
    for argv in (
        ["catalog", "show", "nope"],
        ["catalog", "show", "param.ex11", "--param", "k=1"],
        ["catalog", "show", "param.ex11", "--param", "k=1", "--param", "m=1", "--param", "q=2"],
        ["catalog", "show", "param.chain2", "--param", "k=0"],
        ["catalog", "show", "param.chain2", "--param", "k=x"],
    ):
        out, err, code = run(argv)
        assert code == 2, argv
        assert err != b"", argv


def test_enumerate_output_shape():
    out, err, code = run(["enumerate", "--total", "5"])
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0] == "8"
    assert lines.count("---") == 7
    out2, _, _ = run(["enumerate", "--total", "5"])
    assert out == out2


def test_enumerate_frames_its_documents():
    # The count line, then the documents with a "---" line between each two.
    assert run(["enumerate", "--total", "2"]) == (b"0\n", b"", 0)
    (one,) = enumerate_profiles(3).profiles
    assert run(["enumerate", "--total", "3"]) == (b"1\n" + one.canonical_text, b"", 0)
    texts = [cf.canonical_text for cf in enumerate_profiles(5).profiles]
    assert len(texts) == 8
    assert run(["enumerate", "--total", "5"]) == (b"8\n" + b"---\n".join(texts), b"", 0)


def test_enumerate_max_vertices():
    out, err, code = run(["enumerate", "--total", "5", "--max-vertices", "2"])
    assert code == 0
    assert out.decode().splitlines()[0] == "1"


def test_enumerate_invalid_total_exits_2():
    out, err, code = run(["enumerate", "--total", "1"])
    assert code == 2 and b"error" in err


def test_check_lattice_and_boolean(files):
    out, err, code = run(["check", files["fig1a"], "--lattice"])
    assert (code, out) == (0, b"true\n")
    out, err, code = run(["check", files["fig1b.3"], "--boolean"])
    assert (code, out) == (1, b"false\n")
    target = str(files["tmp"] / "prod.rkp")
    run(["product", files["fig1a"], files["fig1b.1"], "-o", target])
    out, err, code = run(["check", target, "--boolean"])
    assert (code, out) == (0, b"true\n")
    # A bottom, two classes below two others, and a top: b and c have no join.
    names = ["a", "b", "c", "d", "e", "f"]
    pairs = [("a", "b"), ("a", "c"), ("b", "d"), ("b", "e"), ("c", "d"), ("c", "e")]
    pairs += [("d", "f"), ("e", "f")]
    bowtie = files["tmp"] / "bowtie.rkp"
    bowtie.write_bytes(serialize(make_profile(names, pairs, {v: int(v == "f") for v in names})))
    assert run(["check", str(bowtie), "--lattice"]) == (b"false\n", b"", 1)
    assert run(["check", str(bowtie), "--boolean"]) == (b"false\n", b"not a lattice\n", 1)


def test_product_into_a_directory_exits_2(files):
    target = str(files["tmp"])
    out, err, code = run(["product", files["fig1a"], files["fig1b.1"], "-o", target])
    assert (out, code) == (b"", 2)
    assert err.startswith(f"error: cannot write {target}: ".encode())


def test_check_monotone_always_exits_0(files):
    out, err, code = run(["check", files["fig1a"], "--monotone"])
    assert (code, out) == (0, b"size=weak limit=strict\n")
    out, err, code = run(["check", files["fig1b.3"], "--monotone"])
    assert (code, out) == (0, b"size=weak limit=weak\n")


def test_iso_exit_codes(files):
    out, err, code = run(["iso", files["fig1a"], files["fig1a"]])
    assert (code, out) == (0, b"isomorphic\n")
    out, err, code = run(["iso", files["fig1a"], files["fig1b.1"]])
    assert (code, out) == (1, b"not isomorphic\n")


def test_usage_errors_exit_2(files):
    for argv in (
        [],
        ["bogus"],
        ["report"],
        ["report", "/no/such/file.rkp"],
        ["render", files["fig1a"], "--format", "png"],
        ["check", files["fig1a"]],
        ["check", files["fig1a"], "--lattice", "--boolean"],
    ):
        out, err, code = run(argv)
        assert code == 2, argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "a\x00b"], b"error: cannot read a\x00b: embedded null byte\n"),
        (["iso", "FIG1A", "a\x00"], b"error: cannot read a\x00: embedded null byte\n"),
        (
            ["catalog", "show", "fig1a", "-o", "x\x00y"],
            b"error: cannot write x\x00y: embedded null byte\n",
        ),
    ],
)
def test_path_with_nul_byte_exits_2(files, argv, message):
    argv = [files["fig1a"] if word == "FIG1A" else word for word in argv]
    out, err, code = run(argv)
    assert (out, err, code) == (b"", message, 2)


def test_path_not_valid_utf8_exits_2(tmp_path):
    # The command line hands such bytes over as lone surrogates; they go back out as bytes.
    path = str(tmp_path / "a\udcffb.rkp")
    out, err, code = run(["validate", path])
    assert (out, code) == (b"", 2)
    assert err.startswith(b"error: cannot read ") and b"a\xffb.rkp" in err


@pytest.mark.parametrize(
    "argv, leftover",
    [
        (["report", "list", "a\udcffb"], b"a\xffb"),
        (["iso", "x", "y", "z\udcff"], b"z\xff"),
        (["report", "2", "--\udcff"], b"--\xff"),
    ],
    ids=["report-list", "iso", "report-option"],
)
def test_unrecognized_argument_not_valid_utf8_exits_2(argv, leftover):
    usage = _build_parser().format_usage().encode()
    message = b"rkdist: error: unrecognized arguments: " + leftover + b"\n"
    assert run(argv) == (b"", usage + message, 2)


def test_python_m_rkdist_writes_back_an_argument_not_valid_utf8():
    pipes = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with _python_m_rkdist([b"iso", b"x", b"y", b"z\xff"], **pipes) as proc:
        out, err = proc.communicate(timeout=60)
    assert (out, proc.returncode) == (b"", 2)
    assert err.endswith(b"\nrkdist: error: unrecognized arguments: z\xff\n")


def test_concurrent_runs_keep_their_own_messages():
    names = [f"x{i}" for i in range(6)]
    results = {name: [] for name in names}

    def work(name):
        for _ in range(200):
            results[name].append(run(["enumerate", "--total", name]))

    threads = [threading.Thread(target=work, args=(name,)) for name in names]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for name in names:
        assert len(results[name]) == 200
        for out, err, code in results[name]:
            assert (out, code) == (b"", 2)
            assert err.endswith(f"error: argument --total: expected an integer, got '{name}'\n".encode())
            assert [other for other in names if other.encode() in err] == [name]


def test_usage_error_leaves_sys_streams_alone():
    stdout, stderr = sys.stdout, sys.stderr
    out, err, code = run(["enumerate", "--total", "x"])
    assert code == 2 and err.startswith(b"usage: rkdist enumerate")
    assert run(["--help"])[2] == 0
    assert sys.stdout is stdout and sys.stderr is stderr


def test_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.rkp"
    bad.write_bytes(b"rkp 1\nvertex a\nle a zz\nil a 0\n")
    out, err, code = run(["validate", str(bad)])
    assert code == 2
    assert b"zz" in err


@pytest.mark.parametrize("count", ["\u00b2", "\u0661"])
def test_non_ascii_il_count_exits_2(count):
    out, err, code = run(["validate", "-"], stdin=f"rkp 1\nvertex a\nil a {count}\n".encode())
    assert code == 2 and out == b""
    assert err == b"error: line 3: expected: il NAME COUNT\n"


def test_validate_count_beyond_digit_limit_exits_2(digit_limit):
    doc = f"rkp 1\nvertex a\nil a {'1' * (digit_limit + 700)}\n".encode()
    out, err, code = run(["validate", "-"], doc)
    assert code == 2 and out == b""
    assert err == b"error: line 3: limit count has too many digits\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["product", "{big}", "{big}"],
        ["product", "{big}", "{big}", "-o", "{out}"],
        ["report", "{wide}"],
    ],
)
def test_counts_beyond_digit_limit_exit_2(tmp_path, digit_limit, argv):
    # a product's top class has about twice the digits of the factors' tops
    big = tmp_path / "big.rkp"
    big.write_bytes(f"rkp 1\nvertex a\nvertex b\nle a b\nil a 0\nil b {'1' * 3000}\n".encode())
    # each count fits, their sum does not
    nines = "9" * digit_limit
    wide = tmp_path / "wide.rkp"
    chain = "rkp 1\nvertex a\nvertex b\nvertex c\nle a b\nle b c\nil a 0\n"
    wide.write_bytes(f"{chain}il b {nines}\nil c {nines}\n".encode())
    out_path = tmp_path / "out.rkp"
    out, err, code = run([a.format(big=big, wide=wide, out=out_path) for a in argv])
    assert code == 2 and out == b""
    assert err == f"error: a count has more than {digit_limit} digits, too many to write\n".encode()
    assert not out_path.exists()


def test_catalog_param_beyond_digit_limit_exits_2(digit_limit):
    argv = ["catalog", "show", "param.chain2", "--param", "k=" + "1" * (digit_limit + 700)]
    out, err, code = run(argv)
    assert code == 2 and out == b""
    assert err == b"error: bad --param k=..., the integer has too many digits\n"


@pytest.mark.parametrize("flag", ["--total", "--max-vertices"])
def test_enumerate_number_beyond_digit_limit_exits_2(digit_limit, flag):
    out, err, code = run(["enumerate", "--total", "5", flag, "1" * (digit_limit + 700)])
    assert code == 2 and out == b""
    assert err.endswith(f"error: argument {flag}: the integer has too many digits\n".encode())
    assert b"1111" not in err


@pytest.mark.parametrize("value", ["\u00b2", "\u0661", "--5", "+5", "1_0"])
def test_catalog_param_must_be_ascii_integer_exits_2(value):
    argv = ["catalog", "show", "param.ex11", "--param", f"k={value}", "--param", "m=1"]
    out, err, code = run(argv)
    assert code == 2 and out == b""
    assert err.startswith(b"error: bad --param")


@pytest.mark.parametrize("second", ["k=2", "k=1"])
def test_catalog_param_given_twice_exits_2(second):
    argv = ["catalog", "show", "param.chain2", "--param", "k=1", "--param", second]
    out, err, code = run(argv)
    assert code == 2 and out == b""
    assert err == b"error: --param k is given more than once\n"


def test_enumerate_above_cap_names_no_library_keyword():
    out, err, code = run(["enumerate", "--total", "13"])
    assert code == 2 and out == b""
    assert err == b"error: total 13 exceeds the cap 12\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--total", "5", "--max-vertices", "-3"],
        ["--total", "5", "--max-vertices", "\u0663"],
        ["--total", "\u0665"],
        ["--total", "+5"],
    ],
)
def test_enumerate_bad_numbers_exit_2(argv):
    out, err, code = run(["enumerate", *argv])
    assert code == 2 and out == b""
    assert b"error: argument --" in err


def _profile_errors():
    """ProfileError and every subclass of it that the package defines."""
    found, todo = [], [core.ProfileError]
    while todo:
        error = todo.pop()
        if error.__module__.startswith("rkdist."):
            found.append(error)
        todo += error.__subclasses__()
    return sorted(found, key=lambda error: error.__name__)


@pytest.mark.parametrize("error", _profile_errors(), ids=lambda error: error.__name__)
def test_every_library_error_exits_with_a_message(monkeypatch, files, error):
    def fail(data):
        raise error("injected")

    monkeypatch.setattr(rkdist.io, "parse", fail)
    out, err, code = run(["validate", files["fig1a"]])
    failed_check = issubclass(error, (core.InvalidProfile, product.FactorMismatch))
    assert code == (1 if failed_check else 2) and out == b""
    assert err == b"error: injected\n"


def test_report_on_inadmissible_exits_1(tmp_path):
    bad = tmp_path / "bad.rkp"
    bad.write_bytes(b"rkp 1\nvertex a\nvertex b\nle a b\nil a 0\nil b 0\n")
    out, err, code = run(["report", str(bad)])
    assert code == 1
    assert b"V4" in err


def test_operations_on_inadmissible_exit_1(tmp_path, files):
    bad = tmp_path / "bad.rkp"
    bad.write_bytes(b"rkp 1\nvertex a\nvertex b\nle a b\nil a 0\nil b 0\n")
    for argv in (
        ["iso", str(bad), files["fig1a"]],
        ["oracle", str(bad), files["fig1a"]],
        ["product", str(bad), files["fig1a"]],
        ["check", str(bad), "--lattice"],
        ["render", str(bad), "--format", "dot"],
    ):
        out, err, code = run(argv)
        assert code == 1, argv


def test_stdin_dash(files):
    data = serialize(get("fig1a"))
    out, err, code = run(["report", "-"], stdin=data)
    assert code == 0
    assert out.decode().splitlines()[0] == "3 = 2 + 1"


@pytest.mark.parametrize(
    "argv",
    [
        ["product", "A", "B"],
        ["oracle", "A", "B"],
        ["report", "A", "--factor", "A", "--factor", "B"],
    ],
    ids=["product", "oracle", "report"],
)
def test_product_name_collision_exits_2(tmp_path, argv):
    # (a)*(b*c) and (a*b)*(c) are both named a*b*c
    paths = {"A": tmp_path / "a.rkp", "B": tmp_path / "b.rkp"}
    paths["A"].write_bytes(b"rkp 1\nvertex a\nvertex a*b\nle a a*b\nil a 0\nil a*b 1\n")
    paths["B"].write_bytes(b"rkp 1\nvertex c\nvertex b*c\nle c b*c\nil c 0\nil b*c 1\n")
    out, err, code = run([str(paths.get(arg, arg)) for arg in argv])
    assert code == 2 and out == b""
    assert err == b"error: vertex name collision in product; rename factor vertices\n"


def test_help_exits_0():
    out, err, code = run(["--help"])
    assert code == 0
    assert b"usage" in out.lower()


def test_deterministic_outputs(files):
    for argv in (
        ["report", files["fig1a"]],
        ["validate", files["fig1a"]],
        ["render", files["fig1a"], "--format", "dot"],
        ["catalog", "list"],
    ):
        first = run(argv)
        second = run(argv)
        assert first == second


def golden_cases(files):
    prod = str(files["tmp"] / "prod.rkp")
    run(["product", files["fig1a"], files["fig1b.1"], "-o", prod])
    return [
        ("report_fig1a.txt", ["report", files["fig1a"]]),
        ("report_ex1_product.txt", ["report", prod]),
        (
            "report_ex1_factored.txt",
            ["report", prod, "--factor", files["fig1a"], "--factor", files["fig1b.1"]],
        ),
        ("validate_fig1a.txt", ["validate", files["fig1a"]]),
        ("render_fig1a.dot", ["render", files["fig1a"], "--format", "dot"]),
        ("render_ex1_product.dot", ["render", prod, "--format", "dot"]),
        ("render_fig1b3.txt", ["render", files["fig1b.3"], "--format", "ascii"]),
        ("render_ex1_product.txt", ["render", prod, "--format", "ascii"]),
        ("catalog_list.txt", ["catalog", "list"]),
        ("catalog_show_fig2_8.rkp", ["catalog", "show", "fig2.8"]),
        ("enumerate_total4.txt", ["enumerate", "--total", "4"]),
        ("oracle_ex1.txt", ["oracle", files["fig1a"], files["fig1b.1"]]),
        ("product_ex1.rkp", ["product", files["fig1a"], files["fig1b.1"]]),
    ]


def test_golden_outputs_byte_for_byte(files):
    for name, argv in golden_cases(files):
        out, err, code = run(argv)
        assert code == 0 and err == b"", name
        assert out == (GOLDEN / name).read_bytes(), name


def test_parser_built_once_leaks_no_state_between_runs(files):
    prod = str(files["tmp"] / "prod.rkp")
    run(["product", files["fig1a"], files["fig1b.1"], "-o", prod])
    probes = [
        ["check", files["fig1a"], "--lattice", "--boolean"],
        ["--help"],
        ["report", prod, "--factor", files["fig1a"], "--factor", files["fig1b.1"]],
        ["report", prod],
    ]
    first = [run(argv) for argv in probes]
    assert [code for _, _, code in first] == [2, 0, 0, 0]
    for other in (["validate", files["fig2.2"]], ["enumerate", "--total", "3"], ["bogus"]):
        run(other)
        assert [run(argv) for argv in probes] == first
    assert [run(argv) for argv in reversed(probes)] == first[::-1]


def test_oracle_refuses_over_budget_totals(tmp_path):
    # one token pair per model of the product: about 10**6000 here
    big = tmp_path / "big.rkp"
    big.write_bytes(f"rkp 1\nvertex a\nvertex b\nle a b\nil a 0\nil b {'1' * 3000}\n".encode())
    out, err, code = run(["oracle", str(big), str(big)])
    assert code == 2 and out == b""
    assert err == (
        f"error: the factors' totals multiply to more than {ORACLE_BUDGET}, the oracle's budget\n"
    ).encode()


def test_oracle_runs_at_budget(tmp_path):
    # totals 31 and 32 multiply to 992, just within the budget
    a, b = tmp_path / "a.rkp", tmp_path / "b.rkp"
    a.write_bytes(serialize(get("param.chain2", {"k": 29})))
    b.write_bytes(serialize(get("param.chain2", {"k": 30})))
    assert 31 * 32 <= ORACLE_BUDGET < 32 * 32
    out, err, code = run(["oracle", str(a), str(b)])
    assert (out, err, code) == (b"pareto 992 = 4 + 988\noracle 992 = 4 + 988\nisomorphic\n", b"", 0)
    out, err, code = run(["oracle", str(b), str(b)])
    assert code == 2 and err.startswith(b"error: the factors' totals multiply to more than")


def test_document_over_the_vertex_limit_exits_2(monkeypatch):
    closed = []
    monkeypatch.setattr(core, "_closure_index", closed.append)
    doc = "\n".join(["rkp 1", *(f"vertex v{i}" for i in range(MAX_VERTICES + 1))])
    out, err, code = run(["validate", "-"], doc.encode())
    assert (out, code) == (b"", 2)
    # the header is line 1, so the vertex past the limit is on line MAX_VERTICES + 2
    assert err == f"error: line {MAX_VERTICES + 2}: more than {MAX_VERTICES} vertices\n".encode()
    assert closed == []


@pytest.mark.parametrize("command", ["product", "report --factor"])
def test_product_over_the_vertex_limit_exits_2(tmp_path, monkeypatch, command):
    built = []
    monkeypatch.setattr(product, "_class_index", lambda *args: built.append(args))
    a, b = tmp_path / "a.rkp", tmp_path / "b.rkp"
    a.write_bytes(serialize(chain_profile([0] + [1] * 99)))
    b.write_bytes(serialize(chain_profile([0] + [1] * (MAX_VERTICES // 100))))
    if command == "product":
        argv = ["product", str(a), str(b)]
    else:
        argv = ["report", str(a), "--factor", str(a), "--factor", str(b)]
    out, err, code = run(argv)
    assert (out, code) == (b"", 2)
    n = 100 * (MAX_VERTICES // 100 + 1)
    assert err == f"error: the product would have {n} vertices, more than {MAX_VERTICES}\n".encode()
    assert built == []


def test_check_lattice_on_6000_classes(tmp_path):
    # the product of chains of 60 and 100 vertices: a grid lattice, not Boolean
    path = tmp_path / "grid.rkp"
    path.write_bytes(
        serialize(product.pareto_product(chain_profile([0] + [1] * 59), chain_profile([0] + [1] * 99)))
    )
    assert run(["check", str(path), "--lattice"]) == (b"true\n", b"", 0)
    assert run(["check", str(path), "--boolean"]) == (b"false\n", b"", 1)


def test_python_m_rkdist_runs_the_command_line():
    src = str(Path(rkdist.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    results = []
    for argv in (["enumerate", "--total", "3"], ["enumerate", "--total", "1"]):
        done = subprocess.run(
            [sys.executable, "-m", "rkdist", *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        results.append((done.stdout, done.stderr, done.returncode))
        assert results[-1] == run(argv)
    (out, err, code), (bad_out, bad_err, bad_code) = results
    assert code == 0 and out.startswith(b"1\n") and err == b""
    assert bad_code == 2 and bad_out == b"" and bad_err.startswith(b"error:")


def _python_m_rkdist(argv, **kwargs):
    src = str(Path(rkdist.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.Popen([sys.executable, "-m", "rkdist", *argv], env=env, **kwargs)


def test_output_dash_does_not_read_stdin():
    # "-o -" is stdout, so the command ends while its stdin pipe stays open.
    argv = ["catalog", "show", "fig1a", "-o", "-"]
    pipes = dict(stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with _python_m_rkdist(argv, **pipes) as proc:
        try:
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        assert (proc.stdout.read(), proc.stderr.read(), code) == run(argv)


def test_input_dash_reads_stdin_once():
    data = serialize(get("fig1a"))
    argv = ["iso", "-", "-"]
    pipes = dict(stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with _python_m_rkdist(argv, **pipes) as proc:
        out, err = proc.communicate(data, timeout=60)
    assert (out, err, proc.returncode) == run(argv, data) == (b"isomorphic\n", b"", 0)
