"""Self-tests of the benchmark harness: python3 -m pytest bench"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import reference as ref
import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_tail_needs_ten_samples_beyond():
    assert run.tail([float(v) for v in range(10)]) is None
    assert run.tail([5.0] + [1.0] * 10) == (1.0, 100.0 / 11)
    value, pct = run.tail([float(v) for v in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)
    assert sum(v > value for v in range(1, 101)) == 10


def test_self_time_subtracts_covered_child_time():
    fid = tracing.NAMES.index("core.quotient")
    spans = [
        # span, function, parent, request, start, end (in order of ending)
        (3, fid, 1, 0, 20, 30),
        (1, fid, 0, 0, 10, 40),
        (2, fid, 0, 0, 50, 70),
        (0, fid, -1, 0, 0, 100),
    ]
    assert tracing.self_times(spans) == {0: 50, 1: 20, 2: 20, 3: 10}
    calls, self_ns = tracing.layer_totals(spans)
    assert calls[fid] == 4 and self_ns[fid] == 100  # self times add up to the root's duration


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [(1, 0, 0, 0, 10, 60), (2, 0, 0, 0, 40, 80), (3, 0, 0, 0, 90, 120), (0, 0, -1, 0, 0, 100)]
    assert tracing.self_times(spans)[0] == 100 - 70 - 10


def test_count_under_follows_ancestors_within_one_request():
    mk, en, cf = (tracing.NAMES.index(n) for n in ("core.make_profile", "enumeration.enumerate_profiles", "core.canonical_form"))
    spans = [
        (2, mk, 1, 5, 2, 3),
        (1, cf, 0, 5, 1, 4),
        (3, mk, 0, 5, 5, 6),
        (0, en, -1, 5, 0, 10),
        (4, mk, -1, 5, 11, 12),  # outside enumerate_profiles
        (6, mk, 5, 6, 1, 2),  # another request
        (5, en, -1, 6, 0, 3),
    ]
    assert tracing.count_under(spans, 5, "core.make_profile", "enumeration.enumerate_profiles") == 2


@pytest.fixture(scope="module")
def cli():
    return run.load_rkdist()


def _inputs(name: str, seed: int, workdir, cli):
    wl = workloads.build(name, seed, workdir, cli.run)
    files = {p.name: p.read_bytes() for p in wl.inputs}
    argv = [[a.replace(str(workdir), "<dir>") for a in op.argv] for op in wl.ops]
    return files, argv, wl.order


@pytest.mark.parametrize("name", workloads.NAMES)
def test_one_seed_gives_byte_identical_inputs(name, cli, tmp_path):
    first = _inputs(name, 7, tmp_path / "a", cli)
    assert first == _inputs(name, 7, tmp_path / "b", cli)
    assert first != _inputs(name, 8, tmp_path / "c", cli)


def test_checks_reject_wrong_outputs(cli, tmp_path):
    wl = workloads.build("iso", 1, tmp_path, cli.run)
    for op in wl.ops:
        out, err, code = cli.run(op.argv)
        assert op.check(workloads.Result(out, err, code)) is None, op.argv
        if op.argv[0] == "iso":
            flipped = b"not isomorphic\n" if code == 0 else b"isomorphic\n"
            assert op.check(workloads.Result(flipped, err, 1 - code)) is not None
    enum = workloads.build("enumerate", 1, tmp_path, cli.run)
    op = enum.ops[3]  # --total 5
    out, err, code = cli.run(op.argv)
    assert op.check(workloads.Result(out, err, code)) is None
    dropped = out.replace(b"8\n", b"7\n", 1).rsplit(b"---\n", 1)[0]
    assert op.check(workloads.Result(dropped, err, code)) is not None


def test_reference_agrees_with_catalog_documents(cli):
    for name, factor in ref.BASE.items():
        st = ref.structure(ref.parse(cli.run(["catalog", "show", name])[0]))
        assert (st.vertices, st.total, st.labels(), len(st.below)) == (
            factor.vertices,
            factor.total,
            sorted(factor.classes),
            len(factor.below),
        ), name


def test_metric_names_and_spec():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) and n[0].isalnum() and len(n) <= 64 for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {m["name"] for m in SPEC["end_to_end"]} == {"wall_s", "setup_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    layer = {f"{n}.{kind}" for n in tracing.NAMES for kind in ("calls", "self_s")}
    layer |= {"enumeration.candidates", "enumeration.profiles", "enumeration.yield", "trace.overhead_ratio"}
    assert {m["name"] for m in SPEC["per_layer"]} == layer


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "iso", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
