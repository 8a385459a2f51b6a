"""Checks of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench -q

The determinism test runs every workload twice with tracing on, which
takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from covers import torus_cover  # noqa: E402
from dimeralg import enumerate_perfect_matchings, fixture, validate_dimer  # noqa: E402
from dimeralg.fixtures import c3_quiver, conifold_quiver  # noqa: E402

BASES = {
    "c3": c3_quiver(),
    "conifold": conifold_quiver(),
    "fig_deformation": fixture("fig_deformation").quiver,
    "fig_iso_R": fixture("fig_iso_R").quiver,
    "fig_nested(2)": fixture("fig_nested(2)").quiver,
}


@pytest.mark.parametrize("name", sorted(BASES))
@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_cover_scales_counts_and_validates(name, n, m):
    q = BASES[name]
    cover = torus_cover(q, n, m)
    assert cover.num_vertices == n * m * q.num_vertices
    assert len(cover.arrows) == n * m * len(q.arrows)
    assert len(cover.faces) == n * m * len(q.faces)
    assert validate_dimer(cover).ok


@pytest.mark.parametrize("name", sorted(BASES))
def test_trivial_cover_is_the_base(name):
    q = BASES[name]
    cover = torus_cover(q, 1, 1)
    assert cover == q
    assert enumerate_perfect_matchings(cover) == enumerate_perfect_matchings(q)


@pytest.mark.parametrize("n,m,count", [(2, 2, 108), (3, 2, 856), (3, 3, 12366)])
def test_deformation_cover_matching_counts(n, m, count):
    cover = torus_cover(BASES["fig_deformation"], n, m)
    assert len(enumerate_perfect_matchings(cover)) == count


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, env=env,
    )


def traced(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1", env=env)
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail)["detail"], json.loads(result)


@pytest.mark.parametrize("workload", ["classify", "pairs", "monomial", "fixture_check"])
def test_inputs_and_counts_repeat_for_a_seed(workload):
    runs = [traced(workload, hash_seed) for hash_seed in (1, 2)]
    (d1, r1), (d2, r2) = runs
    assert r1["correct"] and r2["correct"]
    assert d1["inputs"] == d2["inputs"]
    counts = [
        {k: v["value"] for k, v in r["metrics"].items()
         if v["unit"] != "s" and k != "trace.overhead_ratio"}
        for r in (r1, r2)
    ]
    assert counts[0] == counts[1]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "classify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
