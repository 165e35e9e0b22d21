"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines. The
comparison criteria run at desk scale on the substitute suite; they check
the qualitative claims, not any published benchmark numbers.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from histarch import (BspArchive, ExperimentConfig, Region, StopReason, cma_init,
                      cma_run, default_lambda, derive_depth_params, hr_run,
                      kruskal_wallis, run_algorithm, run_experiment)
from histarch.benchmarks import ellipsoid_weights, make_suite
from histarch.cli import main
from test_stats import kw_oracle
from util import LoggingProblem, budgeted, walk_region


@contextmanager
def criterion(number, description, limit_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number:02d} FAIL {description}")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed <= limit_s
    verdict = "PASS" if within else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {verdict} {description} "
          f"({elapsed:.3f}s, limit {limit_s}s)")
    assert within, f"criterion {number} exceeded its {limit_s}s budget: {elapsed:.1f}s"


def test_criterion_01_parameter_formulas():
    with criterion(1, "population size and depth threshold formulas", 0.001):
        assert default_lambda(10) == 10
        assert default_lambda(30) == 14
        assert derive_depth_params(100_000, 10) == (17, 4)
        assert derive_depth_params(300_000, 14) == (19, 4)


def _has_duplicates(points):
    # pairwise max-abs distance is zero exactly when every coordinate
    # matches; the O(n^2) scan runs in blocks to bound memory
    n = len(points)
    for start in range(0, n, 500):
        block = points[start:start + 500]
        equal = (block[:, None, :] == points[None, :, :]).all(axis=2)
        for row in range(len(block)):
            equal[row, start + row] = False
        if equal.any():
            return True
    return False


def test_criterion_02_non_revisiting_property():
    with criterion(2, "no duplicate evaluations in cNrGA runs", 10.0):
        for dim in (2, 10):
            problem = next(p for p in make_suite(dim, seed=2013)
                           if p.name == "rastrigin")
            for seed in range(10):
                logger = LoggingProblem(problem)
                run_algorithm(logger.build(), "cnrga", 2000, np.random.default_rng(seed))
                points = np.array([x for x, _ in logger.log])
                assert len(points) == 2000
                assert not _has_duplicates(points)


def test_criterion_03_bsp_oracles():
    with criterion(3, "BSP containment, tiling and point-location oracles", 5.0):
        domain = Region(np.zeros(5), np.full(5, 10.0))
        archive = BspArchive(domain)
        rng = np.random.default_rng(33)
        for _ in range(5000):
            archive.insert(domain.uniform_point(rng))
        assert archive.n_points == 5000

        leaves = list(archive.iter_leaves())
        lowers = np.empty((len(leaves), 5))
        uppers = np.empty((len(leaves), 5))
        for i, leaf in enumerate(leaves):
            lo, hi = walk_region(archive, leaf)
            assert (leaf.point.coords >= lo).all() and (leaf.point.coords <= hi).all()
            lowers[i], uppers[i] = lo, hi

        log_total = np.logaddexp.reduce(np.log(uppers - lowers).sum(axis=1))
        assert abs(np.exp(log_total - np.log(domain.span).sum()) - 1.0) <= 1e-9

        at_top = uppers == domain.upper  # outer boundary stays inclusive
        for _ in range(1000):
            x = domain.uniform_point(rng)
            inside = ((x >= lowers) & ((x < uppers) | (at_top & (x <= uppers)))).all(axis=1)
            assert inside.sum() == 1
            node = archive.root
            while node.is_internal:
                node = node.below if x[node.split_dim] < node.split_value else node.above
            assert leaves[int(np.nonzero(inside)[0][0])] is node


def test_criterion_04_cmaes_sphere_regression():
    with criterion(4, "10D sphere reaches 1e-10 in >= 28/30 seeded runs", 30.0):
        domain = Region(np.full(10, -100.0), np.full(10, 100.0))
        hits = 0
        for seed in range(30):
            state = cma_init(np.full(10, 3.0), 0.5, 10, domain)
            evaluator = budgeted(lambda x: float(x @ x), domain, 10_000)
            cma_run(state, evaluator, np.random.default_rng(seed))
            best = evaluator.best
            hits += best < 1e-10
        assert hits >= 28


def test_criterion_05_stagnation_stop():
    with criterion(5, "flat objective stops with stagnation by generation 41", 1.0):
        domain = Region(np.full(10, -100.0), np.full(10, 100.0))
        state = cma_init(np.zeros(10), 1.0, 10, domain)
        stop = cma_run(state, budgeted(lambda x: 1.0, domain, 10 ** 9),
                       np.random.default_rng(5))
        assert stop is StopReason.STAGNATION
        assert state.generation <= 41


def test_criterion_06_condition_number_stop():
    with criterion(6, "axis-ratio-1e8 ellipsoid trips cond(C) > 1e14", 60.0):
        domain = Region(np.full(10, -100.0), np.full(10, 100.0))
        w = ellipsoid_weights(10, 1e8)
        state = cma_init(np.full(10, 3.0), 0.5, 10, domain, tol_fun=None)
        evaluator = budgeted(lambda x: float(w @ (x * x)), domain, 50_000)
        stop = cma_run(state, evaluator, np.random.default_rng(6))
        evals = evaluator.used
        assert stop is StopReason.COV_CONDITION
        assert evals <= 50_000
        eig = np.linalg.eigvalsh(state.cov)
        assert eig.max() / eig.min() > 1e14


def test_criterion_07_hr_structural_trace():
    with criterion(7, "HR trace structure on 10D Rastrigin", 60.0):
        base = next(p for p in make_suite(10, seed=2013) if p.name == "rastrigin")
        for seed in range(10):
            logger = LoggingProblem(base)
            record = hr_run(logger.build(), 20_000, np.random.default_rng(seed))
            log = [x for x, _ in logger.log]
            assert record.evals_used == 20_000
            exploits = [ph for ph in record.phases if ph.kind == "exploit"]
            assert len(exploits) >= 1
            boxes = [(tuple(ph.roi_lower), tuple(ph.roi_upper)) for ph in exploits]
            assert len(set(boxes)) == len(boxes)
            cursor = 1
            for ph in record.phases:
                assert ph.start_eval == cursor
                cursor = ph.end_eval + 1
            assert cursor == record.evals_used + 1
            blocked = []
            for ph in record.phases:
                if ph.kind == "exploit":
                    blocked.append((np.array(ph.roi_lower), np.array(ph.roi_upper)))
                    continue
                for lo, hi in blocked:
                    for x in log[ph.start_eval - 1: ph.end_eval]:
                        assert not ((x >= lo).all() and (x <= hi).all())


@pytest.mark.slow
def test_criterion_08_qualitative_comparison():
    with criterion(8, "unimodal parity and multimodal advantage vs restarting CMA-ES",
                   900.0):
        config = ExperimentConfig(
            algorithms=["hr", "cmaes"], dim=10, budget=20_000, runs=30,
            base_seed=0, suite_seed=2013,
            problems=["sphere", "rot_ellipsoid", "rastrigin", "griewank",
                      "schwefel", "hybrid"],
        )
        table = run_experiment(config).table
        # (a) parity on the unimodal problems: within 10x either way
        for prob in ("sphere", "rot_ellipsoid"):
            hr_med = table.cells[(prob, "hr")].median
            cma_med = table.cells[(prob, "cmaes")].median
            assert hr_med <= 10.0 * cma_med
        # (b) advantage on the multimodal set
        multimodal = ("rastrigin", "griewank", "schwefel", "hybrid")
        wins = sum(table.cells[(p, "hr")].median <= table.cells[(p, "cmaes")].median
                   for p in multimodal)
        assert wins >= 2
        hr_better = sum(table.marks[(p, "cmaes")] == "-" for p in multimodal)
        hr_worse = sum(table.marks[(p, "cmaes")] == "+" for p in multimodal)
        assert hr_worse <= hr_better


def test_criterion_09_statistics_oracle():
    with criterion(9, "Kruskal-Wallis reference value and tie-corrected oracle", 5.0):
        h, p = kruskal_wallis([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]])
        assert h == pytest.approx(6.818182, abs=1e-5)
        assert p < 0.01
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 100:
            groups = [rng.integers(0, 10, int(rng.integers(2, 15))).astype(float).tolist()
                      for _ in range(int(rng.integers(2, 5)))]
            if len({v for g in groups for v in g}) == 1:
                continue
            h, _ = kruskal_wallis(groups)
            assert h == pytest.approx(kw_oracle(groups), abs=1e-9)
            checked += 1


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "byte-identical CSVs across reruns and worker counts", 120.0):
        def run(out, workers):
            code = main(["run", "--suite", "2d", "--algos", "hr,cmaes,cnrga_lru",
                         "--budget", "600", "--runs", "3", "--alpha", "0.05",
                         "--seed", "17", "--problems", "sphere,rastrigin",
                         "--out", str(out), "--workers", str(workers)])
            assert code == 0
            return ((out / "results.csv").read_bytes(),
                    (out / "ranks.csv").read_bytes())

        first = run(tmp_path / "one", 1)
        again = run(tmp_path / "two", 1)
        pooled = run(tmp_path / "three", 2)
        assert first == again == pooled
