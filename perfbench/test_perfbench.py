"""Fast tests of the benchmark itself: python3 -m pytest perfbench -q

They check that the metric names the benchmark prints are the ones
BENCHMARK.json declares, that every correctness check rejects a wrong
value, and that the wrappers reach every module's reference and come off
again.
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import instrument  # noqa: E402
import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _fake_result(traced):
    layers = instrument.layer_metrics(instrument.Instrument(trace=True))
    layers["fields.ito_s"] = 0.5
    passes = [{"wall_s": 2.0, "solve_s": 0.5, "sample_s": 1.0, "path_steps": 1000,
               "traced": bool(traced and i % 2), "layers": layers} for i in range(5)]
    return {"passes": passes, "slowness": 1.25, "setup_slowness": 1.0, "parse_s": 0.01,
            "peak_rss_mb": 100.0}


def test_end_to_end_names_match_benchmark_json():
    metrics = run.end_to_end(_fake_result(False), [0.9, 1.0, 1.1])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: v["unit"] for k, v in metrics.items()}
    assert metrics["wall_s"]["value"] == pytest.approx(2.0 / 1.25)
    assert metrics["path_steps_per_s"]["value"] == pytest.approx(1000 / 1.0 * 1.25)


def test_per_layer_names_match_benchmark_json():
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics, absent, wall, plain = run.per_layer(_fake_result(True), units)
    assert set(metrics) == set(units)
    assert all(metrics[k]["unit"] == u for k, u in units.items())
    assert all(math.isfinite(v["value"]) for v in metrics.values())
    assert "fields.ito_s" not in absent and "dirichlet.coeff_s" in absent


def test_self_times_are_layer_metrics():
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(units[name] == "s" for name in instrument.SELF_TIME.values())
    assert set(instrument.SELF_TIME) == set(instrument.BUCKETS)


def test_noise_used_ratio_counts_one_normal_per_boundary_step():
    from types import SimpleNamespace
    inst = instrument.Instrument(trace=True)
    params = SimpleNamespace(n_paths=10, dt=0.01, max_time=1.0)
    instrument._AFTER["sde.simulate_boundary"](inst, {"params": params}, None, True)
    inst.counts["normals_drawn"] = 2 * 10 * 100        # _draw_block's pairs
    metrics = instrument.layer_metrics(inst)
    assert inst.path_steps == 1000
    assert metrics["sde.noise_used_ratio"] == pytest.approx(0.5)
    instrument._AFTER["sde.attraction_stats"](
        inst, {"params": params, "horizon": 1.0}, [None], True)
    inst.counts["normals_drawn"] += 2 * 10 * 100
    assert instrument.layer_metrics(inst)["sde.noise_used_ratio"] == pytest.approx(0.75)


def test_path_steps_counts_the_step_of_exit():
    # exits inside steps 1 and 3, one absorbed at the start, one censored at max_time
    assert instrument.path_steps([0.004, 0.0125, 0.0, 0.05], 10, 0.005) == 1 + 3 + 0 + 10


# ------------------------------------------------- every check rejects a wrong value
def test_attraction_check():
    good = dict(n_paths=512, z0=0.5, wall=2.0, dt=0.005, horizon=20.0, near=0.01)
    assert checks.attraction(0.75, **good) == []
    assert checks.attraction(0.5, **good)
    assert checks.attraction(float("nan"), **good)


def test_martingale_check():
    assert checks.martingale([1.0, 1.01], [0.01, 0.01], 1.0) == []
    assert checks.martingale([1.0, 1.2], [0.01, 0.01], 1.0)
    assert checks.martingale([1.0, 1.0], [0.0, 0.01], 1.0)


def test_tilted_check():
    alpha = 1.0 - 0.5 * 0.697774657964
    assert checks.tilted_ergodic(alpha, 0.004, 0.5, 0.003) == []
    assert checks.tilted_ergodic(1.0, 0.004, 0.5, 0.003)
    assert checks.tilted_ergodic(alpha, 0.004, 0.6, 0.003)


def test_rotation_symmetry_check():
    assert checks.rotation_symmetric(1e-17, [2e-17, -1e-17]) == []
    assert checks.rotation_symmetric(1e-3, [0.0])
    assert checks.rotation_symmetric(0.0, [0.0, 1e-6])
    assert checks.rotation_symmetric(0.0, [])


def test_timescale_check():
    rows = [(0.2, "sublog", 0.5, 0.2), (0.2, "suplog", 3.2, 0.95),
            (0.1, "sublog", 0.5, 0.05), (0.1, "suplog", 4.6, 0.97)]
    assert checks.timescale(rows, 1.0, "sublog", "suplog") == []
    assert checks.timescale(rows, 1.01, "sublog", "suplog")
    assert checks.timescale([(0.2, "sublog", 0.5, 0.3)] + rows[1:], 1.0, "sublog", "suplog") \
        == []
    assert checks.timescale([(0.2, "sublog", 0.5, 0.99)] + rows[1:], 1.0, "sublog", "suplog")
    assert checks.timescale(rows[:2] + [(0.1, "sublog", 0.5, 1.2), rows[3]], 1.0,
                            "sublog", "suplog")
    assert checks.timescale(rows[:2] + [(0.1, "sublog", 0.5, 0.2), rows[3]], 1.0,
                            "sublog", "suplog")
    assert checks.timescale(rows[:3] + [(0.1, "suplog", 4.6, 0.8)], 1.0, "sublog", "suplog")


def test_mc_against_fd_check():
    probe = (0.3, 0.0)
    good = [(0.2, probe, 0.255, 0.27, 0.021, 0.002), (0.1, probe, 0.239, 0.26, 0.021, 0.02)]
    assert checks.mc_matches_fd(good) == []
    assert checks.mc_matches_fd([])
    for wrong in (0.0, -0.255, 0.55):               # lost, sign-flipped, doubled
        assert checks.mc_matches_fd([(0.2, probe, 0.255, wrong, 0.021, 0.002)])
    assert checks.mc_matches_fd([(0.2, probe, 0.255, 0.27, 0.0, 0.002)])
    assert checks.mc_matches_fd([(0.2, probe, 0.255, 0.27, 0.021, 0.6)])
    # each eps gets its own conditioning allowance, not a pooled one
    off = (0.2, probe, 0.255, 0.255 + 0.16, 0.021, 0.002)
    assert checks.mc_matches_fd([off])
    assert checks.mc_matches_fd([off[:5] + (0.05,)]) == []


def test_hitting_probability_check():
    z = np.array([0.0, 0.5, 1.0, 10.0])
    exact = 1.0 - z / np.sqrt(1.0 + z * z)
    assert checks.hitting_probability_b(z, np.tile(exact[:, None], (1, 4))) == []
    assert checks.hitting_probability_b(z, np.tile(exact[:, None] + 2e-3, (1, 4)))


def test_halfcyl_summary_check():
    assert checks.halfcyl_summary({"max_principle_ok": True, "top_oscillation": 1e-6}) == []
    assert checks.halfcyl_summary({"max_principle_ok": False, "top_oscillation": 1e-6})
    assert checks.halfcyl_summary({"max_principle_ok": True, "top_oscillation": 2e-3})


def test_bounds_check():
    assert checks.within_bounds([-1.0, 0.3, 1.0], -1.0, 1.0, "u") == []
    assert checks.within_bounds([-1.0, 1.01], -1.0, 1.0, "u")
    assert checks.within_bounds([np.nan], -1.0, 1.0, "u")


def test_duality_and_weights_checks():
    assert checks.duality(0.2072778912, 0.2072778913) == []
    assert checks.duality(0.2073, 0.2072)
    assert checks.probability_weights([0.25, 0.25, 0.5]) == []
    assert checks.probability_weights([0.25, 0.25, 0.4])
    assert checks.probability_weights([-0.1, 0.6, 0.5])


def test_exit_histogram_check():
    w = np.full(64, 1.0 / 64)
    bins = checks.node_weights_to_bins(w, 16)
    assert bins == pytest.approx(np.full(16, 1.0 / 16))
    assert checks.exit_histogram(bins, bins, 2048) == []
    wrong = bins.copy()
    wrong[0] += 0.05
    wrong[1] -= 0.05
    assert checks.exit_histogram(wrong, bins, 2048)
    assert checks.exit_histogram(bins[:8], bins, 2048)


def test_node_weights_split_edge_nodes():
    w = np.zeros(8)
    w[2] = 1.0                      # on the edge between bins 0 and 1
    assert checks.node_weights_to_bins(w, 4) == pytest.approx([0.5, 0.5, 0.0, 0.0])
    w = np.zeros(8)
    w[3] = 1.0                      # inside bin 1
    assert checks.node_weights_to_bins(w, 4) == pytest.approx([0.0, 1.0, 0.0, 0.0])


def test_same_digest_check():
    assert checks.same_digest("op", ("a", "1"), ("a", "1")) == []
    assert checks.same_digest("op", ("a", "1"), ("a", "2"))


# ------------------------------------------------------------------ wrappers
def test_wrappers_patch_every_reference_and_come_off():
    from boundarylab import coefficients, dirichlet, halfcyl, sde
    originals = (halfcyl.solve_u, dirichlet.solve_u, sde._draw_block,
                 coefficients.Const.__call__)
    inst = instrument.Instrument(trace=True)
    inst.install()
    try:
        assert halfcyl.solve_u is dirichlet.solve_u
        assert halfcyl.solve_u.__wrapped__ is originals[0]
        assert sde._draw_block.__wrapped__ is originals[2]
        assert coefficients.Const(2.0)(np.zeros(3)).tolist() == [2.0, 2.0, 2.0]
        assert inst.counts["const_calls"] == 1
        assert inst.missing == []
    finally:
        inst.uninstall()
    assert (halfcyl.solve_u, dirichlet.solve_u, sde._draw_block,
            coefficients.Const.__call__) == originals
