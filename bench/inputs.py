"""Seeded benchmark inputs, written as files the program reads.

Only numpy is used here: the inputs are made by the benchmark, not by the
package under test, and the package only ever sees the files.  Point clouds
are CSV files with columns x1..xd,weight (the format load_point_cloud
reads); scenarios are ScenarioConfig JSON files.  The same seed always
gives byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Scenario configs in the ScenarioConfig.to_dict layout.  With seed 0 they
# equal the package's bundled scenarios; other seeds move every seeded part
# (random sample clouds, frame seeds, trial seeds) and keep the sizes, with
# one exception: sphere-pushforward-d3 keeps its bundled sample (generator
# seed 0).  Its refinement-stability record compares curvature estimates of
# that sample at 500 and 2000 atoms against a factor-2 tolerance, which
# re-seeded samples exceed on a few seeds in a hundred; refinement_finding.py
# reproduces that.
_FAMILY = {"n_frames": 64, "n_pca": 8, "floor": None, "j_min": None,
           "j_max": None, "mode": "scale_floored_search", "seed": 0}
_COMMON = {"co_generators": [], "pushforward_drop": None, "k": 2,
           "alpha": 1.0, "gamma": 0.5, "eps_grid": [0.1, 0.2, 0.4],
           "expected_fail": [], "budget": 10_000_000, "trials": 40,
           "seed": 0, "refine": 160, "slack": 0.25,
           "floor_shrink": [1, 2, 3], "refinement_counts": []}

SCENARIO_NAMES = ("flat-subspace-negative", "lebesgue-cube-d2-k2",
                  "sphere-pushforward-d3")


def _spec(family, dim, count, seed=0, params=None):
    return {"family": family, "dim": dim, "count": count, "seed": seed,
            "params": params or {}}


def scenario_configs(seed: int) -> dict:
    """The three bundled scenarios, re-seeded; seed 0 reproduces them."""
    family = dict(_FAMILY, seed=seed)

    def config(name, generator, **overrides):
        out = dict(_COMMON, name=name, generator=generator,
                   family=family, seed=seed)
        out.update(overrides)
        return out

    return {
        "flat-subspace-negative": config(
            "flat-subspace-negative",
            _spec("subspace_lebesgue", 2, 64, params={"subspace_dim": 1}),
            checks=["necessity", "flat_weak_type"], trials=12),
        "lebesgue-cube-d2-k2": config(
            "lebesgue-cube-d2-k2",
            _spec("cube_lebesgue", 2, 256),
            co_generators=[_spec("sphere_uniform", 2, 240, seed=1 + seed)],
            checks=["sublevel", "sublevel_multi", "weak_type",
                    "cauchy_schwarz", "gaussian", "slab", "maximal"]),
        "sphere-pushforward-d3": config(
            "sphere-pushforward-d3",
            _spec("sphere_uniform", 3, 500, seed=0),
            pushforward_drop=2,
            checks=["refinement_stability", "gaussian"],
            refinement_counts=[500, 2000]),
    }


def cube_grid(side: int, dim: int, rng) -> np.ndarray:
    """Cell-centred grid in [0,1]^dim, atoms in a seeded random order."""
    axis = (np.arange(side) + 0.5) / side
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts[rng.permutation(pts.shape[0])]


def sphere(count: int, dim: int, rng) -> np.ndarray:
    raw = rng.standard_normal((count, dim))
    return raw / np.linalg.norm(raw, axis=1)[:, None]


def write_cloud(path: str, points: np.ndarray) -> str:
    """Uniform-weight cloud as CSV with round-trip float text."""
    n, dim = points.shape
    weight = repr(1.0 / n)
    lines = [",".join([f"x{i + 1}" for i in range(dim)] + ["weight"])]
    lines += [",".join([repr(float(v)) for v in row] + [weight])
              for row in points]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
    return path


def make_inputs(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's input files; returns name -> path."""
    os.makedirs(directory, exist_ok=True)

    def rng(tag):
        return np.random.default_rng([seed, tag])

    def path(name):
        return os.path.join(directory, name)

    if workload == "scenario-report":
        return {name: write_json(path(f"{name}.json"), cfg)
                for name, cfg in scenario_configs(seed).items()}
    if workload == "forms-exact":
        return {
            "sphere56": write_cloud(path("sphere56_d3.csv"),
                                    sphere(56, 3, rng(1))),
            "grid3025": write_cloud(path("grid3025_d2.csv"),
                                    cube_grid(55, 2, rng(2))),
        }
    if workload == "curvature-sweep":
        return {
            "grid4096": write_cloud(path("grid4096_d2.csv"),
                                    cube_grid(64, 2, rng(3))),
            "sphere2000": write_cloud(path("sphere2000_d3.csv"),
                                      sphere(2000, 3, rng(4))),
            "grid400": write_cloud(path("grid400_d2.csv"),
                                   cube_grid(20, 2, rng(5))),
        }
    raise ValueError(f"unknown workload {workload!r}")
