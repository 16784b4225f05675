"""SVC points of the benchmark's dataset generator, shared by the test
modules that check the classifier at n = 121 points."""

import numpy as np

from mpecq import (BhoInstance, Dataset, Tolerances, assemble_feasible_point,
                   classify_active, solve_all_folds, split_folds,
                   to_evaluation)

TOL = Tolerances()

# the benchmark's grid of C
C_GRID = tuple(float(c) for c in np.logspace(-2.0, 2.0, 9))


def svc_instance(index):
    """An n = 121 SVC instance (T = 3, m1 = 5, m2 = 15, p = 5) on dataset
    `index` of the benchmark's generator."""
    rng = np.random.default_rng([2, index])
    X = rng.normal(0.0, 1.0, size=(60, 5))
    w = rng.normal(0.0, 1.0, size=5)
    y = np.where(X @ w + 0.5 * rng.normal(0.0, 1.0, size=60) >= 0.0, 1.0, -1.0)
    ds = Dataset(X, y)
    return BhoInstance.from_dataset(ds, split_folds(ds, 3, 5, 15,
                                                    int(rng.integers(2 ** 31))))


def svc_point(index, C, inst=None):
    """(ev, pattern, grad_f) of the SVC point at C on `svc_instance(index)`,
    or on `inst`."""
    inst = inst or svc_instance(index)
    point, _ = assemble_feasible_point(inst, C, solve_all_folds(inst, C), TOL)
    ev = to_evaluation(inst, point)
    return ev, classify_active(ev, TOL), inst.grad_f

