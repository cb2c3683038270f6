"""Central finite-difference oracle for validating analytic gradients.

This module never calls any analytic-gradient code path: it only probes the
scalar functions it is handed.  For ZF quantities the scalar function is
expected to re-derive the precoder from scratch at every probe point; that
freshness requirement is part of the probed function's contract, not of
this oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ProbeError

DEFAULT_H = 1e-7        # meters; well below lam/(2 pi) for cm wavelengths
DEFAULT_TOL_REL = 1e-4
DEFAULT_TOL_ABS = 1e-8
DEFAULT_FLOOR = 1e-4


def fd_gradient(f, point, h=DEFAULT_H):
    """Central differences (f(x+h e_i) - f(x-h e_i)) / (2 h) per coordinate."""
    x0 = np.asarray(point, dtype=float)
    grad = np.zeros(x0.size)
    flat = x0.ravel()
    for i in range(flat.size):
        x = flat.copy()
        x[i] = flat[i] + h
        fp = f(x.reshape(x0.shape))
        x[i] = flat[i] - h
        fm = f(x.reshape(x0.shape))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ProbeError(i, (fp, fm))
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


@dataclass
class FdReport:
    """Comparison of an analytic gradient against the FD oracle at one point."""

    point_index: int
    analytic: np.ndarray
    fd: np.ndarray
    abs_err: np.ndarray
    rel_err: np.ndarray
    passed: bool
    h: float

    @property
    def worst_rel(self):
        return float(np.max(self.rel_err)) if self.rel_err.size else 0.0


def check(analytic_fn, scalar_fn, points, h=DEFAULT_H, tol_rel=DEFAULT_TOL_REL,
          tol_abs=DEFAULT_TOL_ABS, floor=DEFAULT_FLOOR):
    """One FdReport per probe point.

    A coordinate passes when its relative error is within tol_rel, or when
    the analytic value is below ``floor`` and the absolute error is within
    tol_abs.  ``analytic_fn`` and ``scalar_fn`` must share the coordinate
    ordering of ``points``.
    """
    reports = []
    for idx, point in enumerate(points):
        ana = np.asarray(analytic_fn(point), dtype=float).ravel()
        fd = fd_gradient(scalar_fn, point, h)
        if ana.shape != fd.shape:
            raise ContractViolation(
                f"analytic gradient has {ana.size} coords, FD probe {fd.size}")
        abs_err = np.abs(ana - fd)
        rel_err = abs_err / np.maximum(np.abs(fd), 1e-300)
        ok = (rel_err <= tol_rel) | ((np.abs(ana) < floor) & (abs_err <= tol_abs))
        reports.append(FdReport(idx, ana, fd, abs_err, rel_err, bool(np.all(ok)), h))
    return reports


def reports_to_rows(name, reports):
    """Flatten reports into (check, point, coord, analytic, fd, abs, rel, pass) rows."""
    rows = []
    for rep in reports:
        for i in range(rep.analytic.size):
            rows.append((name, rep.point_index, i, rep.analytic[i], rep.fd[i],
                         rep.abs_err[i], rep.rel_err[i], rep.passed))
    return rows
