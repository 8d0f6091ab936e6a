"""Correctness checks on a workload's outputs.

The checks are invariants, not pinned bytes, so a change that re-pins
``records.json`` on purpose does not read as a benchmark failure:

* every gate decision equals ``drop > epsilon``;
* every shift agrees, within 1e-8 relative, with a squared W2 distance the
  benchmark computes itself from the snapshot features with
  ``scipy.linalg.sqrtm``;
* decoded architectures parse back into the space, and their V and MAdds
  match values recomputed through the public API;
* Jensen-Shannon estimates lie in [0, 1];
* no decoded architecture beats the brute-force oracle's objective.

Byte identity of repeated runs of one seed is checked by the caller. Each
check appends a message to ``problems``; an empty list means correct.
Besides the verdict, the checks return the search-quality figures
(``search_regret``, ``sweep_reward``) that need the same recomputation.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import sqrtm

W2_RTOL = 1e-8
VALUE_RTOL = 1e-12


def _fit(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Maximum-likelihood fit with the package's documented default ridge,
    # 1e-6 * tr(cov) / q on the diagonal.
    q = x.shape[1]
    mean = x.mean(axis=0)
    cov = np.cov(x, rowvar=False, bias=True).reshape(q, q)
    return mean, cov + 1e-6 * np.trace(cov) / q * np.eye(q)


def independent_w2(x1: np.ndarray, x2: np.ndarray) -> float:
    """Squared 2-Wasserstein distance between Gaussian fits, via sqrtm."""
    m1, c1 = _fit(x1)
    m2, c2 = _fit(x2)
    root2 = np.real(sqrtm(c2))
    cross = np.real(sqrtm(root2 @ c1 @ root2))
    dm = m1 - m2
    return float(dm @ dm + np.trace(c1) + np.trace(c2) - 2.0 * np.trace(cross))


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol * 1e-3)


class Checker:
    """Recomputes what a workload's outputs claim, through the public API."""

    def __init__(self, aa, inputs):
        self.aa = aa
        self.cfg = inputs.cfg
        self.problems: list[str] = []
        # A few snapshots at a time: the checks walk consecutive steps, or
        # every step against step 0.
        self.snapshot = functools.lru_cache(maxsize=3)(
            lambda step: aa.gen_snapshot(self.cfg.plan, step)
        )

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def features(self, step: int) -> np.ndarray:
        return self.snapshot(step).features

    def meta(self, step: int):
        return self.snapshot(step).meta

    def check_shift(self, label: str, value: float, step: int, base: int) -> None:
        expect = independent_w2(self.features(step), self.features(base))
        if not _close(value, expect, W2_RTOL):
            self.fail(f"{label}: W2 {value!r} differs from independent {expect!r}")

    def check_arch(self, label: str, encoding: str, v: float, cost: float, meta) -> None:
        aa, cfg = self.aa, self.cfg
        try:
            arch = aa.decode(encoding, cfg.space)
        except aa.ArchAdaptError as exc:
            self.fail(f"{label}: {encoding!r} does not parse into the space: {exc}")
            return
        if aa.encode(arch) != encoding:
            self.fail(f"{label}: {encoding!r} does not round-trip")
        v_expect = aa.surrogate_accuracy(arch, meta, cfg.surrogate, cfg.space)
        if not _close(v, v_expect, VALUE_RTOL):
            self.fail(f"{label}: V {v!r} != recomputed {v_expect!r}")
        cost_expect = aa.madds(arch, cfg.space)
        if not _close(cost, cost_expect, VALUE_RTOL):
            self.fail(f"{label}: MAdds {cost!r} != recomputed {cost_expect!r}")

    def check_records(self, records: list[dict]) -> float | None:
        """Gate, shift and architecture invariants of records.json.

        Returns the search regret averaged over adapted steps, when the
        space can be enumerated and some step adapted, else None.
        """
        aa, cfg = self.aa, self.cfg
        if [r["t"] for r in records] != list(range(1, cfg.plan.n_steps)):
            self.fail(f"records cover steps {[r['t'] for r in records]}")
            return None
        regrets = []
        prev = None
        for rec in records:
            t = rec["t"]
            label = f"step {t}"
            if rec["adapted"] != (rec["drop"] > cfg.gate.epsilon):
                self.fail(f"{label}: adapted={rec['adapted']} but drop {rec['drop']!r} "
                          f"vs epsilon {cfg.gate.epsilon!r}")
            if (rec["trace_file"] is not None) != rec["adapted"]:
                self.fail(f"{label}: trace_file {rec['trace_file']!r} vs adapted")
            if not rec["adapted"] and rec["new_arch"] != rec["prev_arch"]:
                self.fail(f"{label}: held gate but architecture changed")
            if prev is not None and rec["prev_arch"] != prev:
                self.fail(f"{label}: incumbent {rec['prev_arch']} is not the last decode {prev}")
            prev = rec["new_arch"]
            self.check_shift(label, rec["shift"], t, t - 1)
            meta = self.meta(t)
            self.check_arch(label + " new", rec["new_arch"], rec["v_new"], rec["madds_new"], meta)
            self.check_arch(label + " prev", rec["prev_arch"], rec["v_prev"], rec["madds_prev"], meta)
            if rec["adapted"] and aa.space_size(cfg.space) <= 1_000_000:
                lam, shift = cfg.trainer.lam, rec["shift"]
                _, v_best, c_best = aa.oracle_best(cfg.space, meta, cfg.surrogate, lam=lam, shift=shift)
                best = v_best - (lam / shift) * c_best
                got = rec["v_new"] - (lam / shift) * rec["madds_new"]
                if got > best + 1e-12:
                    self.fail(f"{label}: decoded objective {got!r} beats the oracle {best!r}")
                regrets.append(best - got)
        return float(np.mean(regrets)) if regrets else None

    def check_sweep(self, rows: list[dict], lambdas) -> float:
        """Sweep rows parse and re-price; returns the mean reward over lambda."""
        aa, cfg = self.aa, self.cfg
        if [r["lam"] for r in rows] != [float(l) for l in lambdas]:
            self.fail(f"sweep rows cover lambdas {[r['lam'] for r in rows]}")
        meta = self.meta(1)
        shift = aa.wasserstein2_gaussian(
            aa.fit_gaussian(self.features(1)), aa.fit_gaussian(self.features(0))
        )
        self.check_shift("sweep shift", shift, 1, 0)
        incumbent = aa.decode(cfg.initial_arch, cfg.space)
        v_prev = aa.surrogate_accuracy(incumbent, meta, cfg.surrogate, cfg.space)
        c_prev = aa.madds(incumbent, cfg.space)
        rewards = []
        for row in rows:
            self.check_arch(f"lam {row['lam']}", row["arch"], row["v"], row["madds"], meta)
            rewards.append(aa.reward(row["v"], v_prev, row["madds"], c_prev, row["lam"], shift))
        return float(np.mean(rewards))

    def check_distances(self, rows: list[dict]) -> None:
        """W2 from the base snapshot matches, and JS lies in [0, 1]."""
        later = list(range(1, self.cfg.plan.n_steps))
        if [r["step"] for r in rows] != later:
            self.fail(f"distance rows cover steps {[r['step'] for r in rows]}")
        for row in rows:
            if not (0.0 <= row["js"] <= 1.0):
                self.fail(f"distance step {row['step']}: JS {row['js']!r} outside [0, 1]")
            self.check_shift(f"distance step {row['step']}", row["wd"], row["step"], 0)
