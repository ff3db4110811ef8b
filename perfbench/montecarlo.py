"""``monte-carlo``: endpoint-only simulation and the estimators built on it.

Jacobi and CIR in dimension 1, the simplex in R^2 and the unit disk, each
fixed for the run.  Two shapes separate the costs: ``wide`` (2048 paths x
8 steps) loads per-path RNG construction, ``long`` (16 paths x 512 steps)
the per-step kernel (coefficient evaluation, PSD root, projection);
swaptions also run a ``mid`` shape (256 x 64).  The generator matrix is
built once, for the swaption's pricing model, so it barely appears here.
"""

from __future__ import annotations

import numpy as np

import polydiff as pd
from common import Op, hit_stats_op, mc_moment_op, simulate_op, swaption_op, validate_op
from models import ball, build, cir, interior_point, jacobi, simplex

ROOT_SPAN = None

DT = 1 / 64
SHAPES = {"wide": (2048, 8), "mid": (256, 64), "long": (16, 512)}

# Each op kind has an odd number of templates, so its median falls inside
# one template's cost class instead of between two.  The price and boundary
# medians fall in a class that three of their five templates share, which
# triples the samples that set them; the simulate median falls in the
# middle of its three wide 1-d templates, with two cheaper and two dearer
# templates on either side.
TEMPLATES = (
    "simulate:jacobi:wide", "moments:cir:wide", "simulate:cir:long", "boundary:simplex2:wide",
    "validate:jacobi", "simulate:simplex2:wide", "price:cir:wide", "simulate:ball2:long",
    "moments:simplex2:long", "price:cir:long", "simulate:cir:wide", "boundary:cir:long",
    "validate:simplex2", "simulate:jacobi:long", "boundary:ball2:long", "moments:jacobi:long",
    "price:cir:mid", "simulate:jacobi:wide", "moments:ball2:wide", "boundary:ball2:long",
    "price:cir:long", "moments:simplex2:wide", "validate:ball2", "boundary:ball2:long",
    "price:cir:long",
)


class MonteCarlo:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 3])
        # Fixed models, as in desk: the seed draws start points, estimators
        # and RNG seeds, so latency does not step with a seed's parameters.
        rng = np.random.default_rng([0, 3])
        self.cases = {"jacobi": jacobi(rng), "cir": cir(rng), "simplex2": simplex(rng, 2, "simplex2"),
                      "ball2": ball(rng, 2, "ball2")}
        for c in self.cases.values():
            build(c)
        space, model, _ = build(self.cases["cir"])
        self.pm = pd.PricingModel(model, space, 4, pd.Polynomial(1, {(0,): 1.0, (1,): 1.0}), 0.0625)

    def op(self, i: int) -> Op:
        kind, name, *shape = TEMPLATES[i % len(TEMPLATES)].split(":")
        case, rng = self.cases[name], self.rng
        if kind == "validate":
            return validate_op(case)
        n_paths, steps = SHAPES[shape[0]]
        x0 = interior_point(rng, case)
        seed = int(rng.integers(2**31))
        if kind == "simulate":
            return simulate_op(case, x0, n_paths, steps, DT, seed)
        if kind == "moments":
            coef = [float(v) for v in rng.integers(1, 5, case.dim) / 4]
            return mc_moment_op(case, x0, coef, 0.5, n_paths, steps, DT, seed)
        if kind == "boundary":
            return hit_stats_op(case, x0, n_paths, steps, DT, seed, threshold=1 / 64)
        # a payer swaption at expiry: pay 1, receive a coupon and then 1 + coupon
        expiry = steps * DT
        c = float(rng.choice([0.0625, 0.125, 0.25]))
        coupons = [(-1.0, expiry), (c, expiry + 0.25), (1.0 + c, expiry + 0.5)]
        return swaption_op(case, self.pm, x0, coupons, expiry, n_paths, DT, seed)

    def warmup_ops(self) -> list[Op]:
        sx = self.cases["simplex2"]
        return [validate_op(self.cases["jacobi"]), simulate_op(sx, interior_point(self.rng, sx), 8, 4, DT, 1)]
