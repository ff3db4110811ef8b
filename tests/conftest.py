import copy
import math

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from scipy.special import ndtri

from polydiff import simulate
from polydiff.generator import ModelCoefficients, check_point
from polydiff.polynomial import Polynomial
from polydiff.statespace import (
    BoxOrthant,
    BoxOrthantParams,
    FullSpace,
    Quadric,
    QuadricParams,
    Simplex,
    SimplexParams,
    assemble_model,
)


@pytest.hookimpl(trylast=True)  # after the tmpdir plugin has made its factory
def pytest_configure(config):
    # hypothesis caches the literals of local modules under its home directory,
    # ./.hypothesis by default, even without an example database
    set_hypothesis_home_dir(config._tmp_path_factory.mktemp("hypothesis"))


def oracle_apply_generator(model, p):
    """G p = tr(a Hess p)/2 + b . grad p by Polynomial arithmetic: the
    independent oracle for the closed form on term arrays."""
    if p.dim != model.dim:
        raise ValueError(f"polynomial dimension {p.dim} != model dimension {model.dim}")
    d = model.dim
    grad = p.grad()
    out = Polynomial.zero(d)
    for i in range(d):
        if not grad[i].is_zero():
            out = out + model.b[i] * grad[i]
        for j in range(d):
            hij = grad[i].partial(j)
            if not hij.is_zero():
                out = out + 0.5 * model.a[i][j] * hij
    return out


def oracle_a_grad(model, p):
    """The vector a grad p by Polynomial arithmetic."""
    grad = p.grad()
    out = []
    for i in range(model.dim):
        s = Polynomial.zero(model.dim)
        for j in range(model.dim):
            if not grad[j].is_zero():
                s = s + model.a[i][j] * grad[j]
        out.append(s)
    return out


def oracle_reduce(space, p):
    """p modulo the simplex mass equality by Polynomial arithmetic: each term
    c x'^a x_d^k becomes c x'^a (1 - x_1 - ... - x_{d-1})^k.  Other spaces
    have no equalities and return p."""
    if not space.equalities:
        return p
    d = space.dim
    last = Polynomial.one(d) - sum((Polynomial.variable(i, d) for i in range(d - 1)), Polynomial.zero(d))
    out = Polynomial.zero(d)
    for e, c in p.terms.items():
        out = out + Polynomial.monomial(e[:-1] + (0,), c) * last ** e[-1]
    return out


def oracle_simulate_paths(model, statespace, x0, T, dt, n_paths, seed, store_stride=1):
    """The Euler step as ``simulate_paths`` defines it, one public piece at a
    time: ``b_eval``, the eigendecomposition root ``dispersion`` times z, the
    projection, and each inequality polynomial evaluated on its own.  Same
    streams, chunks and storage as the package, so d = 1 and d >= 3 paths must
    agree with it bit for bit."""
    x0 = statespace.project(check_point(statespace, x0))
    d = statespace.dim
    ineqs = statespace.inequalities
    n_steps = int(round(T / dt))
    stored_steps = sorted(set(range(0, n_steps + 1, store_stride)) | {n_steps})
    stored_pos = {s: i for i, s in enumerate(stored_steps)}
    out = np.empty((n_paths, len(stored_steps), d))
    minima = np.empty((n_paths, len(ineqs))) if ineqs else None
    sqdt = np.sqrt(dt)
    gen = np.random.Generator(np.random.Philox(0))
    for start in range(0, n_paths, simulate._CHUNK_PATHS):
        stop = min(start + simulate._CHUNK_PATHS, n_paths)
        keys = simulate._path_keys(seed, np.arange(start, stop)).tolist()
        c = stop - start
        x = np.tile(x0, (c, 1))
        out[start:stop, 0] = x
        if ineqs:
            mins = np.column_stack([np.full(c, p(x0)) for p in ineqs])
        step = 0
        while step < n_steps:
            block = min(simulate._STEP_BLOCK, n_steps - step)
            u = simulate._uniforms(gen, keys, step, block, d)
            z = ndtri(np.clip(u, 1e-300, 1.0 - 2**-53))
            for j in range(block):
                drift = model.b_eval(x)
                sig = simulate.dispersion(model, x)
                x = x + drift * dt + sqdt * np.einsum("cij,cj->ci", sig, z[:, j])
                x = statespace.project(x)
                step += 1
                for q, p in enumerate(ineqs):
                    np.minimum(mins[:, q], p(x), out=mins[:, q])
                pos = stored_pos.get(step)
                if pos is not None:
                    out[start:stop, pos] = x
        if ineqs:
            minima[start:stop] = mins
    return simulate.PathSet(times=np.asarray(stored_steps, dtype=float) * dt, paths=out, seed=int(seed), dt=float(dt),
                            n_steps=n_steps, store_stride=int(store_stride), scheme="euler-project",
                            statespace_family=statespace.family, constraint_minima=minima)


def _const(dim, c):
    return Polynomial.constant(dim, c)


def _var(i, dim):
    return Polynomial.variable(i, dim)


def brownian_model():
    space = FullSpace(1)
    model = ModelCoefficients([[_const(1, 1.0)]], [_const(1, 0.0)])
    return model, space


def ou_model():
    # dX = (0.3 - X) dt + sqrt(0.4) dW
    space = FullSpace(1)
    model = ModelCoefficients([[_const(1, 0.4)]], [_const(1, 0.3) - _var(0, 1)])
    return model, space


def cir_params(b0, beta, sigma2=1.0):
    return BoxOrthantParams(m=0, n=1, gamma=np.zeros(0), alpha=[[0.0]], phi=[sigma2],
                            psi=np.zeros((1, 0)), pi=[[0.0]], beta=[b0], B=[[beta]])


def cir_model(b0=0.5, beta=-0.5, sigma2=1.0):
    space = BoxOrthant(0, 1)
    return assemble_model(space, cir_params(b0, beta, sigma2)), space


def jacobi_params():
    return BoxOrthantParams(m=1, n=0, gamma=[1.0], alpha=np.zeros((0, 0)), phi=np.zeros(0),
                            psi=np.zeros((0, 1)), pi=np.zeros((0, 0)), beta=[0.5], B=[[-1.0]])


def jacobi_model():
    # dX = (1/2 - X) dt + sqrt(X(1-X)) dW on [0,1]
    space = BoxOrthant(1, 0)
    return assemble_model(space, jacobi_params()), space


def simplex_params():
    return SimplexParams(alpha=[[0.0, 1.0], [1.0, 0.0]], beta=[0.5, 0.5],
                         B=[[-1.5, 0.5], [0.5, -1.5]])


def simplex_jacobi_model():
    space = Simplex(2)
    return assemble_model(space, simplex_params()), space


def simplex_x2_form_model():
    """The simplex Jacobi model written with x2 - x2^2 for x1*x2, its value on
    E: a grad x1 is a multiple of x1 only modulo the mass equality."""
    s = _var(1, 2) - _var(1, 2) ** 2
    b = [_const(2, 1.0) - 2.0 * _var(i, 2) for i in range(2)]
    return ModelCoefficients([[s, -s], [-s, s]], b), Simplex(2)


def simplex3_model():
    # the 3-d simplex Jacobi model, drift tangent to the mass constraint
    space = Simplex(3)
    params = SimplexParams(alpha=[[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]], beta=[0.25] * 3,
                           B=[[-1.25, 0.25, 0.25], [0.25, -1.25, 0.25], [0.25, 0.25, -1.25]])
    return assemble_model(space, params), space


def ball_params(dim=2):
    return QuadricParams(alpha=np.eye(dim), beta=np.zeros(dim), B=-np.eye(dim))


def unit_ball_model(dim=2):
    space = Quadric(np.eye(dim))
    return assemble_model(space, ball_params(dim)), space


MODEL_MATRIX = {
    "brownian": brownian_model,
    "ou": ou_model,
    "cir": cir_model,
    "jacobi": jacobi_model,
    "simplex_jacobi": simplex_jacobi_model,
    "unit_ball": unit_ball_model,
}

# an interior point of each state space, used as a conditioning point
MATRIX_POINTS = {
    "brownian": np.array([0.7]),
    "ou": np.array([0.4]),
    "cir": np.array([0.8]),
    "jacobi": np.array([0.2]),
    "simplex_jacobi": np.array([0.3, 0.7]),
    "unit_ball": np.array([0.3, -0.4]),
}


@pytest.fixture(scope="session", params=sorted(MODEL_MATRIX))
def matrix_case(request):
    model, space = MODEL_MATRIX[request.param]()
    return request.param, model, space, MATRIX_POINTS[request.param]


@pytest.fixture(scope="session")
def jacobi():
    return jacobi_model()


@pytest.fixture(scope="session")
def cir():
    return cir_model()


@pytest.fixture(scope="session")
def simplex_jacobi():
    return simplex_jacobi_model()


@pytest.fixture(scope="session")
def unit_ball():
    return unit_ball_model()


def paths_csv_by_format(ps):
    """PathSet.csv_text with one format() call per value: the byte reference
    for the shared writer."""
    header = "path_id,step,t," + ",".join(f"x_{i + 1}" for i in range(ps.dim))
    lines = [header]
    steps = np.rint(ps.times / ps.dt).astype(int)
    for pid in range(ps.n_paths):
        for k, t in enumerate(ps.times):
            coords = ",".join(format(v, ".17g") for v in ps.paths[pid, k])
            lines.append(f"{pid},{steps[k]},{format(t, '.17g')},{coords}")
    return "\n".join(lines) + "\n"


# what the spec-file fuzzing puts in place of a node of a valid document:
# every JSON type, the non-finite floats, integral floats, and strings that
# select another branch of a schema
FUZZ_LEAVES = (True, False, None, math.nan, math.inf, -math.inf, 0.0, 1.0, 2.0, 64.0, -1.0,
               "", "raw", "family", "simplex", "bond", "table", [], {})


def _node_paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _node_paths(value, path + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _as_float(node):
    """node with every integer in it as an integral float."""
    if isinstance(node, dict):
        return {k: _as_float(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_as_float(v) for v in node]
    return float(node) if isinstance(node, int) and not isinstance(node, bool) else node


@st.composite
def json_mutants(draw, docs):
    """A copy of one of ``docs`` after one to three mutations, each at a
    node drawn depth first, so that the few shallow nodes are hit as often
    as the many leaves: replace it by a fuzz leaf, write its integers as
    integral floats, drop one of its keys, or add an unknown key."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_node_paths(doc))
        depth = draw(st.integers(0, max(map(len, paths))))
        path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
        node = _node(doc, path)
        action = draw(st.sampled_from(["replace", "float", "drop", "add"]))
        if action == "drop" and isinstance(node, dict) and node:
            del node[draw(st.sampled_from(sorted(node)))]
            continue
        if action == "add" and isinstance(node, dict):
            node["extra"] = copy.deepcopy(draw(st.sampled_from(FUZZ_LEAVES)))
            continue
        new = _as_float(node) if action == "float" else copy.deepcopy(draw(st.sampled_from(FUZZ_LEAVES)))
        if path:
            _node(doc, path[:-1])[path[-1]] = new
        else:
            doc = new
    return doc
