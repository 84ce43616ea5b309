"""The twist formulas written as matrix expressions agree with the index
loops they replace.

Each ``_loop_*`` function below is the formula written out index by index,
with its own zero skips and running sums; the library writes the same
formula as one ``ExprMatrix`` expression.  The normal form is canonical, so
the two must give equal values, under the same keys in the same order.  The
inputs reach what no bundled session does: fields that are not vertical,
rational entries over distinct denominators, three fields with both twist
matrices nonzero, and one exp atom.
"""

import itertools
import random

import pytest

from jetsigma.equivalence import theta_from_mu, transform_fields
from jetsigma.exprs import Expr
from jetsigma.involution import StructureFunctions, check_involution_transfer, structure_functions
from jetsigma.jets import JetContext, VectorField, VectorFieldSet, total_derivative
from jetsigma.linalg import ExprMatrix
from jetsigma.prolong import SigmaMatrix, _prolong, check_prolongation_commutation, sigma_prolong

from fuzzing import random_polynomial

# -- the index loops ----------------------------------------------------------


def _loop_prolong(Xs, n, Lambda=None, S=None):
    ctx = Xs[0].ctx
    r = len(Xs)
    dxi = [total_derivative(X.xi, ctx) for X in Xs]
    psis = [[[X.phi(a)] for a in range(ctx.p)] for X in Xs]
    for k in range(n):
        for i in range(r):
            for a in range(ctx.p):
                u_next = Expr(ctx.coord(a, k + 1))
                coeff = total_derivative(psis[i][a][k], ctx) - u_next * dxi[i]
                if Lambda is not None:
                    for b in range(ctx.p):
                        lab = Lambda[a, b]
                        if not lab.is_rational_zero:
                            coeff = coeff + lab * psis[i][b][k]
                if S is not None:
                    for j in range(r):
                        s = S[i, j]
                        if not s.is_rational_zero:
                            coeff = coeff + s * (psis[j][a][k] - u_next * Xs[j].xi)
                psis[i][a].append(coeff)
    out_ctx = ctx if ctx.max_order >= n else ctx.extended(n)
    return [VectorField(out_ctx, n, X.xi, psis[i]) for i, X in enumerate(Xs)]


def _loop_commutation(Ys, sigma):
    ctx = Ys.ctx
    n = Ys.order
    coords = [ctx.x] + [ctx.coord(a, k) for a in range(ctx.p) for k in range(n)]
    residuals = {}
    for i, Y in enumerate(Ys):
        twist_scalar = total_derivative(Y.xi, ctx)
        for j in range(len(Ys)):
            twist_scalar = twist_scalar + sigma[i, j] * Ys[j].xi
        for c in coords:
            ce = Expr(c)
            dc = total_derivative(ce, ctx)
            lhs = Y.apply(dc) - total_derivative(Y.apply(ce), ctx)
            rhs = -twist_scalar * dc
            for j in range(len(Ys)):
                s = sigma[i, j]
                if not s.is_rational_zero:
                    rhs = rhs + s * Ys[j].apply(ce)
            residuals[(i, str(c))] = lhs - rhs
    return residuals


def _loop_transfer(Xs, sigma):
    ctx = Xs.ctx
    r = len(Xs)
    mu = structure_functions(Xs)
    Ys = sigma_prolong(Xs, sigma, 1)
    Q, q_contracted, R, contracted = {}, {}, {}, {}
    for i in range(r):
        for j in range(i + 1, r):
            q_row = []
            r_row = []
            for k in range(r):
                q = Ys[i].apply(sigma[j, k]) - Ys[j].apply(sigma[i, k])
                extra = total_derivative(mu[i, j, k], ctx)
                for m in range(r):
                    extra = (
                        extra
                        + sigma[i, m] * mu[m, j, k]
                        - sigma[j, m] * mu[m, i, k]
                        - mu[i, j, m] * sigma[m, k]
                    )
                q_row.append(q)
                r_row.append(q + extra)
            Q[(i, j)] = q_row
            R.update(((i, j, k), e) for k, e in enumerate(r_row))
            qcon = []
            for a in range(ctx.p):
                acc = Expr.number(0)
                qacc = Expr.number(0)
                for k in range(r):
                    acc = acc + r_row[k] * Xs[k].phi(a)
                    qacc = qacc + q_row[k] * Xs[k].phi(a)
                contracted[(i, j, a)] = acc
                qcon.append(qacc)
            q_contracted[(i, j)] = qcon
    return Q, q_contracted, R, contracted


def _loop_theta(A, Ys, mu):
    r = len(Ys)
    Ainv = A.inverse()
    upper = {}
    for i in range(r):
        for j in range(i + 1, r):
            coeffs = []
            for k in range(r):
                acc = Expr.number(0)
                for h in range(r):
                    inner = Expr.number(0)
                    for m in range(r):
                        for l in range(r):
                            muml = mu[m, l, h]
                            if not muml.is_rational_zero:
                                inner = inner + A[i, m] * muml * A[j, l]
                    for m in range(r):
                        inner = inner + A[i, m] * Ys[m].apply(A[j, h]) - A[j, m] * Ys[m].apply(A[i, h])
                    acc = acc + inner * Ainv[h, k]
                coeffs.append(acc)
            upper[(i, j)] = coeffs
    return StructureFunctions.from_upper(r, upper)


def _loop_transform(A, Vs):
    out = []
    for i in range(A.nrows):
        acc = Vs[0].scaled(A[i, 0])
        for j in range(1, len(Vs)):
            acc = acc.plus(Vs[j].scaled(A[i, j]))
        out.append(acc)
    return VectorFieldSet(out)


# -- seeded inputs --------------------------------------------------------------


@pytest.fixture
def ctx():
    return JetContext("x", ["u", "v"], 2)


def _fields(ctx):
    """Three fields on the base, two of them not vertical, one over x + 1."""
    P = ctx.parse
    return VectorFieldSet(
        [
            VectorField.on_base(ctx, P("x"), [P("u"), P("1")]),
            VectorField.on_base(ctx, P("1/(x + 1)"), [P("v"), P("0")]),
            VectorField.on_base(ctx, P("0"), [P("1"), P("u")]),
        ]
    )


def _matrix(ctx, rng, nrows, symbols, cls=ExprMatrix):
    """Seeded linear entries; two of them over the distinct denominators
    x + 2 and u + 1, and one times exp(u)."""
    P = ctx.parse
    entries = [[random_polynomial(rng, symbols, degree=1, terms=1) for _ in range(nrows)] for _ in range(nrows)]
    entries[0][1] = entries[0][1] * P("exp(u)")
    entries[1][0] = entries[1][0] / P("x + 2")
    entries[-1][-1] = entries[-1][-1] / P("u + 1")
    return cls(entries) if cls is ExprMatrix else cls(ctx, entries)


def _inputs(ctx, seed):
    """The fields, a 3 x 3 twist on the first jet bundle, a 2 x 2
    dependent-index matrix and a 3 x 3 matrix on the base."""
    rng = random.Random(seed)
    base = [ctx.x, ctx.coord(0, 0), ctx.coord(1, 0)]
    first = base + [ctx.coord(0, 1), ctx.coord(1, 1)]
    sigma = _matrix(ctx, rng, 3, first, SigmaMatrix)
    return _fields(ctx), sigma, _matrix(ctx, rng, 2, base), _matrix(ctx, rng, 3, base)


def _items(d):
    return list(d.items())


@pytest.mark.parametrize("seed", [0, 1])
def test_prolongation_step_matches_loop(ctx, seed):
    Xs, sigma, Lambda, _ = _inputs(ctx, seed)
    assert not any(X.is_vertical for X in Xs[:2])
    for kwargs in ({}, {"S": sigma}, {"Lambda": Lambda}, {"Lambda": Lambda, "S": sigma}):
        assert _prolong(list(Xs), 2, **kwargs) == _loop_prolong(list(Xs), 2, **kwargs)


@pytest.mark.parametrize("seed", [0, 1])
def test_commutation_residuals_match_loop(ctx, seed):
    Xs, sigma, _, _ = _inputs(ctx, seed)
    Ys = sigma_prolong(Xs, sigma, 2)
    # the set's own twist gives zero residuals; its transpose nonzero ones
    other = SigmaMatrix(ctx, sigma.transpose().entries)
    for s in (sigma, other):
        assert _items(check_prolongation_commutation(Ys, s).residuals) == _items(_loop_commutation(Ys, s))
    assert not check_prolongation_commutation(Ys, other).holds


@pytest.mark.parametrize("seed", [0, 1])
def test_transfer_residuals_match_loop(ctx, seed):
    """On an involutive set whose structure functions are not all constant:
    [X1, X3] = -X3/(x + 1), [X2, X3] = X3/(x + 1), [X1, X2] = X1."""
    P = ctx.parse
    Xs = VectorFieldSet(
        [
            VectorField.on_base(ctx, P("1"), [P("0"), P("0")]),
            VectorField.on_base(ctx, P("x"), [P("u"), P("0")]),
            VectorField.on_base(ctx, P("0"), [P("0"), P("u/(x + 1)")]),
        ]
    )
    _, sigma, _, _ = _inputs(ctx, seed)
    rep = check_involution_transfer(Xs, sigma)
    assert rep.mu[0, 2, 2] == P("-1/(x + 1)")
    Q, q_contracted, R, contracted = _loop_transfer(Xs, sigma)
    assert _items(rep.Q) == _items(Q)
    assert _items(rep.Q_contracted) == _items(q_contracted)
    assert _items(rep.pointwise.residuals) == _items(R)
    assert _items(rep.contracted.residuals) == _items(contracted)
    assert not rep.pointwise.holds


@pytest.mark.parametrize("seed", [0])
def test_theta_from_mu_matches_loop(ctx, seed):
    Xs, _, _, A = _inputs(ctx, seed)
    rng = random.Random(seed + 100)
    base = [ctx.x, ctx.coord(0, 0), ctx.coord(1, 0)]
    mu = StructureFunctions.from_upper(
        3, {(i, j): [random_polynomial(rng, base, degree=1, terms=1) for _ in range(3)] for i in range(3) for j in range(i + 1, 3)}
    )
    assert theta_from_mu(A, Xs, mu).mu == _loop_theta(A, Xs, mu).mu


@pytest.mark.parametrize("seed", [0, 1])
def test_transform_fields_matches_loop(ctx, seed):
    Xs, sigma, _, A = _inputs(ctx, seed)
    Ys = sigma_prolong(Xs, sigma, 1)
    assert transform_fields(A, Ys) == _loop_transform(A, Ys)
    assert transform_fields(A, Xs) == _loop_transform(A, Xs)
