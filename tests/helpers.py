"""Shared test utilities, including the independent prox argmin oracle."""

import numpy as np


def project_simplex_l2(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    theta = css[rho] / float(rho + 1)
    return np.maximum(v - theta, 0.0)


def simplex_prox_argmin(z: np.ndarray, xi: np.ndarray, n_iters: int = 10_000,
                        step_c: float = 0.2) -> np.ndarray:
    """Generic numerical argmin of omega(u) + <xi - omega'(z), u> over the simplex.

    Projected subgradient with step c / sqrt(k), entirely independent of the
    closed-form path: entropy gradient plus Euclidean simplex projection.
    """
    z = np.asarray(z, dtype=float)
    xi = np.asarray(xi, dtype=float)
    lin = xi - (1.0 + np.log(z))
    u = np.full(len(z), 1.0 / len(z))
    floor = 1e-12
    for k in range(1, n_iters + 1):
        g = 1.0 + np.log(np.maximum(u, floor)) + lin
        u = project_simplex_l2(u - (step_c / np.sqrt(k)) * g)
    return u


def mild_simplex_point(setup, stream) -> np.ndarray:
    """Random interior simplex point bounded away from the boundary.

    The subgradient argmin oracle needs the prox target's coordinates above
    ~1e-3 to settle within its iteration budget, so cross-check instances
    mix a uniform floor into the draw.
    """
    g = setup.random_point(stream)
    g = g + 0.1
    return g / g.sum()


def step_one(setup, s, xi):
    """``setup.step`` on a stack of one at rate 1.0: the (logits, point) of
    one point."""
    from smpx.geometry import stack, unstack

    s, z = setup.step(stack([s]), stack([xi]), np.ones(1))
    return unstack(s)[0], unstack(z)[0]


def per_seed(fn):
    """The stacked oracle (zs, streams) of a per-point one fn(z, stream): one
    call per row, the results stacked.  An error is tagged with its row."""
    from smpx.errors import SmpxError
    from smpx.geometry import stack, unstack

    def oracle(zs, streams):
        out = []
        for row, z in enumerate(unstack(zs)):
            try:
                out.append(fn(z, streams[row]))
            except SmpxError as exc:
                if exc.row is None:
                    exc.row = row
                raise
        return stack(out)

    return oracle


def operator_at(operator, z):
    """A stacked operator's value at one point: its stack of one."""
    from smpx.geometry import stack, unstack

    return unstack(operator(stack([z])))[0]


def exact_at(inst, z):
    """``eigopt.exact_operator`` of an eig instance at one point."""
    from smpx import eigopt

    return operator_at(lambda zs: eigopt.exact_operator(inst, zs), z)


def parts(z) -> list:
    """The arrays of a point, dual vector or stack of them, x before y for a
    pair, one per size group for block matrices."""
    if hasattr(z, "x"):
        return parts(z.x) + parts(z.y)
    if hasattr(z, "stacks"):
        return list(z.stacks)
    return [np.asarray(z)]


def assert_same_bytes(a, b) -> None:
    """a and b have one dtype, one shape and the same bytes.

    Unlike == and np.array_equal this tells -0.0 from +0.0 (and one NaN
    payload from another), so it is the check for bit-identical paths.
    """
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b))))


# ---------------------------------------------------------------------------
# per-block reference loops for the stacked block-matrix kernels; each takes
# and returns plain lists of 2-D blocks and keeps the kernels' summation order


def ref_eigh(blocks):
    """(eigenvalues descending, eigenvectors) per block, one LAPACK call each."""
    out = []
    for b in blocks:
        vals, vecs = np.linalg.eigh(b)
        out.append((vals[::-1].copy(), vecs[:, ::-1].copy()))
    return out


def ref_entropy_map(blocks):
    decomp = ref_eigh(blocks)
    shift = max(vals[0] for vals, _ in decomp)
    ws = [np.exp(vals - shift) for vals, _ in decomp]
    total = sum(float(w.sum()) for w in ws)
    return [(q * (w / total)) @ q.T for (_, q), w in zip(decomp, ws)]


def ref_matrix_log(blocks):
    return [(q * np.log(np.maximum(vals, 1e-300))) @ q.T for vals, q in ref_eigh(blocks)]


def ref_spectahedron_extreme_points(structure):
    """Entropy-map images of +-6 e_d e_d^T, each through a decomposition."""
    from smpx import symmat
    from smpx.symmat import BlockSymMatrix

    out = []
    for (g, r), p in zip(structure.slots, structure.block_sizes):
        for d in range(p):
            for sign in (6.0, -6.0):
                stacks = [np.zeros((len(idx), q, q)) for q, idx in structure.groups]
                stacks[g][r, d, d] = sign
                out.append(symmat.entropy_map(BlockSymMatrix.from_stacks(structure, stacks)))
    return out


def ref_spectahedron_random_point(structure, stream):
    """random_point(interior=False): g g^T from one normals call per block,
    scaled to unit trace."""
    from smpx.symmat import BlockSymMatrix

    blocks = []
    for p in structure.block_sizes:
        g = stream.normals((p, p))
        blocks.append(g @ g.T)
    w = BlockSymMatrix(structure, blocks, _validate=False)
    return w * (1.0 / w.trace())


def ref_random_point(setup, stream):
    """random_point(stream, interior=False) one part at a time: x then y for
    a product, normalized exponential spacings on the simplex, the per-block
    draws of ``ref_spectahedron_random_point`` on the spectahedron; a ball
    point is the ball's own."""
    from smpx.geometry import Pair, ProductSetup, SimplexSetup, SpectahedronSetup

    if isinstance(setup, ProductSetup):
        x = ref_random_point(setup.sx, stream)
        return Pair(x, ref_random_point(setup.sy, stream))
    if isinstance(setup, SimplexSetup):
        g = -np.log1p(-stream.uniforms(setup.dim))
        return g / g.sum()
    if isinstance(setup, SpectahedronSetup):
        return ref_spectahedron_random_point(setup.structure, stream)
    return setup.random_point(stream, interior=False)


def ref_extreme_points(setup):
    """The extreme points one at a time: +-R e_j on the ball (the negated
    one with -0.0 off j), e_j on the simplex, the entropy-map images of
    ``ref_spectahedron_extreme_points`` on the spectahedron, and on a
    product the pairs (ex[i % len ex], ey[i % len ey]) up to the longer side."""
    from smpx.geometry import EuclideanBallSetup, Pair, ProductSetup, SimplexSetup

    if isinstance(setup, ProductSetup):
        ex, ey = ref_extreme_points(setup.sx), ref_extreme_points(setup.sy)
        if not ex or not ey:
            return []
        return [Pair(ex[i % len(ex)], ey[i % len(ey)]) for i in range(max(len(ex), len(ey)))]
    if isinstance(setup, SimplexSetup):
        return [row.copy() for row in np.eye(setup.dim)]
    if isinstance(setup, EuclideanBallSetup):
        out = []
        for j in range(setup.dim):
            e = np.zeros(setup.dim)
            e[j] = setup.radius
            out += [e.copy(), -e]
        return out
    return ref_spectahedron_extreme_points(setup.structure)


def ref_eig_payload(kind, params, seed):
    """The eig instance payload as the per-block generator builds it: one
    uniforms((p, p)) draw and one symmetrization per block, A_0 first, and
    a_inf from one eigvalsh per block of A_1..A_n."""
    from smpx.bench import _encode_array
    from smpx.rng import RandomStream

    n, sizes = params["n"], params["blocks"]
    scale = float(params.get("scale", 1.0))
    stream = RandomStream(seed)

    def sym_block(p):
        g = scale * (2.0 * stream.uniforms((p, p)).reshape(p, p) - 1.0)
        return 0.5 * (g + g.T)

    a0 = [sym_block(p) for p in sizes]
    mats = [[sym_block(p) for p in sizes] for _ in range(n)]
    a_inf = max(float(np.abs(np.linalg.eigvalsh(b)).max()) for m in mats for b in m)
    return {
        "format": "smpx-instance", "version": 3, "kind": kind, "n": n,
        "block_sizes": list(sizes), "a0": _encode_array(*a0),
        "a": _encode_array(*(b for m in mats for b in m)),
        "meta": {"seed": seed, "scale": scale, "a_inf": a_inf},
    }


def ref_frob_inner(xs, ys):
    return float(sum(np.sum(x * y) for x, y in zip(xs, ys)))


def _ref_flat(mats, i):
    """(n, p * p) rows of block i of every data matrix."""
    return np.stack([m[i] for m in mats]).reshape(len(mats), -1)


def ref_trace_vector(mats, y_blocks):
    """(Tr(y A_1), ..., Tr(y A_n)) with mats[j] the block list of A_{j+1}."""
    out = np.zeros(len(mats))
    for i, yb in enumerate(y_blocks):
        out += _ref_flat(mats, i) @ yb.ravel()
    return out


def ref_combination(a0, mats, x):
    return [
        a0b + (x @ _ref_flat(mats, i)).reshape(a0b.shape) for i, a0b in enumerate(a0)
    ]


def ref_exact_operator(inst, z):
    """The eig saddle operator at one point: the reference traces and the
    negated reference combination."""
    from smpx.geometry import Pair
    from smpx.symmat import BlockSymMatrix

    mats = [m.blocks for m in inst.mats]
    fy = [-a for a in ref_combination(inst.a0.blocks, mats, z.x)]
    return Pair(ref_trace_vector(mats, z.y.blocks),
                BlockSymMatrix(inst.structure, fy, _validate=False))


def ref_sample_xi(a0, mats, x, y_blocks, stream):
    """One randomized-oracle draw: (xi_x, xi_y blocks, j, i)."""
    def index(cumulative, u):  # smallest i with cumulative[i] >= u
        return min(int(np.searchsorted(cumulative, u, side="left")), len(cumulative) - 1)

    j = index(np.cumsum(x), stream.uniform())
    nu = np.maximum(np.array([np.trace(b) for b in y_blocks]), 0.0)
    i = index(np.cumsum(nu / nu.sum()), stream.uniform())
    ybar = y_blocks[i] / max(float(np.trace(y_blocks[i])), 1e-300)
    xi_x = _ref_flat(mats, i) @ ybar.ravel()
    return xi_x, [-(a + m) for a, m in zip(a0, mats[j])], j, i


# ---------------------------------------------------------------------------
# reference paths for the stacked probe bound and the composite oracle


def ref_lower_bound(problem, z, probes):
    """max over probes u of <F(u), z - u>, one probe at a time."""
    from smpx.geometry import inner

    return max(inner(operator_at(problem.operator, u), z - u) for u in probes)


def _ref_unit_spectral_sym(stream, p):
    q = stream.normals(p)
    nsq = float(np.dot(q, q))
    if nsq == 0.0:
        q = np.ones(p)
        nsq = float(p)
    sign = 1.0 if stream.uniform() < 0.5 else -1.0
    return (sign / nsq) * np.outer(q, q)


def ref_noisy_sample(comp, x, y_l, stream):
    """NoisyAffineComponent.sample with one stream call per variate."""
    u_f = _ref_unit_spectral_sym(stream, comp.p)
    f_hat = comp.base.value(x) + comp.rho_f * u_f
    u_g = _ref_unit_spectral_sym(stream, comp.p)
    signs = np.where(stream.uniforms(comp.n) < 0.5, 1.0, -1.0)
    bump = comp.rho_g * float(np.sum(u_g * np.asarray(y_l, dtype=float)))
    return f_hat, comp.base.grad_adjoint(x, y_l) + bump * signs


def ref_quadratic(comp, x, y_l):
    """Value B^T B + C_0 and adjoint gradient 2 <B_j, B y_l> of a quadratic
    component at one point, from one factor B = B_0 + sum_j x_j B_j."""
    flat = comp.bs.reshape(comp.n, -1)
    b = (np.asarray(x, dtype=float) @ flat).reshape(comp.bs.shape[1:]) + comp.b0
    return b.T @ b + comp.c0, 2.0 * (flat @ (b @ y_l).ravel())


def ref_component_draw(comp, x, y_l, stream, exact=False):
    """One component's (value, adjoint gradient) at one point: a noisy draw
    unless exact, a quadratic from ``ref_quadratic``, else the exact data."""
    from smpx.composite import NoisyAffineComponent, QuadraticMatrixComponent

    if isinstance(comp, NoisyAffineComponent):
        if not exact:
            return ref_noisy_sample(comp, x, y_l, stream)
        comp = comp.base
    if isinstance(comp, QuadraticMatrixComponent):
        return ref_quadratic(comp, x, y_l)
    return comp.value(x), comp.grad_adjoint(x, y_l)


def ref_composite_oracle(cp, z, stream, exact=False):
    """Oracle draw (the exact operator if exact) that adds one zero-padded
    block matrix per component.

    Each draw is weighted by its beta, and each padded term is stacked from
    a list of blocks, zeros except block l.
    """
    from smpx.geometry import Pair
    from smpx.symmat import BlockSymMatrix

    structure = z.y.structure
    sizes = structure.block_sizes
    fx = acc_y = None
    for l, comp in enumerate(cp.components):
        f_hat, gx = ref_component_draw(comp, z.x, z.y.blocks[l], stream, exact)
        f_hat, gx = cp.betas[l] * f_hat, cp.betas[l] * gx
        blocks = [f_hat if i == l else np.zeros((p, p)) for i, p in enumerate(sizes)]
        term = BlockSymMatrix(structure, blocks, _validate=False)
        fx = gx if fx is None else fx + gx
        acc_y = term if acc_y is None else acc_y + term
    return Pair(fx, -acc_y)


# ---------------------------------------------------------------------------
# the per-point solver loop, the reference of the lock-step batch


def ref_entropy_map_and_log_trace(b):
    """(entropy_map(b), log Tr exp(b)) of one block matrix from one
    decomposition: the shift a Python max over the groups, the total a
    Python sum of the per-block sums in block order."""
    from smpx import symmat
    from smpx.symmat import BlockSymMatrix, Eigh

    decomp = symmat.cached_eigh(b)
    shift = max(float(vals[:, 0].max()) for vals in decomp.vals)
    ws = [np.exp(vals - shift) for vals in decomp.vals]
    structure = b.structure
    total = sum(structure.in_block_order([w.sum(axis=1) for w in ws]).tolist())
    lams = [w / total for w in ws]
    stacks = [(q * lam[:, None, :]) @ q.transpose(0, 2, 1) for q, lam in zip(decomp.vecs, lams)]
    z = BlockSymMatrix.from_stacks(structure, stacks, Eigh(structure, lams, decomp.vecs))
    return z, shift + np.log(total)


def ref_step(setup, s, xi):
    """One point's (logits, point) of prox(z, xi), step by step as the
    per-point solver took it: the ball's projection, ``math.log`` of the
    simplex total, and the spectahedron through
    ``ref_entropy_map_and_log_trace``."""
    import math

    from smpx.geometry import EuclideanBallSetup, Pair, ProductSetup, SimplexSetup
    from smpx.symmat import BlockSymMatrix

    if isinstance(setup, ProductSetup):
        sx, x = ref_step(setup.sx, s.x, setup.scale_x * xi.x)
        sy, y = ref_step(setup.sy, s.y, setup.scale_y * xi.y)
        return Pair(sx, sy), Pair(x, y)
    if isinstance(setup, EuclideanBallSetup):
        v = s - xi
        n = float(np.linalg.norm(v))
        if n > setup.radius:
            v = v * (setup.radius / n)
        return v, v
    if isinstance(setup, SimplexSetup):
        s = s - xi
        s -= s.max()
        w = np.exp(s)
        total = w.sum()
        s -= math.log(total)
        return s, w / total
    b = s - xi
    z, log_trace = ref_entropy_map_and_log_trace(b)
    stacks = [a.copy() for a in b.stacks]
    for a, (p, _) in zip(stacks, setup.structure.groups):
        a.reshape(len(a), p * p)[:, ::p + 1] -= log_trace
    return BlockSymMatrix.from_stacks(setup.structure, stacks), z


def ref_run(method, problem, oracle, gamma, t, seed, checkpoints, error_fn):
    """(averages, errors) of one seed's run, one point at a time, with the
    per-point oracle(z, stream)."""
    from smpx.rng import RandomStream

    setup = problem.setup
    stream = RandomStream(seed)
    r = setup.center
    s = setup.logits(r)
    acc = None
    averages, errors = [], {}
    for tau in range(1, t + 1):
        if method == "smp":
            w = ref_step(setup, s, gamma * oracle(r, stream))[1]
            s, r = ref_step(setup, s, gamma * oracle(w, stream))
        else:
            s, r = ref_step(setup, s, gamma * oracle(r, stream))
            w = r
        acc = w if acc is None else acc + w
        if tau in checkpoints:
            avg = (1.0 / tau) * acc
            averages.append(avg)
            for name, value in error_fn(avg).items():
                errors.setdefault(name, []).append(float(value))
    return averages, errors


def v3_parts(path):
    """(header, data) of a version-3 instance file."""
    import json

    from smpx.bench import _MAGIC

    raw = open(path, "rb").read()
    assert raw.startswith(_MAGIC)
    eol = raw.index(b"\n", len(_MAGIC))
    start = eol + 1 + int(raw[len(_MAGIC):eol])
    return json.loads(raw[eol + 1:start]), raw[start:]


def write_v3(path, header, data, length=None):
    """Write a version-3 instance file of `header` (a dict, or the header's
    bytes) and `data`; `length`, if given, replaces the header's length."""
    from smpx.bench import _MAGIC, canonical_json

    text = header if isinstance(header, bytes) else canonical_json(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC + b"%d\n" % (len(text) if length is None else length) + text + data)


def _with_entry(data, i, change):
    flat = np.frombuffer(data, "<f8").copy()
    flat[i] = change(flat[i])
    return flat.tobytes()


# The file that V3_DEFECTS change: n = 3, blocks [2, 2], so the data is
# `a`, (3, 8), then `a0`, (1, 8).  Entry 17 of the data is the (0, 1)
# entry of the first block of the last data matrix.
V3_BASE = ("eig_min", {"n": 3, "blocks": [2, 2]}, 1)

# id -> (header, data) -> (header, data, header length or None), and the
# pattern that the InputError's message matches
V3_DEFECTS = {
    "data-truncated": (lambda h, d: (h, d[:-8], None),
                       r"field 'a0' of shape \[1, 8\] runs past the end of the file"),
    "data-trailing": (lambda h, d: (h, d + bytes(8), None),
                      "8 bytes of data follow the last array 'a0'"),
    "header-length-past-end": (lambda h, d: (h, d, 10**6),
                               "header length 1000000 runs past the end"),
    "header-length-negative": (lambda h, d: (h, d, -5), "header length must be a line"),
    "header-not-utf8": (lambda h, d: (b"\xff" + b"{}", d, None), "header is not UTF-8 JSON"),
    "header-not-json": (lambda h, d: (b'{"n": 3', d, None), "header is not UTF-8 JSON"),
    "header-not-object": (lambda h, d: (b"[1, 2]", d, None), "header is not a JSON object"),
    "unknown-version": (lambda h, d: (dict(h, version=4), d, None),
                        "unknown instance format version 4"),
    "not-an-instance": (lambda h, d: (dict(h, format="x"), d, None), "is not an instance file"),
    "shape-of-the-wrong-rank": (lambda h, d: (dict(h, a=[3, 8, 1]), d, None),
                                "field 'a' must be a shape of 2 integers"),
    "shape-disagrees-with-n": (lambda h, d: (dict(h, n=4), d, None),
                               r"field 'a' has shape \(3, 8\), expected \(4, 8\)"),
    "shape-disagrees-with-block-sizes": (
        lambda h, d: (dict(h, block_sizes=[2, 1, 1]), d, None),
        r"field 'a0' has shape \(1, 8\), expected \(1, 6\)"),
    "count-past-the-file": (lambda h, d: (dict(h, n=10**15, a=[10**15, 8]), d, None),
                            "field 'a' must be a shape of 2 integers in"),
    "count-larger-than-the-file": (lambda h, d: (dict(h, a=[300, 300]), d, None),
                                   r"field 'a' of shape \[300, 300\] runs past the end"),
    "nan-entry": (lambda h, d: (h, _with_entry(d, 17, lambda v: np.nan), None),
                  "field 'a': non-finite entries in block"),
    "asymmetric-block": (lambda h, d: (h, _with_entry(d, 17, lambda v: v + 1e-6), None),
                         "field 'a': block is not symmetric within tolerance"),
}


def write_v3_defect(path, defect):
    """Write the V3_BASE instance to `path` with the V3_DEFECTS change
    `defect`; return the pattern of the message it raises."""
    from smpx.bench import generate_instance

    change, pattern = V3_DEFECTS[defect]
    generate_instance(*V3_BASE, path)
    write_v3(path, *change(*v3_parts(path)))
    return pattern
