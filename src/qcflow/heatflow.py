"""Runge-Kutta-Legendre super-steps of the harmonic-map heat flow.

The flow du/dt = tau(u) is discretised on a uniform grid over a
coordinate box [-X, X]^{n-1} x [s_lo, s_hi], truncated by freezing the
outermost node layer at the initial map (the flow stays at bounded
distance from its initial data, which justifies the Dirichlet surrogate).
The Euler step `flow_step` moves interior nodes along the geodesic in
the direction of the tension field; it is the first stage of every
super-step of `run_flow`.

A FlowGrid stores its node values component-major: one row of an
(n, nodes) array per coordinate, nodes in C order, and `grid.u` is an
(..., n) view of that store.  In flat node indices a step along axis k
is a fixed stride, so all interior nodes lie in the one range [lo, hi)
with lo = sum of the strides, and a stencil neighbour of the range is the
range shifted by a stride.  Every kernel (jets, tension, geodesic step)
runs over that range as 1-D contiguous slices, into arrays the grid
allocates once.  The jets (Jacobian and coordinate Laplacian) multiply
by the reciprocals 0.5/h and 1/h^2 (within 2 ulp of dividing), and the
tension pass also writes the energy
density from the squared Jacobian entries it forms, bit for bit
`tension.energy_from_jet`.  The range also holds the boundary nodes
between interior rows; their jets mix neighbours from adjacent rows and
mean nothing, so their tension is set to 0 (geodesic_step then returns
them bit for bit), and the blow-up guard and the statistics read the
interior nodes only.  `interior_jets`, `tension` and `energy` return
read-only interior views of the grid's arrays, valid until the node
values change.  The grid remembers whether its jets and its tension pass
hold the current node values, so a record's sup|tau| and mean energy
and the next step's tension share one jet and one tension pass;
`grid.u` is read-only and every write to the store goes through the
setter or a step.

`run_flow` advances by RKL2 super-steps (Meyer, Balsara & Aslam,
J. Comput. Phys. 257, 2014).  A super-step of length delta and s stages
is stable where the Euler step dt is as long as delta <= (s^2 + s - 2)/4
dt, 67.5 dt at s = RKL_STAGES = 16, and evaluates the tension s times:
4.2 base steps per evaluation, against 1 for Euler.  Stage 1 is
`flow_step` with step mu_tilde_1 delta; stages 2..s combine the last two
stages, Y_0, tau(Y_{j-1}) and tau(Y_0) in coordinates, in place over the
flat range (`rkl2_coefficients`).  Every stage polynomial stays within
[-1, 1] on the stable range, so the energy guard before each stage keeps
its meaning.  The price is damping: a super-step multiplies the stiff
modes (lambda dt in [1, 1.8]) by up to 0.62, where Euler steps to the
same time remove them, so rough initial data leaves more of its noise in
the first records.  Stability needs the base step dt within the explicit
limit 2/rho, rho the spectral radius of the linearised tension, which
`spectral_radius` estimates by the nonlinear power method of RKC
(Sommeijer, Shampine & Verwer, J. Comput. Appl. Math. 88, 1998) before
the first step.  A run is one uniform schedule: M equal super-steps, the
last ending exactly at t_end.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tension as tn
from .geometry import STEP_SCRATCH_ROWS, dist, geodesic_step, log_map

__all__ = [
    "FlowGrid",
    "FlowTrace",
    "init_flow",
    "flow_step",
    "rkl2_coefficients",
    "spectral_radius",
    "run_flow",
    "radial_bump_map",
    "cfl_time_step",
    "check_flow_plan",
]

CFL_COEFF = 0.2   # dt = CFL_COEFF * (min spacing / s_hi)^2; sits just at the
                  # frozen-coefficient FTCS boundary but the pinned top layer
                  # keeps it stable in practice (the blow-up guard watches it)
BLOWUP_FACTOR = 10.0
BLOWUP_REASON = "energy blow-up: CFL violation"
STATS_MARGIN = 3  # stencil widths excluded from interior statistics
RKL_STAGES = 16    # stages of the longest RKL2 super-step, which covers 67.5 base steps;
                   # at 24 the workload's time error rose from 8.3e-5 to 4.5e-4 and its
                   # final sup|tau| fell 1%
POWER_EPS = 1e-7   # spectral_radius: size of the directional difference
POWER_RTOL = 1e-3  # spectral_radius: relative change that stops the iteration
POWER_MAX_ITER = 50  # spectral_radius: iteration cap (7-13 used at 9^3-33^3)
DEFAULT_DT_RHO = 1.9  # run_flow: cap on the default dt * rho, 5% inside the limit 2
                      # because the power method converges to rho from below
RECORDS = 40       # run_flow: records kept by the default record_every
# Longest plan run_flow accepts.  A 16-stage super-step on the coarsest grid
# the statistics allow (7^3) costs 2.1 ms (a 144 us Euler step and 15
# combined stages, 2-core x86, numpy 2.4.6), so a longer plan runs for over
# half an hour on every grid.  Criterion 7 takes 76.
MAX_SUPER_STEPS = 10**6


@dataclass
class FlowTrace:
    """Recorded flow statistics plus termination flags, as data; `qcflow flow` writes them."""

    times: np.ndarray
    sup_tension: np.ndarray
    sup_drift: np.ndarray
    mean_energy: np.ndarray
    aborted: bool = False
    abort_reason: str = ""
    monotone_band = 0.05  # criterion 7: allowed rise of sup|tau| over its initial value

    @property
    def decayed(self):
        return self.sup_tension[-1] < self.sup_tension[0]

    @property
    def within_band(self):
        """No recorded value exceeds the initial one by more than the band."""
        return bool(
            np.all(self.sup_tension <= self.sup_tension[0] * (1.0 + self.monotone_band))
        )


class FlowGrid:
    """Map values on a coordinate grid with a frozen boundary layer.

    Component-major storage and flat-range kernels: see the module docstring.
    """

    def __init__(self, box, resolution, values, n=3):
        """values: node values (..., n), or a map evaluated at the nodes."""
        X, s_lo, s_hi = box
        if s_lo <= 0:
            raise ValueError("box must sit strictly inside the half-space")
        if s_lo >= s_hi:
            raise ValueError(f"box needs s_lo < s_hi, got s_lo={s_lo}, s_hi={s_hi}")
        if isinstance(resolution, int):
            resolution = (resolution,) * n
        if min(resolution) < 2 * STATS_MARGIN + 1:
            raise ValueError("resolution too coarse for the tension stencil")
        self.box = (float(X), float(s_lo), float(s_hi))
        self.resolution = shape = tuple(resolution)
        self.n = n
        axes = [np.linspace(-X, X, resolution[i]) for i in range(n - 1)]
        axes.append(np.linspace(s_lo, s_hi, resolution[-1]))
        self.spacings = np.array([ax[1] - ax[0] for ax in axes])
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)  # (..., n)
        heights = nodes[..., -1].ravel()

        size = heights.size
        self._strides = [int(np.prod(shape[ax + 1:])) for ax in range(n)]
        # per axis: the stride and the factors the jets multiply by, 1/(2h) and 1/h^2
        self._stencil = [(st, 0.5 / h, 1.0 / h**2) for st, h in zip(self._strides, self.spacings)]
        lo = sum(self._strides)
        hi = sum((r - 2) * st for r, st in zip(shape, self._strides)) + 1
        self._lo, self._hi = lo, hi
        self._store = np.empty((n, size))
        self._fresh = set()  # "jets" and "tension" while those passes hold the store's values
        self._u = self._nodes_last(self._store)
        self._u.flags.writeable = False
        if callable(values):
            try:  # an extension refuses non-finite boundary data
                values = values(nodes)
            except FloatingPointError as exc:
                raise ValueError(f"non-finite initial data: {exc}") from None
        self.u = values
        del nodes, values  # copied into heights and the store; let them go before the work arrays
        if np.any(self.u[..., -1] <= 0.0):
            raise ValueError("initial map has non-positive heights")
        self.u0 = self.u.copy()

        # work arrays, allocated once; each kernel writes lanes [lo, hi)
        self._jac = np.empty((n, n, size))
        self._lap = np.empty((n, size))
        self._tau = np.empty((n, size))
        self._norm, self._energy = np.empty((2, size))
        self._stage = np.empty((n, hi - lo))  # one block: the checks read it unbuffered
        self._rkl = np.empty((3, n, hi - lo))  # Y_0, tau(Y_0) and Y_{j-2} of a super-step
        self._scratch = np.empty((max(tn.SCRATCH_ROWS, STEP_SCRATCH_ROWS), hi - lo))
        inside = np.zeros(shape, dtype=bool)
        inside[self.interior()] = True
        self._inside = inside.ravel()[lo:hi]
        self._edge = np.flatnonzero(~self._inside) + lo  # boundary lanes of the range

        # kernel arguments over the range, and read-only interior views
        r = slice(lo, hi)
        self._val_r = self._store[:, r].T
        self._jac_r = np.moveaxis(self._jac[..., r], (0, 1), (-2, -1))
        self._lap_r = self._lap[:, r].T
        self._s_r = heights[r]
        self._tau_r = self._tau[:, r].T
        self._norm_r = self._norm[r]
        self._energy_r = self._energy[r]
        self._stage_r = self._stage.T
        self._jets_in = tuple(self._core_view(a) for a in
                              (self._store, self._jac, self._lap, heights))
        self._tau_in, self._norm_in, self._energy_in = (
            self._core_view(a) for a in (self._tau, self._norm, self._energy))

    def _nodes_last(self, buf):
        """(components..., nodes) array as a (grid..., components...) view."""
        lead = buf.ndim - 1
        grid = buf.reshape(buf.shape[:-1] + self.resolution)
        return np.moveaxis(grid, tuple(range(lead)), tuple(range(-lead, 0)))

    def _core_view(self, buf):
        view = self._nodes_last(buf)[self.interior()]
        view.flags.writeable = False
        return view

    @property
    def u(self):
        """Node values (..., n), a read-only view of the component-major store."""
        return self._u

    @u.setter
    def u(self, values):
        values = np.asarray(values, dtype=float)
        if values.shape != self._u.shape:
            raise ValueError("values shape does not match the grid")
        self._nodes_last(self._store)[...] = values
        self._fresh.clear()

    def interior(self):
        """Slices of the nodes inside the frozen boundary layer."""
        return tuple(slice(1, -1) for _ in range(self.n))

    def _fill_jets(self):
        """Central differences over the range as shifted 1-D slices; lap sums the axes in order."""
        if "jets" in self._fresh:
            return
        lo, hi = self._lo, self._hi
        minus_2val, second = self._scratch[:2]
        for g, ug in enumerate(self._store):
            np.multiply(-2.0, ug[lo:hi], out=minus_2val)
            lap = self._lap[g, lo:hi]
            for ax, (st, half_inv_h, inv_h2) in enumerate(self._stencil):
                up = ug[lo + st:hi + st]
                um = ug[lo - st:hi - st]
                jac = self._jac[g, ax, lo:hi]
                np.subtract(up, um, out=jac)
                jac *= half_inv_h
                d2 = second if ax else lap
                np.add(up, minus_2val, out=d2)
                d2 += um
                d2 *= inv_h2
                if ax:
                    lap += d2
        self._fresh.add("jets")

    def interior_jets(self):
        """Value, Jacobian and coordinate Laplacian at interior nodes.

        Read-only views (val and lap (..., n), jac (..., n, n), heights
        (...)) of the grid's buffers, valid until the next step; every
        component jac[..., g, i] and lap[..., g] lies in one contiguous block.
        """
        self._fill_jets()
        return self._jets_in

    def tension(self):
        """Tension vectors and norms at interior nodes (grid stencil).

        Read-only views, valid until the next step; the boundary lanes of
        the range get tension 0.
        """
        self._fill_tension()
        return self._tau_in, self._norm_in

    def _fill_tension(self):
        """Tension, norm and energy density over the range, from one jet pass."""
        self._fill_jets()
        if "tension" not in self._fresh:
            tn.tension_from_jet(self._val_r, self._jac_r, self._lap_r, self._s_r,
                                out=(self._tau_r, self._norm_r), scratch=self._scratch,
                                energy=self._energy_r)
            self._tau[:, self._edge] = 0.0
            self._fresh.add("tension")

    def energy(self):
        """Energy density at interior nodes (a read-only view, valid until the next step)."""
        self._fill_tension()
        return self._energy_in

    def stats_view(self, arr):
        """Restrict an interior-shaped array to the statistics region."""
        m = STATS_MARGIN - 1  # arr is already one layer in
        return arr[tuple(slice(m, -m) for _ in range(self.n))]

    def sup_tension(self):
        _, norm = self.tension()
        return float(np.max(self.stats_view(norm)))

    def sup_drift(self):
        """max |u - u0| over interior nodes; the frozen layer is taken to hold u0's values."""
        core = self.interior()
        return float(np.max(dist(self.u[core], self.u0[core])))


def init_flow(f, box, resolution, order=None):
    """Grid carrying the good extension of the boundary map f; the extension
    and its node workspace are gone before the grid allocates its work arrays."""
    from .extension import DEFAULT_ORDER, GoodExtension

    return FlowGrid(box, resolution,
                    lambda nodes: GoodExtension(f, order=order or DEFAULT_ORDER)(nodes), f.dim + 1)


def cfl_time_step(grid):
    """Stability-limited step CFL_COEFF (min spacing / s_hi)^2."""
    return CFL_COEFF * (float(np.min(grid.spacings)) / grid.box[2]) ** 2


def check_flow_plan(box, resolution, t_end, dt=None):
    """ValueError, before any grid is built, for a flow of over MAX_SUPER_STEPS super-steps.

    resolution is the node count per axis.  The base step is dt capped at
    the CFL step, which the default step never exceeds; a larger dt is
    stable only up to 2/rho, at most 1.6 CFL steps (rho dt_CFL = 1.25 at
    7^3, rising with the resolution).  A CFL step that underflows to 0
    refuses every t_end.
    """
    X, s_lo, s_hi = box
    cfl = CFL_COEFF * (min(2.0 * X, s_hi - s_lo) / (resolution - 1) / s_hi) ** 2
    _check_plan_length(box, resolution, t_end, dt, cfl if dt is None else min(dt, cfl))


def _check_plan_length(box, resolution, t_end, dt, step):
    """ValueError when t_end takes more than MAX_SUPER_STEPS super-steps of base step `step`."""
    if not t_end <= MAX_SUPER_STEPS * _reach(RKL_STAGES) * step:
        given = "dt unset" if dt is None else f"dt={dt:g}"
        raise ValueError(
            f"box_x={box[0]:g}, resolution={resolution}, t_end={t_end:g}, {given}: the flow "
            f"needs more than {MAX_SUPER_STEPS} super-steps of base step {step:.3g}")


def flow_step(grid, dt, max_energy=np.inf):
    """One intrinsic forward-Euler step; boundary layer untouched.

    Every interior node moves along the geodesic from its current value
    in the direction of the tension vector; the boundary lanes of the
    range carry tension 0, so geodesic_step returns them bit for bit and
    the whole range is written back.  Raises FloatingPointError when the
    energy density of the current values exceeds max_energy at an
    interior node (the blow-up guard), or when the step produces invalid
    node values; the grid is then left as it was.
    """
    _guard_energy(grid, max_energy)
    geodesic_step(grid._val_r, grid._tau_r, dt, out=grid._stage_r, scratch=grid._scratch)
    _accept_stage(grid)
    return grid


def _guard_energy(grid, max_energy):
    """Tension pass of the current values; FloatingPointError when their
    energy density exceeds max_energy at an interior node."""
    grid._fill_tension()
    if np.max(grid._energy_r, where=grid._inside, initial=-np.inf) > max_energy:
        raise FloatingPointError(BLOWUP_REASON)


def _accept_stage(grid):
    """Write grid._stage over the range; FloatingPointError, with the grid
    left as it was, when it holds non-finite values or non-positive heights."""
    moved = grid._stage_r
    if not np.all(np.isfinite(moved)) or np.any(moved[..., -1] <= 0.0):
        raise FloatingPointError("flow step produced invalid node values")
    grid._val_r[...] = moved
    grid._fresh.clear()


def _reach(s):
    """Base steps that an RKL2 super-step of s stages covers, (s^2 + s - 2) / 4.

    Its stage polynomials stay within [-1, 1] for lambda delta up to twice
    this, so a super-step of length delta <= _reach(s) dt is stable where
    the Euler step dt is (lambda dt <= 2).
    """
    return (s * s + s - 2) / 4


def rkl2_coefficients(s):
    """(mu, nu, mu_tilde, gamma_tilde) of the s stages of an RKL2 super-step.

    Entry j - 1 belongs to stage j, which sets
    Y_j = mu Y_{j-1} + nu Y_{j-2} + (1 - mu - nu) Y_0
          + mu_tilde delta tau(Y_{j-1}) + gamma_tilde delta tau(Y_0)
    in a super-step of length delta (Meyer, Balsara & Aslam, J. Comput.
    Phys. 257, 2014): with b_0 = b_1 = 1/3, b_j = (j^2 + j - 2) / (2j(j + 1)),
    a_j = 1 - b_j and w_1 = 1 / _reach(s), mu_j = (2j - 1) b_j / (j b_{j-1}),
    nu_j = -(j - 1) b_j / (j b_{j-2}), mu_tilde_j = mu_j w_1 and
    gamma_tilde_j = -a_{j-1} mu_tilde_j.  Stage 1 is the Euler step
    Y_1 = Y_0 + b_1 w_1 delta tau(Y_0) (mu = 1, nu = gamma_tilde = 0).  On
    a mode of rate lambda, stage j multiplies by a_j + b_j P_j(1 - w_1 lambda
    delta), P_j the Legendre polynomial, and the last stage is second order.
    """
    j = np.arange(2, s + 1)
    b = np.concatenate(([1 / 3, 1 / 3], (j * j + j - 2) / (2.0 * j * (j + 1))))
    mu, nu, gamma = np.ones(s), np.zeros(s), np.zeros(s)
    mu[1:] = (2 * j - 1) / j * b[2:] / b[1:-1]
    nu[1:] = -(j - 1) / j * b[2:] / b[:-2]
    mu_tilde = mu / _reach(s)
    mu_tilde[0] = b[1] / _reach(s)
    gamma[1:] = -(1.0 - b[1:-1]) * mu_tilde[1:]
    return mu, nu, mu_tilde, gamma


def _super_step(grid, delta, coefficients, max_energy):
    """One RKL2 super-step of length delta; stage 1 is `flow_step`.

    Stages 2..s combine in place over the range, with Y_0, tau(Y_0) and
    Y_{j-2} in the grid's stage arrays.  Each runs the energy guard on
    Y_{j-1} and the checks of `flow_step` on Y_j, whose boundary lanes
    are copied back from Y_0: the combination is not a bitwise identity
    on them.
    """
    lo, hi = grid._lo, grid._hi
    y, tau, new = grid._store[:, lo:hi], grid._tau[:, lo:hi], grid._stage
    y0, tau0, y_prev = grid._rkl
    edge = grid._edge - lo
    mu, nu, mu_tilde, gamma = coefficients
    grid.tension()  # the pass that stage 1 reuses
    y0[...] = y
    tau0[...] = tau
    y_prev[...] = y
    flow_step(grid, mu_tilde[0] * delta, max_energy)
    for j in range(1, len(mu)):
        _guard_energy(grid, max_energy)
        np.multiply(y, mu[j], out=new)
        y_prev *= nu[j]
        new += y_prev
        for coef, term in ((1.0 - mu[j] - nu[j], y0), (mu_tilde[j] * delta, tau),
                           (gamma[j] * delta, tau0)):
            np.multiply(term, coef, out=y_prev)
            new += y_prev
        y_prev[...] = y
        new[:, edge] = y0[:, edge]
        _accept_stage(grid)


def spectral_radius(grid):
    """Spectral radius of the linearised grid tension, by the nonlinear power method.

    Iterates v <- (tau(u + eps v) - tau(u)) / eps, eps = POWER_EPS, from a
    checkerboard over the interior nodes (+-1 by the parity of i + j + k,
    close to the stencil's fastest mode) until the norm ratio changes by
    less than POWER_RTOL.  The node values are kept in grid._stage and
    restored bit for bit; tau(u) and the iterate v take two of the RKL2
    stage rows, which a super-step fills afresh.
    """
    lo, hi = grid._lo, grid._hi
    values, saved = grid._store[:, lo:hi], grid._stage
    saved[...] = values
    tau = grid._tau[:, lo:hi]
    tau0, v = grid._rkl[:2]
    grid.tension()
    tau0[...] = tau
    checkerboard = np.ones(())
    for r in grid.resolution:
        checkerboard = np.multiply.outer(checkerboard, (-1.0) ** np.arange(r))
    v[...] = checkerboard.ravel()[lo:hi]
    v *= grid._inside
    scale = math.sqrt(v.size)
    rho = prev = 0.0
    try:
        for _ in range(POWER_MAX_ITER):
            v *= scale / math.sqrt(np.einsum("ij,ij->", v, v))
            np.multiply(v, POWER_EPS, out=values)
            values += saved
            grid._fresh.clear()
            grid.tension()
            np.subtract(tau, tau0, out=v)
            v /= POWER_EPS
            rho = math.sqrt(np.einsum("ij,ij->", v, v)) / scale
            if rho == 0.0 or abs(rho - prev) <= POWER_RTOL * rho:
                break
            prev = rho
    finally:
        values[...] = saved
        grid._fresh.clear()
    return rho


def _super_steps(dt, t_end):
    """(M, delta, coefficients): M super-steps of length delta = t_end / M.

    M = ceil(t_end / (_reach(RKL_STAGES) dt)), and each super-step has the
    fewest stages s with _reach(s) dt >= delta.
    """
    m = math.ceil(t_end / (_reach(RKL_STAGES) * dt))
    delta = t_end / m
    stages = next((s for s in range(2, RKL_STAGES) if _reach(s) * dt >= delta), RKL_STAGES)
    return m, delta, rkl2_coefficients(stages)


def run_flow(grid, t_end=1.0, dt=None, record_every=None):
    """Run the heat flow on grid and record (t, sup|tau|, sup drift, mean energy).

    Advances by M uniform RKL2 super-steps of at most RKL_STAGES stages,
    each at most 67.5 base steps dt long (by default the CFL step, capped
    at DEFAULT_DT_RHO / spectral_radius); super-step k ends at
    t_end k / M, and the last exactly at t_end.  A record is taken at the
    start, every record_every super-steps (by default at most RECORDS after
    the start) and at t_end.  Aborts with a partial trace on energy
    blow-up: before the first step, leaving the grid unchanged, when dt
    exceeds the explicit limit 2 / spectral_radius; before every stage and
    at every record when the energy density exceeds BLOWUP_FACTOR times
    its initial maximum.  It also aborts on invalid node values; the grid
    then holds the last accepted stage.  Raises ValueError, before any
    step, when t_end takes more than MAX_SUPER_STEPS super-steps (see
    `check_flow_plan`).  Returns (FlowTrace, FlowGrid).
    """
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    rho = spectral_radius(grid)
    given = dt
    if dt is None:
        dt = min(cfl_time_step(grid), DEFAULT_DT_RHO / rho if rho else math.inf)
    _check_plan_length(grid.box, grid.resolution, t_end, given, dt)
    m, delta, coefficients = _super_steps(dt, t_end)
    if record_every is None:
        record_every = math.ceil(m / RECORDS)
    rows = []

    def record(t):
        """Append the record at time t; returns the largest interior energy density."""
        sup_tau, sup_drift = grid.sup_tension(), grid.sup_drift()
        energy = grid.energy()  # a view that the next step overwrites
        rows.append((t, sup_tau, sup_drift, float(np.mean(grid.stats_view(energy)))))
        return float(np.max(energy))

    max_energy = BLOWUP_FACTOR * max(record(0.0), 1e-30)
    stable = dt * rho <= 2.0
    aborted, reason = (False, "") if stable else (True, BLOWUP_REASON)
    for k in range(1, m + 1 if stable else 1):
        try:
            _super_step(grid, delta, coefficients, max_energy)
        except FloatingPointError as exc:
            aborted, reason = True, str(exc)
            break
        if k % record_every == 0 or k == m:
            if record(t_end if k == m else t_end * k / m) > max_energy:
                aborted, reason = True, BLOWUP_REASON
                break
    return FlowTrace(*np.array(rows).T, aborted, reason), grid


def radial_bump_map(center, amp, width):
    """Rotation-equivariant radial perturbation of the identity.

    Moves p along the radial geodesic from center by amp exp(-rho^2/w^2)
    rho, so the tension field is a radial function of rho (up to
    discretisation).
    """
    center = np.asarray(center, dtype=float)

    def ev(pts):
        pts = np.asarray(pts, dtype=float)
        w = -log_map(pts, np.broadcast_to(center, pts.shape))  # points away
        rho = np.linalg.norm(w, axis=-1) / pts[..., -1]
        fac = amp * np.exp(-((rho / width) ** 2))
        return geodesic_step(pts, w, fac)

    return ev
