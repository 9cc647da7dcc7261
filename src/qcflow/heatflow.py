"""Explicit intrinsic time-stepping of the harmonic-map heat flow.

The flow du/dt = tau(u) is discretised on a uniform grid over a
coordinate box [-X, X]^{n-1} x [s_lo, s_hi], truncated by freezing the
outermost node layer at the initial map (the flow stays at bounded
distance from its initial data, which justifies the Dirichlet surrogate).
Each step moves interior nodes along the geodesic in the direction of
the tension field.
"""

import csv
from dataclasses import dataclass

import numpy as np

from . import tension as tn
from .geometry import dist, geodesic_step, log_map
from .heatkernel import RadialKernel, _panel_quad

__all__ = [
    "FlowGrid",
    "FlowTrace",
    "init_flow",
    "flow_step",
    "run_flow",
    "hamilton_check",
    "radial_bump_map",
    "cfl_time_step",
]

CFL_COEFF = 0.2   # dt = CFL_COEFF * (min spacing / s_hi)^2; sits just at the
                  # frozen-coefficient FTCS boundary but the pinned top layer
                  # keeps it stable in practice (the blow-up guard watches it)
BLOWUP_FACTOR = 10.0
BLOWUP_REASON = "energy blow-up: CFL violation"
STATS_MARGIN = 3  # stencil widths excluded from interior statistics


@dataclass
class FlowTrace:
    """Recorded flow statistics plus termination flags."""

    times: np.ndarray
    sup_tension: np.ndarray
    sup_drift: np.ndarray
    mean_energy: np.ndarray
    aborted: bool = False
    abort_reason: str = ""
    monotone_band: float = 0.05

    @property
    def decayed(self):
        return self.sup_tension[-1] < self.sup_tension[0]

    @property
    def within_band(self):
        """No recorded value exceeds the initial one by more than the band."""
        return bool(
            np.all(self.sup_tension <= self.sup_tension[0] * (1.0 + self.monotone_band))
        )

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["t", "sup_tension", "sup_drift", "mean_energy"])
            for row in zip(self.times, self.sup_tension, self.sup_drift, self.mean_energy):
                w.writerow([f"{v:.12g}" for v in row])


class FlowGrid:
    """Map values on a coordinate grid with a frozen boundary layer."""

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
        self.resolution = tuple(resolution)
        self.n = n
        axes = [np.linspace(-X, X, resolution[i]) for i in range(n - 1)]
        axes.append(np.linspace(s_lo, s_hi, resolution[-1]))
        self.axes = axes
        self.spacings = np.array([ax[1] - ax[0] for ax in axes])
        mesh = np.meshgrid(*axes, indexing="ij")
        self.nodes = np.stack(mesh, axis=-1)          # (..., n)
        if callable(values):
            values = values(self.nodes)
        self.u = np.array(values, dtype=float, copy=True)
        if self.u.shape != self.nodes.shape:
            raise ValueError("values shape does not match the grid")
        if np.any(self.u[..., -1] <= 0.0):
            raise ValueError("initial map has non-positive heights")
        self.u0 = self.u.copy()

    def interior(self, margin=1):
        return tuple(slice(margin, -margin) for _ in range(self.n))

    def interior_jets(self):
        """Value, Jacobian and diagonal second derivatives at interior nodes.

        jac[..., g, i] and lap[..., g, i] are views of component-major
        arrays, so every component is one contiguous block.
        """
        u = self.u
        core = self.interior()
        n = self.n
        val = u[core]
        jac = np.empty((n, n) + val.shape[:-1])
        lap = np.empty((n, n) + val.shape[:-1])
        for g in range(n):
            ug = np.ascontiguousarray(u[..., g])
            minus_2val = -2.0 * ug[core]
            for ax in range(n):
                h = self.spacings[ax]
                sl_p = list(core)
                sl_m = list(core)
                sl_p[ax] = slice(2, None)
                sl_m[ax] = slice(0, -2)
                up = ug[tuple(sl_p)]
                um = ug[tuple(sl_m)]
                np.subtract(up, um, out=jac[g, ax])
                jac[g, ax] /= 2.0 * h
                np.add(up, minus_2val, out=lap[g, ax])
                lap[g, ax] += um
                lap[g, ax] /= h**2
        s_dom = self.nodes[core][..., -1]
        jac, lap = (np.moveaxis(a, (0, 1), (-2, -1)) for a in (jac, lap))
        return val, jac, lap, s_dom

    def tension(self, energy=False):
        """Tension vectors and norms at interior nodes (grid stencil).

        With energy=True the energy density, read off the same jets, is
        returned as a third array.
        """
        val, jac, lap, s_dom = self.interior_jets()
        tau, norm = tn.tension_from_jet(val, jac, lap, s_dom)
        if energy:
            return tau, norm, tn.energy_from_jet(val, jac, s_dom)
        return tau, norm

    def energy(self):
        """Energy density at interior nodes."""
        val, jac, _, s_dom = self.interior_jets()
        return tn.energy_from_jet(val, jac, s_dom)

    def stats_view(self, arr):
        """Restrict an interior-shaped array to the statistics region."""
        m = STATS_MARGIN - 1  # arr is already one layer in
        return arr[tuple(slice(m, -m) for _ in range(self.n))]

    def sup_tension(self):
        _, norm = self.tension()
        return float(np.max(self.stats_view(norm)))

    def sup_drift(self):
        return float(np.max(dist(self.u, self.u0)))

    def distance_to(self, other_values):
        return float(np.max(dist(self.u, other_values)))


def init_flow(f, box, resolution, n=3, order=None):
    """Grid carrying the good extension of the boundary map f."""
    from .extension import DEFAULT_ORDER, GoodExtension

    ext = GoodExtension(f, order=order or DEFAULT_ORDER)
    return FlowGrid(box, resolution, ext, n), ext


def cfl_time_step(grid):
    """Stability-limited step CFL_COEFF (min spacing / s_hi)^2."""
    return CFL_COEFF * (float(np.min(grid.spacings)) / grid.box[2]) ** 2


def flow_step(grid, dt, max_energy=np.inf):
    """One intrinsic forward-Euler step; boundary layer untouched.

    Every interior node moves along the geodesic from its current value
    in the direction of the tension vector.  Raises FloatingPointError
    when the energy density of the current values exceeds max_energy at
    an interior node (the blow-up guard), or when the step produces
    invalid node values.
    """
    tau, _, energy = grid.tension(energy=True)
    if np.max(energy) > max_energy:
        raise FloatingPointError(BLOWUP_REASON)
    core = grid.interior()
    moved = geodesic_step(grid.u[core], tau, dt)
    if not np.all(np.isfinite(moved)) or np.any(moved[..., -1] <= 0.0):
        raise FloatingPointError("flow step produced invalid node values")
    grid.u[core] = moved
    return grid


def run_flow(f_or_grid, box=None, resolution=None, t_end=1.0, dt=None,
             record_every=None, n=3, snapshot_times=None):
    """Run the heat flow and record (t, sup|tau|, sup drift, mean energy).

    Aborts with a partial trace on energy blow-up (the CFL guard, checked
    before every step and at every record) or invalid node values.
    Returns (FlowTrace, FlowGrid, snapshots) where snapshots maps requested
    times to copies of the node values.
    """
    if isinstance(f_or_grid, FlowGrid):
        grid = f_or_grid
    else:
        grid, _ = init_flow(f_or_grid, box, resolution, n)
    if dt is None:
        dt = cfl_time_step(grid)
    n_steps = int(np.ceil(t_end / dt))
    if record_every is None:
        record_every = max(1, n_steps // 40)
    e0 = grid.energy()
    max_energy = BLOWUP_FACTOR * max(float(np.max(e0)), 1e-30)
    snapshot_times = sorted(snapshot_times or [])
    snaps = {}
    next_snap = 0

    times = [0.0]
    sup_tau = [grid.sup_tension()]
    sup_drift = [0.0]
    mean_e = [float(np.mean(grid.stats_view(e0)))]
    aborted = False
    reason = ""
    t = 0.0
    for k in range(1, n_steps + 1):
        try:
            flow_step(grid, dt, max_energy)
        except FloatingPointError as exc:
            aborted, reason = True, str(exc)
            break
        t = k * dt
        while next_snap < len(snapshot_times) and t >= snapshot_times[next_snap] - dt / 2:
            snaps[snapshot_times[next_snap]] = grid.u.copy()
            next_snap += 1
        if k % record_every == 0 or k == n_steps:
            times.append(t)
            sup_tau.append(grid.sup_tension())
            sup_drift.append(grid.sup_drift())
            e_now = grid.energy()
            mean_e.append(float(np.mean(grid.stats_view(e_now))))
            if float(np.max(e_now)) > max_energy:
                aborted, reason = True, BLOWUP_REASON
                break
    trace = FlowTrace(
        np.array(times), np.array(sup_tau), np.array(sup_drift),
        np.array(mean_e), aborted, reason,
    )
    return trace, grid, snaps


def radial_bump_map(center, amp, width, n=3):
    """Rotation-equivariant radial perturbation of the identity.

    Moves p along the radial geodesic from center by amp exp(-rho^2/w^2)
    rho, so the tension field is a radial function of rho (up to
    discretisation), as the parabolic-maximum-principle check requires.
    """
    center = np.asarray(center, dtype=float)

    def ev(pts):
        pts = np.asarray(pts, dtype=float)
        w = -log_map(pts, np.broadcast_to(center, pts.shape))  # points away
        rho = np.linalg.norm(w, axis=-1) / pts[..., -1]
        fac = amp * np.exp(-((rho / width) ** 2))
        return geodesic_step(pts, w, fac)

    return tn.HyperMap(ev, name=f"radial_bump[{amp},{width}]")


def hamilton_check(grid0, snapshots, kernel=None, center=None, center_point=None,
                   radial_tol=0.35, n_bins=40):
    """Parabolic maximum principle check on radial test data.

    Verifies |tau(u)(x0, t)|^2 <= int H(x0, y, t) |tau(u0)(y)|^2 dlambda(y)
    at the test center x0 (the interior node nearest center_point, or the
    middle node), with the right side computed by radial quadrature from
    the binned initial profile.  The initial |tau|^2 must be radial around
    the center within radial_tol of its scale, else the check is rejected.
    Returns a list of (t, lhs, rhs, holds) rows.
    """
    kernel = kernel or RadialKernel(grid0.n)
    core = grid0.interior()
    _, norm0 = grid0.tension()
    nodes = grid0.nodes[core]
    if center is None:
        if center_point is not None:
            d = dist(nodes, np.broadcast_to(np.asarray(center_point, float),
                                            nodes.shape))
            center = np.unravel_index(int(np.argmin(d)), d.shape)
        else:
            center = tuple((s - 1) // 2 for s in norm0.shape)
    x0 = nodes[center]

    rho = dist(nodes, np.broadcast_to(x0, nodes.shape))
    tau_sq = norm0**2
    rho_max = float(np.max(rho))
    edges = np.linspace(0.0, rho_max, n_bins + 1)
    prof = np.zeros(n_bins)
    # numerically-zero profiles (harmonic data) count as radial
    scale = max(float(np.max(tau_sq)), 1e-8)
    for b in range(n_bins):
        inb = (rho >= edges[b]) & (rho < edges[b + 1])
        if not np.any(inb):
            continue
        lo, hi = float(np.min(tau_sq[inb])), float(np.max(tau_sq[inb]))
        if hi - lo > radial_tol * scale:
            raise ValueError(
                f"initial |tau|^2 is not radial around the center "
                f"(bin {b}: spread {hi - lo:.3g} vs scale {scale:.3g})"
            )
        prof[b] = hi  # conservative envelope

    def Phi(r):
        r = np.asarray(r, dtype=float)
        idx = np.clip(np.searchsorted(edges, r, side="right") - 1, 0, n_bins - 1)
        out = prof[idx]
        return np.where(r >= rho_max, 0.0, out)

    rows = []
    for t, u_t in sorted(snapshots.items()):
        work = FlowGrid(grid0.box, grid0.resolution, u_t, grid0.n)
        _, norm_t = work.tension()
        lhs = float(norm_t[center] ** 2)
        redges = np.linspace(0.0, rho_max, 801)
        rhs = _panel_quad(
            lambda r: Phi(r) * kernel.radial_mass_density(np.maximum(r, 1e-12), t),
            redges,
        )
        rows.append((t, lhs, rhs, lhs <= rhs + 1e-6 + 0.05 * rhs))
    return rows
