"""Linear-Gaussian structural equation models over small labeled DAGs.

A model has one Bernoulli root (the sensitive attribute) and a sequence of
linear equations with independent Gaussian noise, each edge labeled fair or
unfair.  Every computation replays the equations in order (``_replay``,
vectorized over records): a variable is its intercept, plus each
coefficient times its parent's value, plus its noise.  A parent is read from
the replayed world along the active edges, and from an observed table
elsewhere when one is given.

- Sampling, reconstruction and the reference world of the Monte-Carlo
  effect replay the model's own world from the root, with no observed table.
- Abduction recovers per-record noise as the observed values minus a
  replay of the observed parents without a noise term.
- A counterfactual follows abduction -> action -> prediction: the root
  takes the counterfactual sensitive value, the edges of the selected paths
  are active and the abducted noise is shared, so the other variables
  reproduce their observed values.

Path selections are sets of directed paths starting at the sensitive node;
they are realized by activating the union of their edges.  That union can
carry a sensitive-to-outcome path that was not selected (A>Q>D>Y and
A>D>Z>Y together carry A>D>Y), along which the replay would act too, so
such a selection is rejected, as is a path selected twice.  On every
accepted selection the replay acts along exactly the selected paths, and
the Monte-Carlo effect and counterfactuals agree with the closed-form sum.
"""

from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from . import dataset as ds
from .dataset import TabularDataset, dataset_from_columns

__all__ = [
    "CausalError",
    "Equation",
    "LinearSEM",
    "PathSelection",
    "simulate",
    "sample",
    "fit",
    "path_specific_effect",
    "path_specific_effect_mc",
    "abduct",
    "reconstruct",
    "counterfactual",
    "correct_scores",
    "scenario",
    "all_unfair_paths",
]


class CausalError(ValueError):
    """Invalid SEM, record, or path selection."""


@dataclass(frozen=True)
class Equation:
    """One structural assignment: value = intercept + coeffs . parents + noise."""

    name: str
    intercept: float
    parents: tuple[str, ...]
    coeffs: tuple[float, ...]
    noise_std: float

    def __post_init__(self):
        if len(self.parents) != len(self.coeffs):
            raise CausalError(f"{self.name}: one coefficient per parent required")
        if self.noise_std < 0:
            raise CausalError(f"{self.name}: noise_std must be >= 0")


@dataclass(frozen=True, eq=False)
class LinearSEM:
    sensitive: str
    pi: float
    equations: tuple[Equation, ...]
    outcome: str
    edge_labels: Mapping[tuple[str, str], str] = field(default_factory=dict)
    sensitive_values: tuple[float, float] = (0.0, 1.0)
    unobserved: frozenset[str] = frozenset()

    def __post_init__(self):
        if not 0.0 <= self.pi <= 1.0:
            raise CausalError("pi must lie in [0, 1]")
        seen = {self.sensitive}
        for eq in self.equations:
            if eq.name in seen:
                raise CausalError(f"duplicate variable {eq.name!r}")
            for p in eq.parents:
                if p not in seen:
                    raise CausalError(f"{eq.name}: parent {p!r} not defined earlier (graph must be acyclic)")
            seen.add(eq.name)
        if self.outcome not in seen:
            raise CausalError(f"outcome {self.outcome!r} is not a variable")
        if self.unobserved - seen:
            raise CausalError(f"unobserved {sorted(map(str, self.unobserved - seen))} are not variables")
        v = self.sensitive_values
        if len(v) != 2 or not all(isinstance(x, numbers.Real) and np.isfinite(x) for x in v) or v[0] == v[1]:
            raise CausalError(f"sensitive_values must be two distinct finite numbers, got {v!r}")
        edges = set(self.edges)
        for e, label in self.edge_labels.items():
            if tuple(e) not in edges:
                raise CausalError(f"label on missing edge {e!r}")
            if label not in ("fair", "unfair"):
                raise CausalError(f"edge {e!r}: label must be fair or unfair")

    @property
    def variables(self) -> tuple[str, ...]:
        return (self.sensitive,) + tuple(eq.name for eq in self.equations)

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        out = []
        for eq in self.equations:
            out.extend((p, eq.name) for p in eq.parents)
        return tuple(out)

    def equation(self, name: str) -> Equation:
        for eq in self.equations:
            if eq.name == name:
                return eq
        raise CausalError(f"no equation for {name!r}")


@dataclass(frozen=True)
class PathSelection:
    """Directed paths from the sensitive node chosen for intervention."""

    paths: tuple[tuple[str, ...], ...]

    @classmethod
    def parse(cls, text: str) -> "PathSelection":
        """Parse "A>D>Y,A>Y" style comma-separated node sequences."""
        items = [p.strip() for p in text.split(",") if p.strip()]
        return cls(tuple(tuple(n.strip() for n in item.split(">")) for item in items))

    def resolved(self, sem: LinearSEM) -> tuple[tuple[str, ...], ...]:
        """Validate against the graph, extending each path to the outcome.

        A path that stops early is extended along unique outgoing edges;
        an ambiguous continuation is an error and requires the full path.
        A path selected twice, or a sensitive-to-outcome path that the
        union of the selected edges carries but that is not selected, is
        an error.
        """
        edges = set(sem.edges)
        children = _children(sem)
        out = []
        for path in self.paths:
            if len(path) < 2:
                raise CausalError(f"path {path!r} needs at least one edge")
            if path[0] != sem.sensitive:
                raise CausalError(f"path {path!r} must start at {sem.sensitive!r}")
            for u, v in zip(path, path[1:]):
                if (u, v) not in edges:
                    raise CausalError(f"path {path!r}: edge {u}->{v} not in graph")
            path = tuple(path)
            while path[-1] != sem.outcome:
                nxt = children.get(path[-1], [])
                if len(nxt) != 1:
                    raise CausalError(
                        f"path {path!r} does not reach {sem.outcome!r} and has no unique continuation"
                    )
                path = path + (nxt[0],)
            if path in out:
                raise CausalError(f"path {'>'.join(path)} is selected twice")
            out.append(path)
        union = {edge for path in out for edge in zip(path, path[1:])}
        for path in _paths_to_outcome(sem, union):
            if path not in out:
                raise CausalError(
                    f"the selected paths' edges also form {'>'.join(path)}, which is not selected;"
                    " select it too or drop a path that shares its edges")
        return tuple(out)

    def edge_set(self, sem: LinearSEM) -> frozenset[tuple[str, str]]:
        pairs: set[tuple[str, str]] = set()
        for path in self.resolved(sem):
            pairs.update(zip(path, path[1:]))
        return frozenset(pairs)


def _children(sem: LinearSEM, edges=None) -> dict[str, list[str]]:
    """Each variable's children, in the order of ``sem.edges``, over ``edges`` only when given."""
    children: dict[str, list[str]] = {}
    for u, v in sem.edges:
        if edges is None or (u, v) in edges:
            children.setdefault(u, []).append(v)
    return children


def _paths_to_outcome(sem: LinearSEM, edges=None) -> list[tuple[str, ...]]:
    """Every directed sensitive-to-outcome path, over ``edges`` only when given."""
    children = _children(sem, edges)
    paths: list[tuple[str, ...]] = []

    def walk(path: tuple[str, ...]):
        if path[-1] == sem.outcome:
            paths.append(path)
            return
        for nxt in children.get(path[-1], []):
            walk(path + (nxt,))

    walk((sem.sensitive,))
    return paths


def _replay(
    sem: LinearSEM,
    root: np.ndarray,
    noise: Mapping[str, np.ndarray | float],
    observed: Mapping[str, np.ndarray] | None = None,
    active: frozenset[tuple[str, str]] = frozenset(),
) -> dict[str, np.ndarray]:
    """Every variable's values under the structural equations, given the root's.

    An equation reads a parent from the replayed world when the edge is
    active or there is no ``observed`` table, and from ``observed``
    otherwise.  An equation with no entry in ``noise`` gets no noise term:
    adding a zero would turn -0.0 into +0.0.
    """
    world = {sem.sensitive: root}
    for eq in sem.equations:
        value = np.full(np.shape(root), eq.intercept, dtype=float)
        for p, c in zip(eq.parents, eq.coeffs):
            value += c * (world if observed is None or (p, eq.name) in active else observed)[p]
        if eq.name in noise:
            value += noise[eq.name]
        world[eq.name] = value
    return world


def _residuals(sem: LinearSEM, observed: Mapping[str, np.ndarray], names) -> dict[str, np.ndarray]:
    """Abducted noise of the named equations: observed values minus their noiseless replay."""
    fitted = _replay(sem, observed[sem.sensitive], {}, observed)
    return {name: observed[name] - fitted[name] for name in names}


def _refuse_working_set(what: str, n: int, columns: int) -> None:
    """Refuse ``columns`` float64 columns of ``n`` rows above the ``dataset.MAX_FEATURE_BYTES`` cap."""
    size = columns * n * 8
    if size > ds.MAX_FEATURE_BYTES:
        raise CausalError(
            f"{what} needs {size / 2**30:.1f} GiB, above the {ds.MAX_FEATURE_BYTES / 2**30:g} GiB limit")


def _draw_noise(sem: LinearSEM, streams, n: int) -> dict[str, np.ndarray]:
    """n standard normals per equation, from its generator in ``streams``, scaled in place by its noise_std."""
    noise = {}
    for eq, rng in zip(sem.equations, streams):
        z = rng.standard_normal(n)
        noise[eq.name] = np.multiply(eq.noise_std, z, out=z)
    return noise


def simulate(sem: LinearSEM, n: int, seed: int | np.random.Generator = 0) -> dict[str, np.ndarray]:
    """Ancestral sampling of every variable, deterministic per seed.

    The draws are one uniform per record for the root, then one standard
    normal per record for each equation in order.  The working set, the
    root and each equation's noise and values, is (2 x equations + 1) x n
    float64 values; above ``dataset.MAX_FEATURE_BYTES`` it is refused
    before the first draw.
    """
    if n < 1:
        raise CausalError("n must be >= 1")
    _refuse_working_set(f"sample of {n} records", n, 2 * len(sem.equations) + 1)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    v0, v1 = sem.sensitive_values
    root = np.where(rng.random(n) < sem.pi, v1, v0)
    return _replay(sem, root, _draw_noise(sem, [rng] * len(sem.equations), n))


def sample(sem: LinearSEM, n: int, seed: int = 0) -> TabularDataset:
    """Sample a dataset of the observed variables (sensitive, features, outcome)."""
    cols = simulate(sem, n, seed)
    order = [name for name in sem.variables if name not in sem.unobserved]
    roles = {name: "feature" for name in order}
    roles.update({sem.sensitive: "sensitive", sem.outcome: "outcome"})
    columns = {name: cols[name] for name in order}
    return dataset_from_columns(columns, roles, outcome_kind="regression", order=order)


def _data_columns(data) -> Mapping[str, np.ndarray]:
    if isinstance(data, TabularDataset):
        return {c.name: np.asarray(data.columns[c.name], dtype=float) for c in data.schema}
    return {k: np.asarray(v, dtype=float) for k, v in data.items()}


def fit(data, skeleton: LinearSEM) -> LinearSEM:
    """Refit a SEM's coefficients by per-equation least squares.

    The skeleton supplies the graph, edge labels, and sensitive coding; its
    numeric parameters are ignored.  Noise levels come from residual
    standard deviations and pi from the sensitive-value frequency.
    """
    cols = _data_columns(data)
    for name in skeleton.variables:
        if name in skeleton.unobserved:
            raise CausalError(f"cannot fit: {name!r} is declared unobserved")
        if name not in cols:
            raise CausalError(f"data lacks column {name!r}")
    n = cols[skeleton.sensitive].size
    v0, v1 = skeleton.sensitive_values
    a = cols[skeleton.sensitive]
    if not set(np.unique(a)) <= {float(v0), float(v1)}:
        raise CausalError(f"sensitive column takes values outside {{{v0}, {v1}}}")
    pi = float(np.mean(a == v1))
    # one C-order design for every equation: an F-order one changes the bits of design @ coef
    buf = np.empty((n, 1 + max((len(eq.parents) for eq in skeleton.equations), default=0)))
    buf[:, 0] = 1.0
    resid = np.empty(n)
    equations = []
    for eq in skeleton.equations:
        d = len(eq.parents) + 1
        if n < d:
            raise CausalError(f"{eq.name}: need at least {d} records to fit")
        design = buf[:, :d]
        for j, p in enumerate(eq.parents, start=1):
            design[:, j] = cols[p]
        coef, _, rank, _ = np.linalg.lstsq(design, cols[eq.name], rcond=None)
        if rank < d:
            raise CausalError(f"{eq.name}: rank-deficient design matrix")
        np.subtract(cols[eq.name], design @ coef, out=resid)
        dof = max(n - d, 1)
        equations.append(replace(
            eq, intercept=float(coef[0]), coeffs=tuple(float(c) for c in coef[1:]),
            noise_std=float(np.sqrt(resid @ resid / dof))))
    return replace(skeleton, pi=pi, equations=tuple(equations), edge_labels=dict(skeleton.edge_labels))


def path_specific_effect(sem: LinearSEM, paths: PathSelection, a: float, a_bar: float) -> float:
    """Closed-form effect transmitted along the selected paths.

    For a linear model this is the sum over selected paths of the product
    of edge coefficients, times (a_bar - a).
    """
    total = 0.0
    for path in paths.resolved(sem):
        prod = 1.0
        for u, v in zip(path, path[1:]):
            eq = sem.equation(v)
            prod *= eq.coeffs[eq.parents.index(u)]
        total += prod
    return float(total * (a_bar - a))


# Rows of both worlds that `path_specific_effect_mc` draws and replays at a time.
_MC_BLOCK = 1 << 14


def path_specific_effect_mc(
    sem: LinearSEM,
    paths: PathSelection,
    a: float,
    a_bar: float,
    n: int,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of the path-specific effect.

    Both worlds share the same noise draws (common random numbers), so for
    linear models the estimate matches the closed form up to rounding.

    The draws are n standard normals per equation, in equation order, as
    ``simulate`` makes them without the root.  One skip pass over the draws
    of all but the last equation, ``_MC_BLOCK`` rows at a time into one
    buffer, finds the generator state where each equation's draws begin;
    each equation then draws its noise from a generator of its own, and
    both worlds are replayed ``_MC_BLOCK`` rows at a time into their two
    outcome columns.  The working set is 2 x n float64 values plus a few
    blocks; above ``dataset.MAX_FEATURE_BYTES`` it is refused before the
    first draw.  A column drawn in blocks holds the values drawn whole,
    every value goes through the operations of a replay over all rows at
    once, and the means see whole columns, so blocking changes no bit of
    the estimate.
    """
    if n < 2:
        raise CausalError("n must be >= 2")
    _refuse_working_set(f"Monte-Carlo effect of {n} samples", n, 2)
    active = paths.edge_set(sem)
    rng = np.random.default_rng(seed)
    streams, skipped = [], np.empty(min(n, _MC_BLOCK))
    for eq in sem.equations:
        if streams:  # move past the previous equation's draws
            for start in range(0, n, _MC_BLOCK):
                rng.standard_normal(out=skipped[:min(_MC_BLOCK, n - start)])
        streams.append(copy.deepcopy(rng))
    ref_y, cf_y = np.empty(n), np.empty(n)
    for start in range(0, n, _MC_BLOCK):
        rows = slice(start, min(start + _MC_BLOCK, n))
        size = rows.stop - start
        block = _draw_noise(sem, streams, size)
        ref = _replay(sem, np.full(size, float(a)), block)
        ref_y[rows] = ref[sem.outcome]
        cf_y[rows] = _replay(sem, np.full(size, float(a_bar)), block, ref, active)[sem.outcome]
    return float(np.mean(cf_y) - np.mean(ref_y))


def _record_columns(sem: LinearSEM, record: Mapping[str, float]) -> dict[str, np.ndarray]:
    for name in sem.variables:
        if name not in record:
            raise CausalError(f"record lacks variable {name!r}")
    return {k: np.atleast_1d(np.asarray(record[k], dtype=float)) for k in sem.variables}


def abduct(sem: LinearSEM, record: Mapping[str, float]) -> dict[str, float]:
    """Recover each equation's noise (its residual) from one fully observed record."""
    residuals = _residuals(sem, _record_columns(sem, record), [eq.name for eq in sem.equations])
    return {k: float(v[0]) for k, v in residuals.items()}


def reconstruct(sem: LinearSEM, sensitive_value: float, noise: Mapping[str, float]) -> dict[str, float]:
    """Replay the structural equations under the given noise."""
    world = _replay(sem, np.full(1, float(sensitive_value)), noise)
    return {k: float(v[0]) for k, v in world.items()}


def counterfactual(
    sem: LinearSEM,
    record: Mapping[str, float],
    paths: PathSelection,
    a_bar: float,
) -> float:
    """Outcome the record would have had with a_bar along the selected paths.

    With invertible linear equations the answer is exact: noise is abducted
    once and the equations replayed.
    """
    active = paths.edge_set(sem)
    observed, root = _record_columns(sem, record), np.full(1, float(a_bar))
    world = _replay(sem, root, abduct(sem, record), observed, active)
    return float(world[sem.outcome][0])


def correct_scores(
    sem: LinearSEM,
    model: Callable[[Mapping[str, np.ndarray]], np.ndarray],
    data,
    paths: PathSelection,
    a_bar: float,
) -> np.ndarray:
    """Replace model scores by their path-specific counterfactuals.

    Every record is moved to the world where the sensitive attribute equals
    ``a_bar`` along the selected paths: descendants on those paths are
    recomputed from their abducted noise, other variables stay at their
    observed values, and the model is re-evaluated on the corrected inputs.
    Outcome values are never consulted.
    """
    cols = _data_columns(data)
    active = paths.edge_set(sem)
    inputs = [sem.sensitive] + [eq.name for eq in sem.equations if eq.name != sem.outcome]
    for name in inputs:
        if name not in cols:
            raise CausalError(f"data lacks variable {name!r}")
    n = cols[sem.sensitive].size
    cf = _replay(sem, np.full(n, float(a_bar)), _residuals(sem, cols, inputs[1:]), cols, active)
    # the model sees corrected values only along edges into the outcome
    corrected = {k: cf[k] if (k, sem.outcome) in active else cols[k] for k in inputs}
    try:
        scores = np.asarray(model(corrected), dtype=float)
    except Exception as exc:
        raise CausalError(f"model evaluation failed: {exc}") from exc
    if scores.shape != (n,):
        raise CausalError("model must return one score per record")
    if not np.all(np.isfinite(scores)):
        bad = int(np.argmax(~np.isfinite(scores)))
        raise CausalError(f"model returned a non-finite score for record {bad}")
    return scores


def all_unfair_paths(sem: LinearSEM) -> PathSelection:
    """All sensitive-to-outcome paths containing at least one unfair edge."""
    unfair = [
        p
        for p in _paths_to_outcome(sem)
        if any(sem.edge_labels.get((u, v)) == "unfair" for u, v in zip(p, p[1:]))
    ]
    return PathSelection(tuple(unfair))


def scenario(name: str) -> LinearSEM:
    """Named example models with documented default coefficients.

    college
        Admission graph: sensitive A, qualifications Q, department D,
        outcome Y, with A->Y and A->D unfair and A->Q fair.  Defaults:
        pi=0.5, all intercepts 0, every edge coefficient 1, unit noise.
    music
        Test-score graph: sensitive S in {-1,+1}, latent aptitude M
        (unobserved), initial score X = S + M (S->X unfair), final score
        Y = M.  X and Y have no noise of their own.
    police / police_a, police_b, police_c
        Search graph: sensitive A, characteristics C, outcome Y.  Variant
        a has only the fair chain A->C->Y; variants b and c add the unfair
        direct edge A->Y (the recorded outcome is the search decision).
    """
    key = name.lower()
    if key == "college":
        return LinearSEM(
            sensitive="A",
            pi=0.5,
            equations=(
                Equation("Q", 0.0, ("A",), (1.0,), 1.0),
                Equation("D", 0.0, ("A",), (1.0,), 1.0),
                Equation("Y", 0.0, ("A", "Q", "D"), (1.0, 1.0, 1.0), 1.0),
            ),
            outcome="Y",
            edge_labels={
                ("A", "Q"): "fair",
                ("A", "D"): "unfair",
                ("A", "Y"): "unfair",
                ("Q", "Y"): "fair",
                ("D", "Y"): "fair",
            },
        )
    if key == "music":
        return LinearSEM(
            sensitive="S",
            pi=0.5,
            sensitive_values=(-1.0, 1.0),
            equations=(
                Equation("M", 0.0, (), (), 1.0),
                Equation("X", 0.0, ("S", "M"), (1.0, 1.0), 0.0),
                Equation("Y", 0.0, ("M",), (1.0,), 0.0),
            ),
            outcome="Y",
            edge_labels={("S", "X"): "unfair", ("M", "X"): "fair", ("M", "Y"): "fair"},
            unobserved=frozenset({"M"}),
        )
    if key in ("police", "police_a", "police_b", "police_c"):
        direct = key in ("police_b", "police_c")
        labels = {("A", "C"): "fair", ("C", "Y"): "fair"}
        y_parents: tuple[str, ...] = ("C",)
        y_coeffs: tuple[float, ...] = (1.0,)
        if direct:
            labels[("A", "Y")] = "unfair"
            y_parents = ("C", "A")
            y_coeffs = (1.0, 1.0)
        return LinearSEM(
            sensitive="A",
            pi=0.5,
            equations=(
                Equation("C", 0.0, ("A",), (1.0,), 1.0),
                Equation("Y", 0.0, y_parents, y_coeffs, 1.0),
            ),
            outcome="Y",
            edge_labels=labels,
        )
    raise CausalError(f"unknown scenario {name!r}")
