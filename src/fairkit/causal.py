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
import sys
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import dataset as ds

__all__ = [
    "CausalError",
    "Equation",
    "LinearSEM",
    "PathSelection",
    "simulate",
    "write_sample",
    "fit",
    "path_specific_effect",
    "path_specific_effect_mc",
    "abduct",
    "reconstruct",
    "counterfactual",
    "counterfactual_inputs",
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
        object.__setattr__(self, "intercept", _finite(self.intercept, f"{self.name}: intercept"))
        object.__setattr__(self, "coeffs", tuple(_finite(c, f"{self.name}: coefficient") for c in self.coeffs))
        object.__setattr__(self, "noise_std", _finite(self.noise_std, f"{self.name}: noise_std"))
        if self.noise_std < 0:
            raise CausalError(f"{self.name}: noise_std must be >= 0")


def _finite(value, what: str) -> float:
    """``value`` as a float, or CausalError unless it is a real number in the float range other than a bool."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return float(value)
    raise CausalError(f"{what} must be a finite number, got {value!r}")


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
        object.__setattr__(self, "pi", _finite(self.pi, "pi"))
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
        v = tuple(_finite(x, "each sensitive value") for x in self.sensitive_values)
        if len(v) != 2 or v[0] == v[1]:
            raise CausalError(f"sensitive_values must be two distinct finite numbers, got {v!r}")
        object.__setattr__(self, "sensitive_values", v)
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
    equations: Sequence[Equation] | None = None,
) -> dict[str, np.ndarray]:
    """The values of the root and of ``equations`` (all of the model's by default) under the structural equations.

    An equation reads a parent from the replayed world when the edge is
    active or there is no ``observed`` table, and from ``observed``
    otherwise.  An equation with no entry in ``noise`` gets no noise term:
    adding a zero would turn -0.0 into +0.0.
    """
    world = {sem.sensitive: root}
    for eq in sem.equations if equations is None else equations:
        value = np.full(np.shape(root), eq.intercept, dtype=float)
        for p, c in zip(eq.parents, eq.coeffs):
            value += c * (world if observed is None or (p, eq.name) in active else observed)[p]
        if eq.name in noise:
            value += noise[eq.name]
        world[eq.name] = value
    return world


def _residuals(sem: LinearSEM, observed: Mapping[str, np.ndarray], equations) -> dict[str, np.ndarray]:
    """Abducted noise of ``equations``: observed values minus their noiseless replay."""
    fitted = _replay(sem, observed[sem.sensitive], {}, observed, equations=equations)
    return {eq.name: observed[eq.name] - fitted[eq.name] for eq in equations}


def _draw_noise(sem: LinearSEM, streams, n: int) -> dict[str, np.ndarray]:
    """n standard normals per equation, from its generator in ``streams``, scaled in place by its noise_std."""
    noise = {}
    for eq, rng in zip(sem.equations, streams):
        z = rng.standard_normal(n)
        noise[eq.name] = np.multiply(eq.noise_std, z, out=z)
    return noise


# Rows that sampling and the Monte-Carlo effect draw and replay at a time.
_MC_BLOCK = 1 << 14


def _streams(seed: int, n: int, draws: Sequence[str]) -> list[np.random.Generator]:
    """One generator per stream of n draws, each at the state where its stream begins.

    The streams are drawn one after the other from ``default_rng(seed)``,
    stream i by the Generator method ``draws[i]`` ("random" or
    "standard_normal").  One skip pass over the draws of all but the last
    stream, ``_MC_BLOCK`` values at a time into one buffer, finds where each
    begins.  Values drawn in blocks are the values drawn whole, so every
    stream continues exactly as one generator drawing all of them in order.
    """
    rng = np.random.default_rng(seed)
    streams, skipped = [], np.empty(min(n, _MC_BLOCK))
    for draw in draws[:-1]:
        streams.append(copy.deepcopy(rng))
        for start in range(0, n, _MC_BLOCK):
            getattr(rng, draw)(out=skipped[:min(_MC_BLOCK, n - start)])
    return streams + [rng]


def _simulated_blocks(sem: LinearSEM, n: int, seed: int) -> Iterator[dict[str, np.ndarray]]:
    """Every variable of ``simulate``'s sample, ``_MC_BLOCK`` records at a time; ``n`` is checked at the call."""
    if n < 1:
        raise CausalError("n must be >= 1")
    root_rng, *streams = _streams(seed, n, ["random"] + ["standard_normal"] * len(sem.equations))
    v0, v1 = sem.sensitive_values

    def blocks():
        for start in range(0, n, _MC_BLOCK):
            size = min(_MC_BLOCK, n - start)
            root = np.where(root_rng.random(size) < sem.pi, v1, v0)
            yield _replay(sem, root, _draw_noise(sem, streams, size))

    return blocks()


def simulate(sem: LinearSEM, n: int, seed: int = 0) -> dict[str, np.ndarray]:
    """Ancestral sampling of every variable, deterministic per seed.

    The draws are one uniform per record for the root, then n standard
    normals for each equation in order, as one generator makes them.  Each
    stream draws from a generator of its own (``_streams``), and the model is
    replayed ``_MC_BLOCK`` records at a time into the returned columns, so
    the working set is those (equations + 1) x n float64 values and a few
    blocks.  A sample whose columns would exceed ``dataset.MAX_FEATURE_BYTES``
    is refused before the first draw.
    """
    ds._refuse_above_cap(CausalError, f"sample of {n} records", n, len(sem.variables))
    blocks = _simulated_blocks(sem, n, seed)
    world, start = {name: np.empty(n) for name in sem.variables}, 0
    for block in blocks:
        size = len(block[sem.sensitive])
        for name, values in block.items():
            world[name][start:start + size] = values
        start += size
    return world


def _observed(sem: LinearSEM) -> list[str]:
    """The sensitive variable, then every observed one in equation order: the columns of a sample."""
    return [name for name in sem.variables if name not in sem.unobserved]


def write_sample(sem: LinearSEM, n: int, path, seed: int = 0) -> None:
    """Write the observed columns (`_observed`) of ``simulate(sem, n, seed)`` to ``path``, whole numbers as ints.

    Each block is written as soon as it is replayed, so the working set is a
    few blocks whatever n is, and no n is refused for its size.  ``n`` is
    checked before the file is opened.
    """
    names = _observed(sem)
    blocks = _simulated_blocks(sem, n, seed)
    ds.write_blocks(path, names, ([block[name] for name in names] for block in blocks), whole_as_int=True)


# Rows of the data that `fit` stacks under an equation's running R factor at a time.
_FIT_BLOCK = 1 << 13


def fit(data: Mapping[str, np.ndarray], skeleton: LinearSEM) -> LinearSEM:
    """Refit a SEM's coefficients by per-equation least squares.

    The skeleton supplies the graph, edge labels, and sensitive coding; its
    numeric parameters are ignored.  pi is the sensitive-value frequency.

    Each equation with d - 1 parents is reduced to the (d+1) x (d+1) upper
    triangular factor R of the QR decomposition of [1 | parents | value]
    (sequential TSQR): ``_FIT_BLOCK`` rows at a time are stacked under the R
    of the rows before them and the stack is factored again by Householder
    QR.  The coefficients solve R's leading d x d block against the d entries
    above its corner, by ``lstsq`` with the rank rule of a solve on the whole
    design (singular values below eps x max(n, d) times the largest count as
    zero).  The corner is the residual norm, so the noise level is
    |R[d, d]| / sqrt(max(n - d, 1)), and 0 when n == d.  The working set is
    one block of rows and R, whatever the number of records.
    """
    cols = {k: np.asarray(v, dtype=float) for k, v in data.items()}
    for name in skeleton.variables:
        if name in skeleton.unobserved:
            raise CausalError(f"cannot fit: {name!r} is declared unobserved")
        if name not in cols:
            raise CausalError(f"data lacks column {name!r}")
    a = cols[skeleton.sensitive]
    n = a.size
    if any(cols[name].shape != (n,) for name in skeleton.variables):
        raise CausalError("cannot fit: the columns must be one-dimensional and of one length")
    v0, v1 = skeleton.sensitive_values
    if not np.all((a == v0) | (a == v1)):
        raise CausalError(f"sensitive column takes values outside {{{v0}, {v1}}}")
    pi = float(np.mean(a == v1))
    width = 2 + max((len(eq.parents) for eq in skeleton.equations), default=0)
    # the running R in the top rows, the next block of rows under it
    buf = np.empty((width + min(n, _FIT_BLOCK), width))
    equations = []
    for eq in skeleton.equations:
        d = len(eq.parents) + 1
        if n < d:
            raise CausalError(f"{eq.name}: need at least {d} records to fit")
        held = 0  # rows of R at the top of buf
        for start in range(0, n, _FIT_BLOCK):
            stop = min(start + _FIT_BLOCK, n)
            rows = buf[held:held + stop - start, :d + 1]
            rows[:, 0] = 1.0
            for j, name in enumerate((*eq.parents, eq.name), start=1):
                rows[:, j] = cols[name][start:stop]
            r = np.linalg.qr(buf[:held + stop - start, :d + 1], mode="r")
            held = r.shape[0]
            buf[:held, :d + 1] = r
        coef, _, rank, _ = np.linalg.lstsq(r[:d, :d], r[:d, d], rcond=np.finfo(float).eps * max(n, d))
        if rank < d:
            raise CausalError(f"{eq.name}: rank-deficient design matrix")
        resid = abs(r[d, d]) if held > d else 0.0
        equations.append(replace(
            eq, intercept=float(coef[0]), coeffs=tuple(float(c) for c in coef[1:]),
            noise_std=float(resid / np.sqrt(max(n - d, 1)))))
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
    ``simulate`` makes them without the root; each equation draws from a
    generator of its own (``_streams``).  The estimate is the mean of the
    counterfactual outcomes minus the mean of the reference ones, and
    ``np.mean`` sums by numpy's pairwise tree: a run of more than 128 values
    is split after its first m//2 - (m//2) % 8 and each half summed the same
    way (Higham, *Accuracy and Stability of Numerical Algorithms*, 4.2).
    That tree is walked with leaves of at most max(``_MC_BLOCK``, 128) rows;
    both worlds are replayed over each leaf, its two outcome blocks summed by
    ``np.add.reduce``, and the sums added in tree order.  Every value goes
    through the operations of a replay over all rows at once and every sum
    through the operations of ``np.mean``, so the estimate is bit for bit
    the mean over whole columns, while the working set is a few blocks
    whatever n is.  An estimate that overflows is inf or NaN, with no warning.
    """
    if n < 2:
        raise CausalError("n must be >= 2")
    active = paths.edge_set(sem)
    streams = _streams(seed, n, ["standard_normal"] * len(sem.equations))
    leaf = max(_MC_BLOCK, 128)

    def sums(size: int) -> tuple[float, float]:
        """The pairwise sums of the next ``size`` counterfactual and reference outcomes."""
        if size > leaf:
            half = size // 2 - size // 2 % 8
            (cf_a, ref_a), (cf_b, ref_b) = sums(half), sums(size - half)
            return cf_a + cf_b, ref_a + ref_b
        noise = _draw_noise(sem, streams, size)
        ref = _replay(sem, np.full(size, float(a)), noise)
        cf = _replay(sem, np.full(size, float(a_bar)), noise, ref, active)
        return np.add.reduce(cf[sem.outcome]), np.add.reduce(ref[sem.outcome])

    with np.errstate(over="ignore", invalid="ignore"):
        cf_sum, ref_sum = sums(n)
        return float(cf_sum / n - ref_sum / n)


def _record_columns(sem: LinearSEM, record: Mapping[str, float]) -> dict[str, np.ndarray]:
    for name in sem.variables:
        if name not in record:
            raise CausalError(f"record lacks variable {name!r}")
    return {k: np.atleast_1d(np.asarray(record[k], dtype=float)) for k in sem.variables}


def abduct(sem: LinearSEM, record: Mapping[str, float]) -> dict[str, float]:
    """Recover each equation's noise (its residual) from one fully observed record."""
    residuals = _residuals(sem, _record_columns(sem, record), sem.equations)
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
    once and the equations replayed.  An outcome that overflows is inf or
    NaN, with no warning.
    """
    active = paths.edge_set(sem)
    observed, root = _record_columns(sem, record), np.full(1, float(a_bar))
    with np.errstate(over="ignore", invalid="ignore"):
        world = _replay(sem, root, abduct(sem, record), observed, active)
    return float(world[sem.outcome][0])


def counterfactual_inputs(
    sem: LinearSEM,
    data: Mapping[str, np.ndarray],
    paths: PathSelection,
    a_bar: float,
) -> dict[str, np.ndarray]:
    """The model inputs that move in the path-specific counterfactual world.

    Every record is moved to the world where the sensitive attribute equals
    ``a_bar`` along the selected paths: descendants on those paths are
    recomputed from their abducted noise, other variables stay at their
    observed values.  Only the inputs with an active edge into the outcome
    move, and only they are returned; a model evaluated on ``data`` with
    them in place gives the corrected scores.  Outcome values are never
    consulted.
    """
    cols = {k: np.asarray(v, dtype=float) for k, v in data.items()}
    active = paths.edge_set(sem)
    equations = tuple(eq for eq in sem.equations if eq.name != sem.outcome)
    for name in [sem.sensitive] + [eq.name for eq in equations]:
        if name not in cols:
            raise CausalError(f"data lacks variable {name!r}")
    n = cols[sem.sensitive].size
    cf = _replay(sem, np.full(n, float(a_bar)), _residuals(sem, cols, equations), cols, active, equations)
    return {k: v for k, v in cf.items() if (k, sem.outcome) in active}


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
