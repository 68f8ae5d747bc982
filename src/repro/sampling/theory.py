"""Cochran sampling theory as applied in paper section 4.3.

The injection space has three axes - the bit target b, the MPI process m
and the injection time t - of size b x m x t (at least ~3.9e6 points for
the smallest region).  Exhaustive injection being impossible, the paper
draws a random sample of size n chosen so that the estimated proportion p
of each error-manifestation class satisfies

    Pr(|P - p| < d) >= 1 - alpha                                      (1)

With N >> n and p approximately normal,

    n >= P (1 - P) (z_{alpha/2} / d)^2

and because P is unknown, *oversampling* takes P = 0.5 (the maximizer):

    n >= 0.25 (z_{alpha/2} / d)^2

"For each of the test applications, we performed 400-500 injections in
most regions.  With a confidence interval of 95 percent ... the
estimation error d is 4.4-4.9 percent."

The z-score comes from :func:`ndtri`, a port of the Cephes Math Library
routine of the same name (Stephen L. Moshier, 1984-2000; the version
SciPy compiles as ``scipy.special.ndtri`` and ``scipy.stats.norm.ppf``
evaluates).  The rational-approximation coefficients P0/Q0, P1/Q1 and
P2/Q2, the branch points ``exp(-2)`` and ``x < 8`` (``y > exp(-32)``)
and the ``polevl``/``p1evl`` Horner order are Cephes's own, so every
z-score - and with it every Cochran n, adaptive stopping decision and
printed d - is bit-identical to SciPy's without importing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: sqrt(2 pi)
_S2PI = 2.50662827463100050242e0

#: exp(-2): below it (in either tail) the central approximation ends.
_EXP_M2 = 0.13533528323661269189

#: Central region, 0 <= |y - 0.5| <= 3/8.
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (  # leading 1.0 implied (p1evl)
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)

#: Tail, z = sqrt(-2 log y) in [2, 8): y in [exp(-32), exp(-2)).
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)

#: Far tail, z in [8, 64): y in [exp(-2048), exp(-32)).
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Cephes ``polevl``: Horner from the highest coefficient."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """Cephes ``p1evl``: as :func:`_polevl` with an implied leading 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y0: float) -> float:
    """Inverse of the standard normal CDF (Cephes ``ndtri``)."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        raise ValueError(f"probability must be in [0, 1]: {y0}")
    upper = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        upper = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if upper else x


def z_alpha(alpha: float = 0.05) -> float:
    """Double-tailed alpha point of the standard normal distribution
    (z_{alpha/2}); 1.96 for alpha = 5 %."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1): {alpha}")
    return ndtri(1 - alpha / 2)


def sample_size(d: float, alpha: float = 0.05, p: float = 0.5) -> int:
    """Minimum n for estimation error ``d`` at confidence ``1 - alpha``
    when the true proportion is ``p`` (equation (1) solved for n)."""
    if not 0 < d < 1:
        raise ValueError(f"estimation error d must be in (0, 1): {d}")
    if not 0 <= p <= 1:
        raise ValueError(f"proportion p must be in [0, 1]: {p}")
    z = z_alpha(alpha)
    return math.ceil(p * (1 - p) * (z / d) ** 2)


def sample_size_oversampled(d: float, alpha: float = 0.05) -> int:
    """The paper's oversampling bound: n >= 0.25 (z/d)^2 (P = 0.5)."""
    return sample_size(d, alpha, p=0.5)


def achieved_error(n: int, alpha: float = 0.05) -> float:
    """Estimation error d achieved by ``n`` oversampled injections - the
    inverse of :func:`sample_size_oversampled`.  For n in [400, 500] at
    95 % confidence this is the paper's 4.4-4.9 percent."""
    if n <= 0:
        raise ValueError(f"sample size must be positive: {n}")
    return z_alpha(alpha) * math.sqrt(0.25 / n)


def proportion_ci(
    successes: int, n: int, alpha: float = 0.05
) -> tuple[float, float, float]:
    """``(p, lo, hi)``: the sample proportion and its normal-approximation
    confidence interval (used to annotate campaign tables)."""
    if n <= 0:
        raise ValueError(f"sample size must be positive: {n}")
    if not 0 <= successes <= n:
        raise ValueError(f"successes {successes} outside [0, {n}]")
    p = successes / n
    half = z_alpha(alpha) * math.sqrt(p * (1 - p) / n)
    return p, max(0.0, p - half), min(1.0, p + half)


def stratified_error_rate(
    errors: int, executed: int, pruned: int, pruned_rate: float = 0.0
) -> float:
    """Importance-weighted region error rate when a campaign executes
    only part of its sample (``campaign run --prune-masked``).

    The sampled faults split into two strata: ``executed`` trials that
    ran, and ``pruned`` trials the masking oracle proved masked.  The
    stratified estimator weights each stratum's rate by its share of
    the sample:

        p = (executed/n) * (errors/executed) + (pruned/n) * pruned_rate

    The oracle's soundness contract makes ``pruned_rate`` *known* to be
    0.0 - a pruned stratum with any other rate would be a proof-rule
    bug, not a sampling artifact - so the estimator reduces to
    ``errors / n``: exactly what falls out of tallying each pruned
    trial as a synthetic CORRECT.  This function is that equivalence,
    written down so the pruning layer's differential tests can assert
    it rather than assume it."""
    if executed < 0 or pruned < 0 or executed + pruned <= 0:
        raise ValueError(
            f"need a nonempty sample: executed={executed} pruned={pruned}"
        )
    if not 0 <= errors <= executed:
        raise ValueError(f"errors {errors} outside [0, {executed}]")
    if not 0 <= pruned_rate <= 1:
        raise ValueError(f"pruned_rate must be in [0, 1]: {pruned_rate}")
    n = executed + pruned
    executed_term = (executed / n) * (errors / executed) if executed else 0.0
    return executed_term + (pruned / n) * pruned_rate


@dataclass(frozen=True)
class StratumCell:
    """One stratum of a stratified region estimate.

    ``population`` counts the classification pool's members landing in
    this stratum (the weight numerator); ``executed``/``errors`` are the
    dynamic trials actually run there.  ``known_zero`` marks strata
    whose error rate is statically *proven* 0 - the predictor's masked
    stratum, backed by the oracle soundness contract - so they need no
    trials and contribute neither rate nor variance.
    """

    name: str
    population: int
    executed: int = 0
    errors: int = 0
    known_zero: bool = False

    @property
    def rate(self) -> float:
        if self.known_zero:
            return 0.0
        return self.errors / self.executed if self.executed else 0.0

    def variance_term(self, floor: bool = True) -> float:
        """``p_h (1 - p_h)`` with the same endpoint clamp the uniform
        adaptive driver applies, so an all-correct pilot cannot report
        zero width and stop a campaign after eight trials."""
        if self.known_zero:
            return 0.0
        if not self.executed:
            return 0.25  # unsampled: worst case
        p = self.rate
        if floor:
            eps = 1.0 / (self.executed + 1)
            p = min(max(p, eps), 1.0 - eps)
        return p * (1.0 - p)


@dataclass(frozen=True)
class StratifiedEstimate:
    """Importance-weighted region estimate over predicted-outcome strata.

    The classification pool is a uniform sample of the region's
    injection space, so stratum weights ``W_h = population_h / pool``
    are unbiased; executing trials *within* strata at any allocation
    and re-weighting by ``W_h`` recovers the unbiased region rate

        p = sum_h W_h p_h

    with half-width

        d = z * sqrt(sum_h W_h^2 p_h (1 - p_h) / n_h)

    which Neyman allocation (:func:`neyman_allocation`) minimizes for a
    given trial budget.  Known-zero strata (the oracle-proven masked
    stratum) carry weight but no variance: their savings are exactly
    the ``--prune-masked`` savings, folded into the estimator.
    """

    pool: int
    cells: tuple[StratumCell, ...]
    alpha: float = 0.05

    def weight(self, cell: StratumCell) -> float:
        return cell.population / self.pool if self.pool else 0.0

    @property
    def executed(self) -> int:
        return sum(c.executed for c in self.cells)

    @property
    def error_rate(self) -> float:
        return sum(self.weight(c) * c.rate for c in self.cells)

    @property
    def half_width(self) -> float:
        var = 0.0
        for c in self.cells:
            if c.known_zero:
                continue
            if not c.executed:
                if not c.population:
                    continue
                return float("inf")  # weighted stratum with no data
            var += self.weight(c) ** 2 * c.variance_term() / c.executed
        return z_alpha(self.alpha) * math.sqrt(var)

    @property
    def uniform_equivalent_n(self) -> int:
        """Trials a uniform oversampled Cochran campaign would need to
        guarantee this estimate's half-width - the savings baseline."""
        d = self.half_width
        if not 0.0 < d < 1.0:
            return 0
        return sample_size_oversampled(d, self.alpha)


def neyman_allocation(
    cells: tuple[StratumCell, ...],
    pool: int,
    total: int,
) -> dict[str, int]:
    """Allocate ``total`` further trials across strata minimizing the
    stratified variance: ``n_h`` proportional to ``W_h * s_h`` (Neyman),
    with deterministic largest-remainder rounding and per-stratum caps
    at the remaining unexecuted population (each pool member is one
    concrete, addressable trial spec).  Known-zero and exhausted strata
    get nothing."""
    if total < 0:
        raise ValueError(f"allocation total must be >= 0: {total}")
    live = [
        c for c in cells
        if not c.known_zero and c.population > c.executed
    ]
    scores = {
        c.name: (c.population / pool) * math.sqrt(c.variance_term())
        for c in live
    }
    mass = sum(scores.values())
    out = {c.name: 0 for c in cells}
    if not live or mass <= 0.0 or total == 0:
        return out
    remaining = {c.name: c.population - c.executed for c in live}
    # Iterate until the budget is spent or every stratum is capped;
    # largest-remainder keeps the split deterministic and exact.
    budget = total
    while budget > 0:
        open_cells = [c for c in live if out[c.name] < remaining[c.name]]
        open_mass = sum(scores[c.name] for c in open_cells)
        if not open_cells or open_mass <= 0.0:
            break
        shares = []
        for c in sorted(open_cells, key=lambda c: c.name):
            exact = budget * scores[c.name] / open_mass
            shares.append((c.name, int(exact), exact - int(exact)))
        given = 0
        for name, base, _ in shares:
            take = min(base, remaining[name] - out[name])
            out[name] += take
            given += take
        leftovers = sorted(shares, key=lambda s: (-s[2], s[0]))
        for name, _, _ in leftovers:
            if given >= budget:
                break
            if out[name] < remaining[name]:
                out[name] += 1
                given += 1
        if given == 0:
            break
        budget -= given
    return out


def injection_space_size(bits: int, processes: int, time_points: int) -> int:
    """Size of the b x m x t injection space (section 4.3 computes at
    least 512 x 64 x 120 ~ 3.9e6 for the register region)."""
    for name, v in (("bits", bits), ("processes", processes), ("time_points", time_points)):
        if v <= 0:
            raise ValueError(f"{name} must be positive: {v}")
    return bits * processes * time_points
