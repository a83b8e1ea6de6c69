"""Closed-form constants of stratum classes on the minimal compactification.

Classes are carried as labels only: a subset a of {1..g} stands for the
pushdown of the monomial l_a, and the operations here compute exact rational
coefficients against these labels.  The i = 1 parity discrepancy between the
two derivation routes is surfaced as a first-class report, never resolved
silently.
"""

from __future__ import annotations

from fractions import Fraction

from .rationals import _is_prime, _Record, _require_int, zeta_negative_odd

__all__ = [
    "SatakeClassExpression",
    "p_rank_constant",
    "stratum_constant",
    "leading_stratum_constants",
    "ConsistencyReport",
    "StratumComparison",
    "consistency_report",
    "RecursionReport",
    "recursion_check",
    "stratum_table",
]


class SatakeClassExpression(_Record, fields="stratum_index coefficient label"):
    """A rational multiple of one pushed-down class l_a."""

    __slots__ = ()

    def as_payload(self) -> dict:
        return {
            "i": self.stratum_index,
            "coefficient": str(self.coefficient),
            "label": list(self.label),
        }


def p_rank_constant(g: int, p: int) -> int:
    """The coefficient (p - 1)(p^2 - 1)...(p^g - 1) of the p-rank-zero locus
    against the label {g}, as an exact integer."""
    _require_int("p_rank_constant", "g", g, 1)
    _require_int("p_rank_constant", "p", p)
    if not _is_prime(p):
        raise ValueError(f"p_rank_constant requires a prime p, got {p}")
    value = 1
    for j in range(1, g + 1):
        value *= p ** j - 1
    return value


def stratum_constant(g: int, i: int) -> SatakeClassExpression:
    """The closed-form family: coefficient (-1)^i / prod_{j=1}^{i} zeta(2j-1-2g)
    against the label {g-i+1, ..., g}."""
    _require_int("stratum_constant", "g", g, 1)
    _require_int("stratum_constant", "i", i)
    if not 0 <= i <= g:
        raise ValueError(f"stratum index must satisfy 0 <= i <= g, got {i}")
    denominator = Fraction(1)
    for j in range(1, i + 1):
        # zeta(2j - 1 - 2g) = zeta(1 - 2(g - j + 1))
        denominator *= zeta_negative_odd(g - j + 1)
    coefficient = Fraction((-1) ** i) / denominator
    return SatakeClassExpression(i, coefficient, tuple(range(g - i + 1, g + 1)))


def leading_stratum_constants(g: int) -> tuple[SatakeClassExpression, ...]:
    """The constants for the two deepest strata reachable from the divisor
    route: (-1)^g / zeta(1-2g) at codimension g, and
    1 / (zeta(1-2g) zeta(3-2g)) one stratum further (only for g >= 2)."""
    _require_int("leading_stratum_constants", "g", g, 1)
    first = SatakeClassExpression(1, Fraction((-1) ** g) / zeta_negative_odd(g), (g,))
    if g == 1:
        return (first,)
    second = SatakeClassExpression(
        2,
        Fraction(1) / (zeta_negative_odd(g) * zeta_negative_odd(g - 1)),
        (g - 1, g),
    )
    return (first, second)


class StratumComparison(_Record, fields="stratum_index closed_form divisor_route equal factor"):
    """One stratum constant by both routes, with factor = closed_form / divisor_route."""

    __slots__ = ()


class ConsistencyReport(_Record, fields="genus comparisons"):
    """Exact comparison of the closed-form family against the divisor-route
    pair; at i = 1 the two routes' signs disagree exactly when g is even."""

    __slots__ = ()


def consistency_report(g: int) -> ConsistencyReport:
    _require_int("consistency_report", "g", g, 2)
    divisor = leading_stratum_constants(g)
    comparisons = []
    for expr in divisor:
        closed = stratum_constant(g, expr.stratum_index).coefficient
        comparisons.append(
            StratumComparison(
                stratum_index=expr.stratum_index,
                closed_form=closed,
                divisor_route=expr.coefficient,
                equal=closed == expr.coefficient,
                factor=closed / expr.coefficient,
            )
        )
    return ConsistencyReport(genus=g, comparisons=tuple(comparisons))


class RecursionReport(_Record, fields="genus ok steps"):
    """One-step descent check: each stratum constant is the previous one
    times -1 / zeta(2i-1-2g)."""

    __slots__ = ()

    def as_payload(self) -> dict:
        return {
            "g": self.genus,
            "ok": self.ok,
            "steps": [{"i": i, "ok": ok} for i, ok in self.steps],
        }


def recursion_check(g: int) -> RecursionReport:
    _require_int("recursion_check", "g", g, 1)
    constants = [stratum_constant(g, i).coefficient for i in range(g + 1)]
    steps = []
    for i in range(1, g + 1):
        expected = constants[i - 1] * Fraction(-1) / zeta_negative_odd(g - i + 1)
        steps.append((i, constants[i] == expected))
    ok = all(flag for _, flag in steps)
    return RecursionReport(genus=g, ok=ok, steps=tuple(steps))


def stratum_table(g: int, i: int | None = None) -> list[dict]:
    """Rows (g, i, coefficient, label, matches_thm34) for the closed-form
    family; matches_thm34 compares against the divisor route where one exists
    (i = 1, 2) and is null elsewhere."""
    _require_int("stratum_table", "g", g, 1)
    if i is not None:
        _require_int("stratum_table", "i", i)
    exprs = [stratum_constant(g, idx) for idx in (range(g + 1) if i is None else (i,))]
    divisor = {expr.stratum_index: expr.coefficient for expr in leading_stratum_constants(g)}
    rows = []
    for expr in exprs:
        idx = expr.stratum_index
        matches = expr.coefficient == divisor[idx] if idx in divisor else None
        rows.append({"g": g, **expr.as_payload(), "matches_thm34": matches})
    return rows
