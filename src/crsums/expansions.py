"""Cohen-Ramanujan expansions of arithmetical functions with finite support.

An arithmetical function f is described here through its Möbius transform
f' = μ*f, given on a finite support 1..K and treated as 0 beyond it.  That
model turns every series below into a finite sum of exact rationals:

    f(n)  = Σ_{d|n} f'(d)                       (Möbius inversion)
    a_q   = Σ_{m·q <= K} f'(m·q) / (m·q)**s     (expansion coefficients)
    f(n)  = Σ_q a_q · c_q^(s)(n**s)             (the expansion itself)

and the convergence condition Σ_k 2**ω(k)·|f'(k)|/k**s is a finite sum
reported for diagnostics.  ``Expansion`` puts every a_q over one common
denominator L = lcm{k**s : k in the support}, keeping the integer
numerators only for the q that divide a support entry (Σ d(k) of them at
most, whatever K is), so the sums here are integer sums over L that become
``fractions.Fraction`` only in the returned values.  No float is involved.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType

from .arith import _require_positive, divisors, omega
from .crsum import _multiplicative_value
from .identities import _closed_form


@dataclass(frozen=True)
class MobiusSpec:
    """An arithmetical function given by its Möbius transform on 1..K.

    ``values`` holds the nonzero f'(k) entries as ints; keys must be ints in
    1..K and missing keys are 0.  It is a read-only view of a private copy
    of the mapping passed in.  ``label`` is one line of text without outer
    whitespace, so that ``from_text(to_text())`` gives the spec back.
    Instances are immutable, hashable value objects: equal specs hash
    equal, so one spec read back from text finds the cached ``Expansion``
    of the other.
    """

    support_bound: int
    values: Mapping[int, int]
    label: str = ""

    def __post_init__(self) -> None:
        _require_positive(support_bound=self.support_bound)
        label = self.label
        if type(label) is not str or label != label.strip() or len(label.splitlines()) > 1:
            raise ValueError(f"label {label!r} is not one line of text without outer whitespace")
        cleaned: dict[int, int] = {}
        for k, v in self.values.items():
            if type(k) is not int or not 1 <= k <= self.support_bound:
                raise ValueError(
                    f"entry {k}={v} lies outside the support 1..{self.support_bound}"
                )
            if type(v) is not int:
                raise ValueError(f"entry {k}={v!r} is not an integer")
            if v != 0:
                cleaned[k] = v
        object.__setattr__(self, "values", MappingProxyType(cleaned))
        key = (self.support_bound, frozenset(cleaned.items()), label)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), (self.support_bound, dict(self.values), self.label)

    @classmethod
    def from_text(cls, text: str) -> "MobiusSpec":
        """Parse the line-oriented interchange format.

        Header lines ``K=<support bound>`` and optional ``label=<text>``,
        each at most once, then one ``k=value`` line per nonzero entry.
        Blank lines and lines starting with ``#`` are ignored.
        """
        headers: dict[str, int | str] = {}
        entries: dict[int, int] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"line {lineno}: expected 'key=value', got {raw!r}")
            key = key.strip()
            value = value.strip()
            if key in ("K", "label"):
                if key in headers:
                    raise ValueError(f"line {lineno}: duplicate header line {key}=")
                headers[key] = _parse_int(value, lineno) if key == "K" else value
            else:
                k = _parse_int(key, lineno)
                if k in entries:
                    raise ValueError(f"line {lineno}: duplicate entry for k={k}")
                entries[k] = _parse_int(value, lineno)
        if "K" not in headers:
            raise ValueError("missing required header line 'K=<support bound>'")
        return cls(support_bound=headers["K"], values=entries, label=headers.get("label", ""))

    def to_text(self) -> str:
        lines = [f"K={self.support_bound}", f"label={self.label}"]
        lines.extend(f"{k}={v}" for k, v in sorted(self.values.items()))
        return "\n".join(lines) + "\n"


def _parse_int(text: str, lineno: int) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ValueError(f"line {lineno}: {text!r} is not an integer") from None


_ZERO = Fraction(0)


class _Coefficients(Mapping):
    """The a_q for q in 1..q_max, in that order, as a read-only mapping.

    Only the non-zero a_q are stored, in ``nonzero`` in increasing q; every
    other q in range reads ``Fraction(0)``, so the view costs Σ d(k) over
    the support whatever q_max is.  Any key that is not an int in
    1..q_max raises KeyError.
    """

    def __init__(self, nonzero: dict[int, Fraction], q_max: int) -> None:
        self.nonzero = nonzero
        self._q_max = q_max

    def __getitem__(self, q: int) -> Fraction:
        if type(q) is not int or not 1 <= q <= self._q_max:
            raise KeyError(q)
        return self.nonzero.get(q, _ZERO)

    def __iter__(self):
        return iter(range(1, self._q_max + 1))

    def __len__(self) -> int:
        return self._q_max


@dataclass(frozen=True)
class ExpansionReport:
    """Truncated expansion of one (f, n, s): coefficients, sums, residual.

    ``coefficients`` maps every q in 1..q_max, in increasing order, to a_q
    as a ``Fraction``.  It is a read-only ``Mapping`` view, not a dict: it
    stores only the non-zero a_q, and compares equal to the dict with the
    same items.
    """

    s: int
    n: int
    q_max: int
    coefficients: Mapping[int, Fraction] = field(repr=False)
    partial_sum: Fraction
    target: Fraction
    residual: Fraction
    condition_sum: Fraction


def f_from_spec(spec: MobiusSpec, n: int) -> int:
    """f(n) = Σ_{d|n} f'(d), with f' zero beyond the support."""
    return sum(spec.values.get(d, 0) for d in divisors(n))


class Expansion:
    """The coefficients a_q of one (f, s) as integers over one common denominator.

    ``denominator`` is L = lcm{k**s : k in the support} (1 for an empty
    support), ``weights`` maps each support entry k to w_k = f'(k)·L/k**s,
    and ``numerators`` maps each q that divides some support entry, in
    increasing order, to A_q = Σ_{q|k} w_k, so that a_q = A_q/L and a_q = 0
    for every other q.  ``abs_sums`` maps the same q to B_q = Σ_{q|k} |w_k|,
    and ``coefficients`` maps the q with A_q != 0 to a_q as a ``Fraction``.
    ``condition_sum`` is Σ_{k <= K} 2**ω(k)·|f'(k)|/k**s as a ``Fraction``:
    finite support makes the convergence hypothesis hold automatically, and
    the value is reported so different specs can be compared.
    Building it costs Σ d(k) over the support, independent of K and n.

    Everything here depends on (f, s) alone.  The functions below read one
    instance per (f, s), built once and cached, for every n; they hand out
    none of its dicts.
    """

    def __init__(self, spec: MobiusSpec, s: int) -> None:
        _require_positive(s=s)
        self.denominator = lcm(*(k**s for k in spec.values))
        self.weights = {k: fp * (self.denominator // k**s) for k, fp in spec.values.items()}
        numerators: dict[int, int] = {}
        abs_sums: dict[int, int] = {}
        for k, w in self.weights.items():
            for q in divisors(k):
                numerators[q] = numerators.get(q, 0) + w
                abs_sums[q] = abs_sums.get(q, 0) + abs(w)
        self.numerators = dict(sorted(numerators.items()))
        self.abs_sums = {q: abs_sums[q] for q in self.numerators}
        self.coefficients = {q: Fraction(a, self.denominator)
                             for q, a in self.numerators.items() if a}
        total = sum(2 ** omega(k) * abs(w) for k, w in self.weights.items())
        self.condition_sum = Fraction(total, self.denominator)


@lru_cache(maxsize=1)
def _expansion(spec: MobiusSpec, s: int) -> Expansion:
    """The shared ``Expansion`` of (spec, s); callers check s first."""
    return Expansion(spec, s)


@lru_cache(maxsize=1)
def _crs_table(spec: MobiusSpec, s: int, n: int) -> dict[int, int]:
    """c_q^(s)(n**s) for each q of ``Expansion.numerators``; callers check n and s first.

    ``partial_expansion`` and ``rearrangement_check`` on one (f, s, n) read
    these values, evaluated once; the dict is never handed out.
    """
    ns = n**s
    return {q: _multiplicative_value(q, ns, s) for q in _expansion(spec, s).numerators}


def partial_expansion(
    spec: MobiusSpec, n: int, s: int, q_max: int | None = None
) -> ExpansionReport:
    """Sum the expansion through q_max and report against the exact target.

    a_q vanishes for q dividing no support entry, so with q_max >= K the
    series terminates and the residual is exactly 0.
    """
    _require_positive(n=n, s=s)
    if q_max is None:
        q_max = spec.support_bound
    _require_positive(q_max=q_max)
    expansion = _expansion(spec, s)
    values = _crs_table(spec, s, n)
    partial = 0
    for q, a in expansion.numerators.items():
        if q > q_max:
            break
        if a:
            partial += a * values[q]
    nonzero = {q: a for q, a in expansion.coefficients.items() if q <= q_max}
    partial_sum = Fraction(partial, expansion.denominator)
    target = Fraction(f_from_spec(spec, n))
    return ExpansionReport(
        s=s,
        n=n,
        q_max=q_max,
        coefficients=_Coefficients(nonzero, q_max),
        partial_sum=partial_sum,
        target=target,
        residual=partial_sum - target,
        condition_sum=expansion.condition_sum,
    )


def rearrangement_check(spec: MobiusSpec, n: int, s: int) -> bool:
    """Verify the absolute-series rearrangement three ways, exactly.

    The double sum Σ_q Σ_m |f'(mq)|/(mq)**s · |c_q^(s)(n**s)| is computed by
    literal enumeration of the pairs (q, k = m·q) over the support, as
    Σ_q |c_q^(s)(n**s)|·B_q with the B_q of ``Expansion``: the pairs are
    enumerated k-major through divisors(k) once per (f, s).  It is then
    regrouped along k as Σ_k |w_k|·Σ_{q|k} |c_q^(s)(n**s)|, reading divisors(k)
    again, then once more through its closed form 2**ω(k/g)·g**s
    (``identities._closed_form``); all three are integers over the common
    denominator of ``Expansion``.  The pair and grouped sums read one table
    of the c_q^(s)(n**s), filled by one evaluator once per (f, s, n) and
    shared with ``partial_expansion``: they agree by regrouping alone, and
    the closed form is the independent side.
    True iff the three coincide and every k in the support satisfies the
    chain

        2**ω(k**s/(k**s, n**s)_s) · (k**s, n**s)_s >= 2**ω(k),

    so that, term by term, Σ_k |f'(k)|/k**s·2**ω(k) is bounded by the
    grouped sum.  A False return means an identity was violated, i.e. a bug.

    The largest d | k with d**s | n**s is g = gcd(k, n), as d**s | n**s iff
    d | n, so (k**s, n**s)_s = g**s.  ω is read from the cached
    factorization of k and k/g, so the check costs Σ d(k) over the support,
    whatever K is.  Off the support f'(k) = 0 and the chain is a theorem,
    not a property of the spec: ω(k) <= ω(g) + ω(k/g) and 2**ω(g) <= g <= g**s.
    """
    _require_positive(n=n, s=s)
    expansion = _expansion(spec, s)
    values = _crs_table(spec, s, n)

    double_sum = 0
    for q, b in expansion.abs_sums.items():
        double_sum += abs(values[q]) * b

    grouped = closed = 0
    for k, w in expansion.weights.items():
        term = _closed_form(k, gcd(k, n), s)
        if term < 1 << omega(k):  # termwise lower bound
            return False
        grouped += abs(w) * sum(abs(values[q]) for q in divisors(k))
        closed += abs(w) * term

    return double_sum == grouped == closed
