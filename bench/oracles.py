"""Independent answer checks for the benchmark operations.

Nothing here calls lamadic.  Ring elements are rebuilt from their
lambda-adic digits with plain integer polynomials in Z[x]/Phi_ell, and the
number theory goes through sympy or short closed forms.  Every check
returns None when the answer is right and a one-line reason otherwise.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache

import sympy
from sympy import Poly, QQ, Symbol

X = Symbol("x")

# Relative class numbers h^- of Q(zeta_ell), Washington, "Introduction to
# Cyclotomic Fields", table of relative class numbers.
H_MINUS_TABLE = {
    3: 1, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1, 23: 3, 29: 8, 31: 9,
    37: 37, 41: 121, 43: 211, 47: 695, 53: 4889, 59: 41241, 61: 76301,
    67: 853513,
}


# ---------------------------------------------------------------------------
# Z[x]/Phi_ell on the basis 1, x, ..., x^(ell-2).


def _fold(coeffs, ell):
    out = [0] * ell
    for k, c in enumerate(coeffs):
        out[k % ell] += c
    top = out[ell - 1]
    return [c - top for c in out[: ell - 1]]


def cyc_mul(a, b, ell):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _fold(prod, ell)


def cyc_conj(a, ell):
    """x -> x^(-1) = x^(ell-1)."""
    out = [0] * ell
    for k, c in enumerate(a):
        out[(-k) % ell] += c
    return _fold(out, ell)


@lru_cache(maxsize=None)
def _lambda_powers(ell, n):
    lam = _fold([1, -1], ell)
    powers = [_fold([1], ell)]
    for _ in range(1, n):
        powers.append(cyc_mul(powers[-1], lam, ell))
    return tuple(tuple(p) for p in powers)


def from_digits(digits, ell):
    """sum_i digits[i] * (1 - x)^i in Z[x]/Phi_ell."""
    acc = [0] * (ell - 1)
    for d, p in zip(digits, _lambda_powers(ell, len(digits))):
        if d:
            for k, c in enumerate(p):
                acc[k] += d * c
    return acc


@lru_cache(maxsize=None)
def _phi(ell):
    return Poly(sympy.cyclotomic_poly(ell, X), X, domain=QQ)


@lru_cache(maxsize=None)
def _lambda_inverse_power(ell, n):
    """lambda^(-n) in Q[x]/Phi_ell."""
    return sympy.invert(Poly((1 - X) ** n, X, domain=QQ), _phi(ell))


def in_lambda_power(c, ell, n):
    """Whether c lies in lambda^n O: c * lambda^(-n) is integral."""
    if not any(c):
        return True
    q = (Poly(list(reversed(c)), X, domain=QQ) * _lambda_inverse_power(ell, n)).rem(_phi(ell))
    return all(coef.q == 1 for coef in q.all_coeffs())


def non_residue(ell):
    return next(a for a in range(2, ell) if sympy.legendre_symbol(a, ell) == -1)


# ---------------------------------------------------------------------------
# unitary


def check_lift(ell, n, sign, a_digits, lift_digits, verdict_kind):
    """The lift of a member of SU(V/lambda^(n-1)) to precision n.

    a_digits, lift_digits: d x d nested lists of digit tuples.
    """
    d = len(lift_digits)
    for i in range(d):
        for j in range(d):
            if tuple(lift_digits[i][j][: n - 1]) != tuple(a_digits[i][j]):
                return f"lift does not truncate to its input at ({i},{j})"
    gamma = [1] * d
    if sign == -1:
        gamma[-1] = non_residue(ell)
    p = [[from_digits(lift_digits[i][j], ell) for j in range(d)] for i in range(d)]
    for i in range(d):
        left = [cyc_mul(cyc_conj(p[k][i], ell), [gamma[k]], ell) for k in range(d)]
        for j in range(d):
            c = [0] * (ell - 1)
            for k in range(d):
                for t, v in enumerate(cyc_mul(left[k], p[k][j], ell)):
                    c[t] += v
            if i == j:
                c[0] -= gamma[i]
            if not in_lambda_power(c, ell, n):
                return f"(A^dagger Gamma A - Gamma)[{i}][{j}] is not in lambda^{n} O"
    if verdict_kind != "SU":
        return f"membership verdict {verdict_kind!r} for an SU lift"
    return None


def check_commutator(result):
    return None if result is True else f"matrix_commutator_check returned {result!r}"


# ---------------------------------------------------------------------------
# invariants


def _n_prime2(ell, r, k):
    """2 n'(k) = 2 floor(r (ell - k) / ell) - (r - 1)."""
    return 2 * ((r * (ell - k)) // ell) - (r - 1)


@lru_cache(maxsize=None)
def doubled_half_system_det(ell, r):
    """det 2[n'(i j^(-1))] over the representatives 1..(ell-1)/2."""
    g = (ell - 1) // 2
    reps = range(1, g + 1)
    rows = [[_n_prime2(ell, r, i * pow(j, -1, ell) % ell) for j in reps] for i in reps]
    return int(sympy.Matrix(rows).det(method="bareiss"))


def expected_t(ell, r):
    return sympy.multiplicity(ell, abs(doubled_half_system_det(ell, r)))


def c_constant(ell, r):
    r_ell = int(sympy.n_order(r, ell))
    if r_ell % 2:
        return (r**r_ell - 1) ** ((ell - 1) // (2 * r_ell))
    return (r ** (r_ell // 2) + 1) ** ((ell - 1) // r_ell)


def expected_kappa_t(ell, r):
    kappa = sympy.multiplicity(ell, H_MINUS_TABLE[ell] * c_constant(ell, r)) - 1
    return kappa, expected_t(ell, r)


def check_demjanenko(ell, r, report):
    h = H_MINUS_TABLE[ell]
    if report.h_minus != h:
        return f"h^-({ell}) = {report.h_minus}, published {h}"
    g = (ell - 1) // 2
    det2 = doubled_half_system_det(ell, r)
    if Fraction(report.det) * 2**g != det2:
        return f"det = {report.det}, independent det 2[n'] / 2^{g} = {Fraction(det2, 2**g)}"
    c = c_constant(ell, r)
    if abs(Fraction(det2, 2**g)) != Fraction(h * c, 2 * ell):
        return "independent |det| differs from h^- c / (2 ell)"
    kappa, t = expected_kappa_t(ell, r)
    if (report.kappa_bound, report.t) != (kappa, t):
        return f"(kappa, t) = {(report.kappa_bound, report.t)}, expected {(kappa, t)}"
    return None


def check_lattice_index(ell, r, t_prime):
    t = expected_t(ell, r)
    return None if t_prime == t else f"t' = {t_prime}, ord_ell det 2[n'] = {t}"


def _local_index_exponent(columns, dim, ell, depth):
    """log_ell of [Z^dim : span(columns)] for a lattice containing
    ell^(depth-1) Z^dim, by elimination over Z/ell^depth with pivots of
    least valuation."""
    mod = ell**depth
    rows = [[col[i] % mod for col in columns] for i in range(dim)]
    total = 0
    for step in range(dim):
        best = None
        for i in range(step, dim):
            for j, v in enumerate(rows[i]):
                if v:
                    val = sympy.multiplicity(ell, v)
                    if best is None or val < best[0]:
                        best = (val, i, j)
        if best is None:
            raise ValueError("lattice does not contain ell^(depth-1) Z^dim")
        val, i, j = best
        rows[step], rows[i] = rows[i], rows[step]
        for row in rows:
            row[step], row[j] = row[j], row[step]
        unit_inv = pow(rows[step][step] // ell**val, -1, mod)
        for i in range(step + 1, dim):
            if rows[i][step]:
                f = (rows[i][step] // ell**val) * unit_inv % mod
                rows[i] = [(x - f * y) % mod for x, y in zip(rows[i], rows[step])]
        total += val
    return total


def expected_reduction_order(ell, r, m):
    """Order of the unit group of O/lambda^m as lamadic factors it:
    torsion -zeta, the rational part 1 + ell(r-1)Z_ell, and the additive
    subgroup spanned by lambda^i - conj(lambda)^i, i = 2..(ell+1)/2."""
    torsion = 2 * ell if m >= 2 else 2
    depth_rat = -(-m // (ell - 1))
    e_r = sympy.multiplicity(ell, r - 1) if r > 1 else 0
    rational = ell ** max(0, depth_rat - 1 - e_r)
    lam = _lambda_powers(ell, max(m, (ell + 1) // 2) + 1)
    relations = [cyc_mul(lam[m], _fold([0] * t + [1], ell), ell) for t in range(ell - 1)]
    gens = [
        [a - b for a, b in zip(lam[i], cyc_conj(list(lam[i]), ell))]
        for i in range(2, (ell + 1) // 2 + 1)
    ]
    depth = depth_rat + 1
    exponent = m - _local_index_exponent(relations + gens, ell - 1, ell, depth)
    return torsion * rational * ell**exponent, {
        "torsion": torsion, "rational": rational, "anti_fixed_exponent": exponent,
    }


def check_reduction_order(ell, r, m, result):
    expected = expected_reduction_order(ell, r, m)
    return None if tuple(result) == expected else f"{result} != expected {expected}"


def check_decompose(e_used, x_digits, result):
    e, rho, x = result
    if e != e_used:
        return f"torsion exponent {e}, generator used {e_used}"
    if tuple(x.digits) != tuple(x_digits):
        return "log part differs from the generator's x"
    if any(rho.digits[1:]) or rho.digits[0] != 1:
        return "rational part of a norm-one unit is not 1"
    return None


# ---------------------------------------------------------------------------
# curves


def _expr(coeffs):
    return sum(c * X**k for k, c in enumerate(coeffs))


def factor_degrees_mod(coeffs, p):
    with warnings.catch_warnings():  # sympy sorts modular integers internally
        warnings.simplefilter("ignore", sympy.utilities.exceptions.SymPyDeprecationWarning)
        _, parts = sympy.factor_list(_expr(coeffs), X, modulus=p)
    return sorted(Poly(f, X).degree() for f, m in parts for _ in range(m))


def _irreducible(coeffs):
    _, parts = sympy.factor_list(_expr(coeffs), X)
    return len(parts) == 1 and parts[0][1] == 1


def _simple_prime_problem(p, disc, ell):
    if p in (2, ell):
        return f"simple prime {p} is excluded"
    if not sympy.isprime(p):
        return f"simple prime {p} is not prime"
    if disc % p or (disc // p) % p == 0:
        return f"ord_{p}(disc) != 1"
    return None


def check_curve_session(coeffs, ell, codes, outputs):
    """One check-curve + division-degree session, both with --json.

    codes: the two exit codes; outputs: the two parsed stdout line lists.
    Exit 3 is a verdict and is accepted when the oracle agrees with it.
    """
    r = len(coeffs) - 1
    disc = int(sympy.discriminant(_expr(coeffs), X))
    cc_code, dd_code = codes
    cc_lines, dd_lines = outputs
    if cc_code not in (0, 3) or dd_code not in (0, 3):
        return f"exit codes {codes}"
    if disc == 0:
        return None if cc_code == dd_code == 3 else "inseparable input accepted"
    cc = cc_lines[0]
    if cc["disc"] != disc:
        return f"check-curve disc {cc['disc']} != sympy {disc}"
    if cc["epsilon"] != sympy.legendre_symbol(r % ell, ell):
        return "epsilon differs from the Legendre symbol (r | ell)"
    p = cc["simple_prime"]
    if p is not None:
        problem = _simple_prime_problem(p, disc, ell)
        if problem:
            return problem
    elif cc["simple_prime_proven"]:
        fac = sympy.factorint(abs(disc))
        if any(e == 1 and q not in (2, ell) for q, e in fac.items()):
            return "a simple prime exists but none was reported"
    status = cc["galois"]
    irreducible = _irreducible(coeffs)
    if (status == "reducible") == irreducible:
        return f"galois status {status!r} but sympy irreducible = {irreducible}"
    passes = status == "symmetric" and p is not None
    if (cc_code == 0) != passes:
        return f"check-curve exit {cc_code} for status {status!r}, prime {p}"

    if dd_code == 3:
        message = dd_lines[-1]["error"]
        if status != "symmetric":
            expected = "Galois group not certified"
        elif p is None:
            expected = "no prime of discriminant-valuation one"
        else:
            kappa, t = expected_kappa_t(ell, r)
            if kappa == 0 and t == 0:
                return f"division-degree refused: {message}"
            expected = f"kappa_bound={kappa}, t={t}"
        return None if expected in message else f"refusal {message!r}, expected {expected!r}"
    rep = dd_lines[-1]
    if status != "symmetric" or p is None or expected_kappa_t(ell, r) != (0, 0):
        return "division-degree accepted an input whose hypotheses fail"
    if rep["disc"] != disc:
        return "division-degree disc differs from sympy"
    product = rep["disc_leftover"]
    for q, e in rep["disc_factors"]:
        product *= q**e
        if not sympy.isprime(q):
            return f"reported factor {q} is not prime"
    if product != abs(disc):
        return "reported factorization does not multiply to |disc|"
    if rep["simple_prime_proven"] != (rep["disc_leftover"] == 1):
        return "proven flag disagrees with the leftover"
    if rep["disc_leftover"] != 1 and sympy.isprime(rep["disc_leftover"]):
        return "the unfactored leftover is prime"
    if rep["simple_prime"] is None:
        return "division-degree accepted an input without a simple prime"
    problem = _simple_prime_problem(rep["simple_prime"], disc, ell)
    if problem:
        return problem
    for name, w in rep["galois"]["witnesses"].items():
        if w["cycle_type"] != factor_degrees_mod(coeffs, w["p"]):
            return f"{name} witness mod {w['p']}: {w['cycle_type']} is not the factor degrees"
    if rep["components"]["galois_intersection_order"] != sympy.factorial(r) // 2:
        return "galois intersection order is not r!/2"
    return None
