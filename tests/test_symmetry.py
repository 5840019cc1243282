"""Conserved complex invariants, norm identities, and the bracket algebra."""

import cmath
import math

import numpy as np
import pytest

import conedyn as cd
from conedyn.errors import DomainError, IrrationalScaleError, StructuralError
from conedyn.sampling import draw_bound_point
from conedyn.symmetry import (
    W_ALGEBRA_ROWS, _cdiv, _charge, _cmul, _kind, verify_w_algebra, w_algebra_table,
)
from helpers import RATIONAL_S, bound_energy, kepler_params, oscillator_params, perigee_point

TWO_PI = 2.0 * math.pi


def _ab(params, r, phi, p_r, J):
    inv = cd.phase_invariants(params, r, phi, p_r, J)
    return inv.a, inv.b


def _continued_local(params, r, phi, p_r, J):
    """Kepler C = (A - iB) exp(i s phi) with phi used as given, not reduced."""
    a, b = _ab(params, r, phi, p_r, J)
    return complex(a, -b) * cmath.exp(1j * params.geometry.s * phi)


class TestInvariantComponents:
    def test_kepler_components(self):
        assert _ab(kepler_params(), 2.0, 0.0, 0.0, 1.0) == pytest.approx((-0.5, 0.0))

    def test_kepler_circular_vanishes(self):
        assert _ab(kepler_params(), 1.0, 0.0, 0.0, 1.0) == pytest.approx((0.0, 0.0))

    def test_kepler_half_cone_circular(self):
        assert _ab(kepler_params(1, 2), 4.0, 0.0, 0.0, 1.0) == pytest.approx((0.0, 0.0))

    def test_oscillator_components(self):
        inv = cd.phase_invariants(oscillator_params(), 1.0, 0.0, 1.0, 1.0)
        assert inv.h == pytest.approx(1.5)
        assert (inv.a, inv.b) == pytest.approx((-0.5, 1.0))

    def test_oscillator_circular_vanishes(self):
        assert _ab(oscillator_params(), 1.0, 0.0, 0.0, 1.0) == pytest.approx((0.0, 0.0))

    def test_wrong_potential_structural(self):
        geo = cd.ConeGeometry.from_rational(1, 1)
        for pot in (cd.PowerLaw(amplitude=-1.0, exponent=-0.5),
                    cd.LogPotential(strength=1.0, r0=1.0)):
            with pytest.raises(StructuralError):
                cd.phase_invariants(cd.Params(m=1.0, geometry=geo, potential=pot),
                                    1.0, 0.0, 0.0, 1.0)

    def test_no_z_without_rational_form(self):
        inv = cd.phase_invariants(kepler_params(s=0.7071), 2.0, 0.3, 0.1, 1.0)
        assert inv.z_re is None and inv.z_im is None
        assert inv.a == pytest.approx(1.0 / (0.7071 ** 2 * 2.0) - 1.0)

    def test_arrays_match_scalar_complex_arithmetic(self):
        # elementwise array evaluation equals the scalar evaluation and
        # complex(A, -B)**n * exp(i c k phi) in Python complex arithmetic, bit for bit
        rng = np.random.default_rng(14)
        for k, n in RATIONAL_S:
            for build, c in ((kepler_params, 1), (oscillator_params, 2)):
                params = build(k, n, m=1.3)
                pts = [draw_bound_point(rng, params) for _ in range(50)]
                coords = [np.array([getattr(p, f) for p in pts]) for f in ("r", "phi", "p_r", "J")]
                arr = cd.phase_invariants(params, *coords)
                for i, pt in enumerate(pts):
                    one = cd.phase_invariants(params, pt.r, pt.phi, pt.p_r, pt.J)
                    ref = complex(one.a, -one.b) ** n * cmath.exp(1j * c * k * pt.phi)
                    assert (one.h, one.a, one.b) == (arr.h[i], arr.a[i], arr.b[i])
                    assert (one.z_re, one.z_im) == (arr.z_re[i], arr.z_im[i])
                    assert (one.z_re, one.z_im) == (ref.real, ref.imag)
                    assert one.h == cd.energy(params, pt)


class TestLocalInvariant:
    def test_value_at_zero_angle(self):
        pt = cd.PhasePoint(r=2.0, phi=0.0, p_r=0.0, J=1.0)
        c = cd.local_invariant(kepler_params(), pt)
        assert c.value == pytest.approx(-0.5 + 0.0j)

    def test_phase_rotation(self):
        pt = cd.PhasePoint(r=2.0, phi=math.pi / 2, p_r=0.0, J=1.0)
        c = cd.local_invariant(kepler_params(), pt)
        assert c.value == pytest.approx(-0.5j, abs=1e-15)

    def test_circular_orbit_vanishes(self):
        pt = cd.PhasePoint(r=1.0, phi=1.2, p_r=0.0, J=1.0)
        assert abs(cd.local_invariant(kepler_params(), pt).value) == 0.0

    def test_multivalued_for_fractional_scale(self):
        params = kepler_params(2, 3)
        a = _continued_local(params, 2.0, 0.7, 0.3, 1.0)
        b = _continued_local(params, 2.0, 0.7 + TWO_PI, 0.3, 1.0)
        assert abs(a - b) > 1e-3
        c = cd.local_invariant(params, cd.PhasePoint(2.0, 0.7, 0.3, 1.0))
        assert c.value == a
        assert c.multivalued

    def test_single_valued_for_integer_scale(self):
        params = kepler_params(1, 1)
        a = _continued_local(params, 2.0, 0.7, 0.3, 1.0)
        b = _continued_local(params, 2.0, 0.7 + TWO_PI, 0.3, 1.0)
        assert a == pytest.approx(b, rel=1e-12)
        assert not cd.local_invariant(params, cd.PhasePoint(2.0, 0.7, 0.3, 1.0)).multivalued


class TestGlobalInvariant:
    def test_equals_local_for_integer_scale(self):
        params = kepler_params(1, 1)
        pt = cd.PhasePoint(r=1.7, phi=0.9, p_r=-0.4, J=1.1)
        assert cd.global_invariant(params, pt).value == pytest.approx(
            cd.local_invariant(params, pt).value
        )

    def test_half_cone_hand_value(self):
        # A = 0, B = 2 at this point, so Z = (-2i)^2 = -4
        params = kepler_params(1, 2)
        pt = cd.PhasePoint(r=4.0, phi=0.0, p_r=1.0, J=1.0)
        assert cd.global_invariant(params, pt).value == pytest.approx(-4.0 + 0.0j)

    def test_single_valuedness(self):
        # integer phase winding makes Z periodic in phi; the only deviation
        # under a 2*pi shift is the rounding of the stored angle reduction
        rng = np.random.default_rng(9)
        params = oscillator_params(2, 3)
        for _ in range(100):
            pt = draw_bound_point(rng, params)
            shifted = cd.PhasePoint(r=pt.r, phi=pt.phi + TWO_PI, p_r=pt.p_r, J=pt.J)
            a = cd.global_invariant(params, shifted).value
            b = cd.global_invariant(params, pt).value
            assert abs(a - b) <= 1e-13 * abs(b)

    def test_irrational_scale_rejected(self):
        params = kepler_params(s=0.7071)
        pt = cd.PhasePoint(r=1.0, phi=0.0, p_r=0.0, J=1.0)
        with pytest.raises(IrrationalScaleError):
            cd.global_invariant(params, pt)

    def test_conserved_along_trajectory(self):
        for params, f in ((kepler_params(2, 3), 0.3), (oscillator_params(3, 4), 0.3)):
            E = bound_energy(params, 1.0, f)
            T = cd.radial_period(params, E, 1.0)
            traj = cd.integrate(params, perigee_point(params, E, 1.0), T / 60000, 100000, 500)
            z = np.array([cd.global_invariant(params, traj.point(i)).value
                          for i in range(len(traj))])
            drift = np.abs(z - z[0]).max() / max(abs(z[0]), 1e-12)
            assert drift < 1e-6


class TestNormIdentity:
    def test_kepler_hand_value(self):
        pt = cd.PhasePoint(r=2.0, phi=0.0, p_r=0.0, J=1.0)
        assert cd.norm_identity_residual(kepler_params(), pt) < 1e-15

    def test_oscillator_hand_value(self):
        pt = cd.PhasePoint(r=1.0, phi=0.0, p_r=1.0, J=1.0)
        assert cd.norm_identity_residual(oscillator_params(), pt) < 1e-15

    def test_circular_orbit_both_sides_vanish(self):
        params = kepler_params()
        pt = cd.PhasePoint(r=1.0, phi=0.3, p_r=0.0, J=1.0)
        a, b = _ab(params, pt.r, pt.phi, pt.p_r, pt.J)
        assert a == b == 0.0
        assert cd.norm_identity_residual(params, pt) < 1e-15

    def test_random_points(self):
        rng = np.random.default_rng(10)
        for build in (kepler_params, oscillator_params):
            params = build(2, 3)
            for _ in range(1000):
                pt = draw_bound_point(rng, params)
                assert cd.norm_identity_residual(params, pt) < 1e-12


def _r(r, phi, p_r, J):
    return r


def _phi(r, phi, p_r, J):
    return phi


def _p(r, phi, p_r, J):
    return p_r


def _j(r, phi, p_r, J):
    return J


class TestPoissonBracket:
    def setup_method(self):
        self.pt = cd.PhasePoint(r=1.3, phi=2.0, p_r=0.4, J=1.1)
        self.params = kepler_params()

    def _h(self, *coords):
        return cd.phase_invariants(self.params, *coords).h

    def test_canonical_pairs(self):
        assert cd.poisson_bracket(_r, _p, self.pt) == pytest.approx(1.0, abs=1e-10)
        assert cd.poisson_bracket(_phi, _j, self.pt) == pytest.approx(1.0, abs=1e-10)
        assert cd.poisson_bracket(_r, _j, self.pt) == pytest.approx(0.0, abs=1e-10)
        # phi reaches the functions unreduced, so a stencil across phi = 0 stays smooth
        near_zero = cd.PhasePoint(r=1.3, phi=1e-6, p_r=0.4, J=1.1)
        assert cd.poisson_bracket(_phi, _j, near_zero) == pytest.approx(1.0, abs=1e-10)

    def test_hamiltonian_conserves_j(self):
        assert cd.poisson_bracket(self._h, _j, self.pt) == pytest.approx(0.0, abs=1e-9)

    def test_antisymmetry(self):
        def z(*coords):
            inv = cd.phase_invariants(self.params, *coords)
            return inv.z_re + 1j * inv.z_im

        ab = cd.poisson_bracket(self._h, z, self.pt)
        ba = cd.poisson_bracket(z, self._h, self.pt)
        assert abs(ab + ba) < 1e-10

    def test_differencing_across_tip_rejected(self):
        tiny = cd.PhasePoint(r=1e-6, phi=0.0, p_r=0.0, J=1.0)
        with pytest.raises(DomainError):
            cd.poisson_bracket(_r, _p, tiny, h=1e-2)

    def test_same_stencil_as_w_algebra(self):
        # poisson_bracket and verify_w_algebra difference on one stencil
        params = oscillator_params(2, 3)
        pt = draw_bound_point(np.random.default_rng(15), params)

        def z(*coords):
            inv = cd.phase_invariants(params, *coords)
            return inv.z_re + 1j * inv.z_im

        def h(*coords):
            return cd.phase_invariants(params, *coords).h

        rows = {row.name: row.value for row in verify_w_algebra(params, pt).rows}
        assert cd.poisson_bracket(_j, z, pt) == rows["{J,Z}"]
        assert cd.poisson_bracket(h, z, pt) == rows["{H,Z}"]
        assert cd.poisson_bracket(h, _j, pt) == rows["{H,J}"]


class TestWAlgebra:
    def test_kepler_flat_charge_relation(self):
        params = kepler_params(1, 1)
        pt = cd.PhasePoint(r=1.3, phi=2.0, p_r=0.4, J=1.1)
        report = verify_w_algebra(params, pt)
        rows = {row.name: row for row in report.rows}
        assert rows["{J,Z}"].rel_err < 1e-6
        assert rows["{J,Zbar}"].rel_err < 1e-6
        assert rows["{H,Z}"].rel_err < 1e-8
        assert rows["{H,J}"].rel_err < 1e-8
        # the i-absorbed rows document the convention gap of exactly sqrt(2)
        assert rows["{J,Z} i-absorbed"].rel_err == pytest.approx(math.sqrt(2.0), rel=1e-6)

    def test_zzbar_flat_kepler_value(self):
        # {Z, Zbar} = 4i J H / m for integer scale factor
        params = kepler_params(1, 1)
        pt = cd.PhasePoint(r=1.3, phi=2.0, p_r=0.4, J=1.1)
        report = verify_w_algebra(params, pt)
        zz = next(r for r in report.rows if r.name == "{Z,Zbar} energy-in-base")
        expect = 4j * pt.J * cd.energy(params, pt)
        assert zz.expected == pytest.approx(expect, rel=1e-12)
        assert zz.rel_err < 1e-6
        assert report.zzbar_match == "both"

    def test_zzbar_flat_oscillator_value(self):
        # {Z, Zbar} = -4i omega^2 J for integer scale factor
        params = oscillator_params(1, 1)
        pt = cd.PhasePoint(r=1.1, phi=0.7, p_r=0.5, J=1.0)
        report = verify_w_algebra(params, pt)
        zz = next(r for r in report.rows if r.name == "{Z,Zbar} energy-in-base")
        assert zz.expected == pytest.approx(-4j * pt.J, rel=1e-12)
        assert zz.rel_err < 1e-6
        assert report.zzbar_match == "both"

    def test_half_cone_adjudication(self):
        # n = 2: the two candidate power bases differ; the numeric bracket
        # picks out the one with the energy inside
        params = kepler_params(1, 2)
        rng = np.random.default_rng(11)
        for _ in range(5):
            pt = draw_bound_point(rng, params)
            report = verify_w_algebra(params, pt)
            assert report.zzbar_match == "energy_in_base"

    def test_oscillator_bases_coincide(self):
        params = oscillator_params(3, 4)
        rng = np.random.default_rng(12)
        pt = draw_bound_point(rng, params)
        report = verify_w_algebra(params, pt)
        assert report.zzbar_match == "both"

    def test_charge_relations_across_geometries(self):
        rng = np.random.default_rng(13)
        for k, n in [(1, 1), (1, 2), (2, 3), (3, 4)]:
            for build in (kepler_params, oscillator_params):
                params = build(k, n)
                for _ in range(3):
                    pt = draw_bound_point(rng, params)
                    report = verify_w_algebra(params, pt)
                    assert report.worst_check_error() < 1e-6

    def test_irrational_scale_rejected(self):
        params = kepler_params(s=0.7071)
        pt = cd.PhasePoint(r=1.0, phi=0.0, p_r=0.1, J=1.0)
        with pytest.raises(IrrationalScaleError):
            verify_w_algebra(params, pt)


# --- the scalar W-algebra path before the array table, kept as reference ---

def _reference_stencil(pt, h):
    x = np.array([pt.r, pt.phi, pt.p_r, pt.J])
    delta = np.array([[h], [0.5 * h]]) * np.maximum(1.0, np.abs(x))
    points = np.tile(x, (2, 4, 2, 1))
    axis = np.arange(4)
    points[:, axis, 0, axis] = x + delta
    points[:, axis, 1, axis] = x - delta
    return points.reshape(16, 4).T, 2.0 * delta


def _reference_brackets(re, im, den, pairs):
    re = re.reshape(-1, 2, 4, 2)
    im = im.reshape(-1, 2, 4, 2)
    p_re, p_im = _cdiv(re[..., 0] - re[..., 1], im[..., 0] - im[..., 1], den)
    f, g = (np.array(side) for side in zip(*pairs))
    fr, fphi, fp, fj = ((p_re[f, :, i], p_im[f, :, i]) for i in range(4))
    gr, gphi, gp, gj = ((p_re[g, :, i], p_im[g, :, i]) for i in range(4))
    terms = [_cmul(*fr, *gp), _cmul(*fp, *gr), _cmul(*fphi, *gj), _cmul(*fj, *gphi)]
    b_re = terms[0][0] - terms[1][0] + terms[2][0] - terms[3][0]
    b_im = terms[0][1] - terms[1][1] + terms[2][1] - terms[3][1]
    x_re, x_im = _cmul(4.0, 0.0, b_re[:, 1], b_im[:, 1])
    v_re, v_im = _cdiv(x_re - b_re[:, 0], x_im - b_im[:, 0], 3.0)
    return [complex(a, b) for a, b in zip(v_re.tolist(), v_im.tolist())]


def _reference_w_algebra(params, pt, h):
    """Rows (value, expected, abs_err, rel_err) and zzbar_match, evaluated
    point by point in Python complex arithmetic."""
    k, n = params.geometry.rational
    inv = cd.phase_invariants(params, pt.r, pt.phi, pt.p_r, pt.J)
    z = complex(inv.z_re, inv.z_im)
    hval, m, charge = inv.h, params.m, _charge(params) * k
    coords, den = _reference_stencil(pt, h)
    on = cd.phase_invariants(params, *coords)
    zero = np.zeros(16)
    jz, jzb, hz, hj, zzb = _reference_brackets(
        np.array([coords[3], on.h, on.z_re, on.z_re]),
        np.array([zero, zero, on.z_im, -on.z_im]),
        den, [(0, 2), (0, 3), (1, 2), (1, 0), (2, 3)],
    )
    norm_sq = inv.a * inv.a + inv.b * inv.b
    if _kind(params) == "kepler":
        kappa = params.potential.kappa
        pref = 4j * n**3 / (m * k) * pt.J * hval
        cand_energy = pref * norm_sq ** (n - 1)
        cand_free = pref * (2.0 * n * n * pt.J * pt.J / (m * k * k) + kappa * kappa) ** (n - 1)
    else:
        omega = params.potential.omega
        pref = -4j * n**3 / k * omega * omega * pt.J
        cand_energy = pref * norm_sq ** (n - 1)
        cand_free = pref * (hval * hval - omega * omega * n * n * pt.J * pt.J / (k * k)) ** (n - 1)
    scale_zz = 0.01 * max(abs(cand_energy), abs(cand_free))
    table = (
        (jz, -1j * charge * z, 0.0), (jz, charge * z, 0.0),
        (jzb, 1j * charge * z.conjugate(), 0.0), (jzb, -charge * z.conjugate(), 0.0),
        (hz, 0.0, abs(z)), (hj, 0.0, abs(pt.J)),
        (zzb, cand_energy, scale_zz), (zzb, cand_free, scale_zz),
    )
    rows = []
    for value, expected, scale in table:
        err = abs(value - expected)
        rel = abs(value - expected) / max(abs(expected), scale, 1e-12)
        rows.append((complex(value), complex(expected), err, rel))
    match_energy, match_free = rows[6][3] < 1e-5, rows[7][3] < 1e-5
    match = ("both" if match_energy and match_free else "energy_in_base" if match_energy
             else "energy_free_base" if match_free else "neither")
    return rows, match


def _hex_rows(rows):
    return [(v.real.hex(), v.imag.hex(), e.real.hex(), e.imag.hex(), err.hex(), rel.hex())
            for v, e, err, rel in rows]


def _table_rows(table, i):
    """Row tuples of point i of a WAlgebraTable, in the reference's layout."""
    cols = [c[:, i].tolist() for c in table[:6]]
    return [(complex(vr, vi), complex(er, ei), err, rel)
            for vr, vi, er, ei, err, rel in zip(*cols)]


def _edge_points(params, rng, count):
    """Bound points with J of both signs and phi at 0 and just below 2*pi."""
    below = math.nextafter(TWO_PI, 0.0)
    pts = []
    for i in range(count):
        pt = draw_bound_point(rng, params)
        phi = (0.0, below, pt.phi)[i % 3]
        pts.append(cd.PhasePoint(r=pt.r, phi=phi, p_r=pt.p_r, J=pt.J * (-1) ** (i // 3)))
    return pts


W_ALGEBRA_S = [(1, 1), (1, 2), (2, 3), (3, 4), (1, 3), (4, 1)]


class TestWAlgebraTable:
    @pytest.mark.parametrize("build", [kepler_params, oscillator_params],
                             ids=["kepler", "oscillator"])
    def test_bitwise_equals_scalar_reference(self, build):
        rng = np.random.default_rng(16)
        for k, n in W_ALGEBRA_S:
            for m in (1.0, 1.7):
                params = build(k, n, m=m)
                pts = _edge_points(params, rng, 12)
                coords = [np.array([getattr(p, f) for p in pts]) for f in ("r", "phi", "p_r", "J")]
                for h in (1e-5, 1e-4):
                    batch = w_algebra_table(params, *coords, h)
                    for i, pt in enumerate(pts):
                        ref, match = _reference_w_algebra(params, pt, h)
                        single = w_algebra_table(params, pt.r, pt.phi, pt.p_r, pt.J, h)
                        report = verify_w_algebra(params, pt, h)
                        facade = [(row.value, row.expected, row.abs_err, row.rel_err)
                                  for row in report.rows]
                        assert _hex_rows(_table_rows(batch, i)) == _hex_rows(ref)
                        assert _hex_rows(_table_rows(single, 0)) == _hex_rows(ref)
                        assert _hex_rows(facade) == _hex_rows(ref)
                        assert batch.zzbar_match[i] == single.zzbar_match[0] == match
                        assert report.zzbar_match == match

    def test_unreduced_phi_and_zero_z(self):
        # phi outside [0, 2*pi) is reduced as PhasePoint reduces it; on a
        # circular orbit Z = 0 exactly, so the signs of zero must match too
        below = math.nextafter(TWO_PI, 0.0)
        for params in (kepler_params(1, 1), oscillator_params(1, 1), kepler_params(1, 2, m=1.7)):
            raw = [(1.0, phi, 0.0, J) for phi in (0.0, below, -0.3, 7.5, -TWO_PI)
                   for J in (1.0, -1.0)]
            raw += [(pt.r, pt.phi + shift, pt.p_r, pt.J)
                    for pt, shift in zip(_edge_points(params, np.random.default_rng(18), 4),
                                         (-TWO_PI, TWO_PI, 3 * TWO_PI, -5.0))]
            batch = w_algebra_table(params, *np.array(raw).T)
            for i, coords in enumerate(raw):
                ref, match = _reference_w_algebra(params, cd.PhasePoint(*coords), 1e-5)
                assert _hex_rows(_table_rows(batch, i)) == _hex_rows(ref)
                assert batch.zzbar_match[i] == match

    def test_rows_and_shapes(self):
        params = kepler_params(2, 3)
        pts = _edge_points(params, np.random.default_rng(17), 5)
        coords = [np.array([getattr(p, f) for p in pts]) for f in ("r", "phi", "p_r", "J")]
        table = w_algebra_table(params, *coords)
        assert all(c.shape == (8, 5) for c in table[:6])
        assert table.zzbar_match.shape == (5,)
        report = verify_w_algebra(params, pts[0])
        assert [(r.name, r.role, r.note) for r in report.rows] == list(W_ALGEBRA_ROWS)

    def test_bad_point_in_batch_named(self):
        params = oscillator_params(1, 2)
        r = np.array([1.0, 0.8, 1.2, 1e-6, 0.9])
        with pytest.raises(DomainError, match=r"cross r = 0 at point 3\b"):
            w_algebra_table(params, r, np.zeros(5), np.zeros(5), np.ones(5), h=1e-2)

    def test_nonpositive_step_rejected(self):
        pt = cd.PhasePoint(r=1.3, phi=2.0, p_r=0.4, J=1.1)
        for h in (0.0, -1e-5, math.nan):
            with pytest.raises(DomainError):
                verify_w_algebra(kepler_params(), pt, h)

    def test_overflowing_power_base_gives_nan_rows(self):
        # Kepler s = 1/3: at p_r = 1e80 the {Z,Zbar} power base (A^2+B^2)^2
        # overflows a float; the point gets NaN rows, as p_r = 1e200 (whose
        # H overflows) does, and the finite points keep their bits
        params = kepler_params(1, 3)
        pts = _edge_points(params, np.random.default_rng(19), 2)
        raw = [(pts[0].r, pts[0].phi, pts[0].p_r, pts[0].J), (1.0, 0.3, 1e80, 1.0),
               (pts[1].r, pts[1].phi, pts[1].p_r, pts[1].J), (1.0, 0.3, 1e200, 1.0)]
        with np.errstate(all="ignore"):
            table = w_algebra_table(params, *np.array(raw).T)
            report = verify_w_algebra(params, cd.PhasePoint(r=1.0, phi=0.3, p_r=1e80, J=1.0))
        finite = w_algebra_table(params, *np.array(raw[::2]).T)
        for i in (1, 3):
            for col in (table.value_re, table.value_im, table.abs_err, table.rel_err):
                assert np.isnan(col[:, i]).all()
            assert table.zzbar_match[i] == "neither"
        for i, j in ((0, 0), (2, 1)):
            assert _hex_rows(_table_rows(table, i)) == _hex_rows(_table_rows(finite, j))
            assert table.zzbar_match[i] == finite.zzbar_match[j]
        assert math.isnan(report.worst_check_error())
