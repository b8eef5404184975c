"""Near-Earth SGP4 analytical propagator.

Transcribed from the public-domain reference implementation distributed with
"Revisiting Spacetrack Report #3" (Vallado, Crawford, Hujsak, Kelso, AIAA
2006-6753) using the WGS-72 gravity constants, which is the convention under
which two-line element sets are generated.  Only the near-Earth branch is
implemented: orbits with periods of 225 minutes or longer (the deep-space
regime with lunar/solar periodics and resonance terms) are rejected, since
every radiometer platform this package models flies in LEO.

All propagation math is written elementwise with numpy so a single satellite
can be evaluated at many epoch offsets in one call; scalars work too.
Nothing here mutates shared state after construction, so a prepared model is
safe to use concurrently from many threads.
"""
from __future__ import annotations

import numpy as np

from ..errors import DecayedOrbit, DeepSpaceUnsupported, PropagationError
from ..timeutil import JD_1949_DEC_31

TWOPI = 2.0 * np.pi

# WGS-72 gravity constants (km, min time units).
MU_KM3_S2 = 398600.8
EARTH_RADIUS_KM = 6378.135
XKE = 60.0 / np.sqrt(EARTH_RADIUS_KM**3 / MU_KM3_S2)
J2 = 0.001082616
J3 = -0.00000253881
J4 = -0.00000165597
J3OJ2 = J3 / J2

#: Below this limit 2*pi/no (min/rev) the deep-space corrections are required.
_DEEP_SPACE_PERIOD_MIN = 225.0


def gstime(jd_ut1):
    """Greenwich mean sidereal time (radians) for a UT1 julian date.

    Accepts scalars or arrays.
    """
    tut1 = (np.asarray(jd_ut1, dtype=float) - 2451545.0) / 36525.0
    temp = (
        -6.2e-6 * tut1**3
        + 0.093104 * tut1**2
        + (876600.0 * 3600 + 8640184.812866) * tut1
        + 67310.54841
    )
    # 360/86400 = 1/240 converts seconds of time to degrees.
    temp = np.radians(temp / 240.0) % TWOPI
    return np.where(temp < 0.0, temp + TWOPI, temp)[()]


def _signed_mod(x, modulus):
    """C-style fmod: remainder carries the sign of x (vector friendly)."""
    return np.where(x >= 0.0, x % modulus, -((-x) % modulus))


def _kepler(u, axnl, aynl):
    """(sin E, cos E) for arrays of one shape, E solving Kepler's equation
    u = E - axnl sin E + aynl cos E.

    Ten Newton steps from E = u, with the reference implementation's
    0.95 rad correction clamp; ten always converge for near-Earth
    eccentricities.  An element stops at the first step that leaves E
    unchanged (eo1 + tem5 == eo1) and keeps that step's sin and cos:
    every later step would repeat them, so the result has the bits of all
    ten steps, however the times are batched.  (E starts at u >= 0 and a
    sum is -0.0 only when both terms are, so == never hides a change of
    the sign of a zero.)
    """
    shape = np.shape(u)
    u, axnl, aynl = (np.ravel(x) for x in np.broadcast_arrays(u, axnl, aynl))
    sineo1, coseo1 = np.empty(u.size), np.empty(u.size)
    active, eo1 = np.arange(u.size), u.astype(float)
    for _ in range(10):
        sineo1[active] = sine = np.sin(eo1)
        coseo1[active] = cose = np.cos(eo1)
        tem5 = 1.0 - cose * axnl - sine * aynl
        tem5 = (u - aynl * cose + axnl * sine - eo1) / tem5
        tem5 = np.clip(tem5, -0.95, 0.95)
        moved = eo1 + tem5 != eo1
        active, u, axnl, aynl, eo1 = (
            x[moved] for x in (active, u, axnl, aynl, eo1 + tem5))
        if not active.size:
            break
    return sineo1.reshape(shape), coseo1.reshape(shape)


class SGP4Model:
    """Initialised SGP4 constants for one element set.

    Parameters are the raw mean elements in SGP4's native units: radians,
    radians/minute, and epoch as days since 1949 December 31 00:00 UT.
    """

    def __init__(self, *, epoch_days_1950, bstar, ecco, argpo, inclo, mo,
                 no_kozai, nodeo):
        if not 0.0 <= ecco < 1.0:
            raise PropagationError(f"eccentricity {ecco} outside [0, 1)")
        if no_kozai <= 0.0:
            raise PropagationError(f"mean motion {no_kozai} must be positive")

        self.bstar = bstar
        self.ecco = ecco
        self.argpo = argpo
        self.inclo = inclo
        self.mo = mo
        self.no_kozai = no_kozai
        self.nodeo = nodeo

        x2o3 = 2.0 / 3.0
        ss = 78.0 / EARTH_RADIUS_KM + 1.0
        qzms2t = ((120.0 - 78.0) / EARTH_RADIUS_KM) ** 4

        # --- initl: un-kozai the mean motion, auxiliary epoch quantities ---
        eccsq = ecco * ecco
        omeosq = 1.0 - eccsq
        rteosq = np.sqrt(omeosq)
        cosio = np.cos(inclo)
        cosio2 = cosio * cosio

        ak = (XKE / no_kozai) ** x2o3
        d1 = 0.75 * J2 * (3.0 * cosio2 - 1.0) / (rteosq * omeosq)
        del_ = d1 / (ak * ak)
        adel = ak * (1.0 - del_ * del_ - del_ *
                     (1.0 / 3.0 + 134.0 * del_ * del_ / 81.0))
        del_ = d1 / (adel * adel)
        self.no_unkozai = no_kozai / (1.0 + del_)

        ao = (XKE / self.no_unkozai) ** x2o3
        sinio = np.sin(inclo)
        po = ao * omeosq
        con42 = 1.0 - 5.0 * cosio2
        self.con41 = -con42 - cosio2 - cosio2
        posq = po * po
        rp = ao * (1.0 - ecco)
        self.gsto = gstime(epoch_days_1950 + JD_1949_DEC_31)

        if TWOPI / self.no_unkozai >= _DEEP_SPACE_PERIOD_MIN:
            raise DeepSpaceUnsupported(
                "orbital period {:.1f} min requires the deep-space (SDP4) "
                "branch; only near-Earth orbits are supported".format(
                    TWOPI / self.no_unkozai))

        self.isimp = 0
        if rp < 220.0 / EARTH_RADIUS_KM + 1.0:
            self.isimp = 1
        sfour = ss
        qzms24 = qzms2t
        perige = (rp - 1.0) * EARTH_RADIUS_KM

        # Perigees below 156 km alter the density function fitting constants.
        if perige < 156.0:
            sfour = perige - 78.0
            if perige < 98.0:
                sfour = 20.0
            qzms24 = ((120.0 - sfour) / EARTH_RADIUS_KM) ** 4
            sfour = sfour / EARTH_RADIUS_KM + 1.0

        pinvsq = 1.0 / posq
        tsi = 1.0 / (ao - sfour)
        self.eta = ao * ecco * tsi
        etasq = self.eta * self.eta
        eeta = ecco * self.eta
        psisq = abs(1.0 - etasq)
        coef = qzms24 * tsi**4
        coef1 = coef / psisq**3.5
        cc2 = coef1 * self.no_unkozai * (
            ao * (1.0 + 1.5 * etasq + eeta * (4.0 + etasq))
            + 0.375 * J2 * tsi / psisq * self.con41
            * (8.0 + 3.0 * etasq * (8.0 + etasq)))
        self.cc1 = bstar * cc2
        cc3 = 0.0
        if ecco > 1.0e-4:
            cc3 = -2.0 * coef * tsi * J3OJ2 * self.no_unkozai * sinio / ecco
        self.x1mth2 = 1.0 - cosio2
        self.cc4 = 2.0 * self.no_unkozai * coef1 * ao * omeosq * (
            self.eta * (2.0 + 0.5 * etasq)
            + ecco * (0.5 + 2.0 * etasq)
            - J2 * tsi / (ao * psisq)
            * (-3.0 * self.con41 * (1.0 - 2.0 * eeta + etasq
                                    * (1.5 - 0.5 * eeta))
               + 0.75 * self.x1mth2 * (2.0 * etasq - eeta * (1.0 + etasq))
               * np.cos(2.0 * argpo)))
        self.cc5 = 2.0 * coef1 * ao * omeosq * (
            1.0 + 2.75 * (etasq + eeta) + eeta * etasq)
        cosio4 = cosio2 * cosio2
        temp1 = 1.5 * J2 * pinvsq * self.no_unkozai
        temp2 = 0.5 * temp1 * J2 * pinvsq
        temp3 = -0.46875 * J4 * pinvsq * pinvsq * self.no_unkozai
        self.mdot = (self.no_unkozai
                     + 0.5 * temp1 * rteosq * self.con41
                     + 0.0625 * temp2 * rteosq
                     * (13.0 - 78.0 * cosio2 + 137.0 * cosio4))
        self.argpdot = (-0.5 * temp1 * con42
                        + 0.0625 * temp2
                        * (7.0 - 114.0 * cosio2 + 395.0 * cosio4)
                        + temp3 * (3.0 - 36.0 * cosio2 + 49.0 * cosio4))
        xhdot1 = -temp1 * cosio
        self.nodedot = xhdot1 + (0.5 * temp2 * (4.0 - 19.0 * cosio2)
                                 + 2.0 * temp3 * (3.0 - 7.0 * cosio2)) * cosio
        self.omgcof = bstar * cc3 * np.cos(argpo)
        self.xmcof = 0.0
        if ecco > 1.0e-4:
            self.xmcof = -x2o3 * coef * bstar / eeta
        self.nodecf = 3.5 * omeosq * xhdot1 * self.cc1
        self.t2cof = 1.5 * self.cc1
        # Divide-by-zero guard for inclinations at exactly 180 deg.
        if abs(cosio + 1.0) > 1.5e-12:
            self.xlcof = (-0.25 * J3OJ2 * sinio
                          * (3.0 + 5.0 * cosio) / (1.0 + cosio))
        else:
            self.xlcof = (-0.25 * J3OJ2 * sinio
                          * (3.0 + 5.0 * cosio) / 1.5e-12)
        self.aycof = -0.5 * J3OJ2 * sinio
        delmotemp = 1.0 + self.eta * np.cos(mo)
        self.delmo = delmotemp**3
        self.sinmao = np.sin(mo)
        self.x7thm1 = 7.0 * cosio2 - 1.0

        self.d2 = self.d3 = self.d4 = 0.0
        self.t3cof = self.t4cof = self.t5cof = 0.0
        if self.isimp != 1:
            cc1sq = self.cc1 * self.cc1
            self.d2 = 4.0 * ao * tsi * cc1sq
            temp = self.d2 * tsi * self.cc1 / 3.0
            self.d3 = (17.0 * ao + sfour) * temp
            self.d4 = (0.5 * temp * ao * tsi
                       * (221.0 * ao + 31.0 * sfour) * self.cc1)
            self.t3cof = self.d2 + 2.0 * cc1sq
            self.t4cof = 0.25 * (3.0 * self.d3
                                 + self.cc1 * (12.0 * self.d2 + 10.0 * cc1sq))
            self.t5cof = 0.2 * (3.0 * self.d4
                                + 12.0 * self.cc1 * self.d3
                                + 6.0 * self.d2 * self.d2
                                + 15.0 * cc1sq * (2.0 * self.d2 + cc1sq))

        # Evaluate at epoch so unusable element sets fail here, not later.
        self.position_velocity(0.0)

    def position_velocity(self, tsince_minutes):
        """TEME position (km) and velocity (km/s) at minutes past epoch.

        tsince_minutes may be a scalar or an array of shape (n,); returns
        arrays of shape (3,) or (3, n).

        Raises DecayedOrbit if the propagated radius drops below the Earth's
        surface, PropagationError for the other SGP4 error conditions.
        """
        t = np.asarray(tsince_minutes, dtype=float)

        # Secular gravity and atmospheric drag.
        xmdf = self.mo + self.mdot * t
        argpdf = self.argpo + self.argpdot * t
        nodedf = self.nodeo + self.nodedot * t
        argpm = argpdf
        mm = xmdf
        t2 = t * t
        nodem = nodedf + self.nodecf * t2
        tempa = 1.0 - self.cc1 * t
        tempe = self.bstar * self.cc4 * t
        templ = self.t2cof * t2

        if self.isimp != 1:
            delomg = self.omgcof * t
            delmtemp = 1.0 + self.eta * np.cos(xmdf)
            delm = self.xmcof * (delmtemp**3 - self.delmo)
            temp = delomg + delm
            mm = xmdf + temp
            argpm = argpdf - temp
            t3 = t2 * t
            t4 = t3 * t
            tempa = tempa - self.d2 * t2 - self.d3 * t3 - self.d4 * t4
            tempe = tempe + self.bstar * self.cc5 * (np.sin(mm) - self.sinmao)
            templ = (templ + self.t3cof * t3
                     + t4 * (self.t4cof + t * self.t5cof))

        nm = self.no_unkozai
        am = (XKE / nm) ** (2.0 / 3.0) * tempa * tempa
        if np.any(am <= 0.0):
            raise DecayedOrbit(
                "drag terms collapsed the semi-major axis; the element set "
                "is not usable this far from its epoch")
        nm = XKE / am**1.5
        em = self.ecco - tempe

        if np.any(em >= 1.0) or np.any(em < -0.001):
            raise PropagationError(
                "mean eccentricity drifted outside [0, 1) during propagation")
        em = np.maximum(em, 1.0e-6)
        mm = mm + self.no_unkozai * templ
        xlm = mm + argpm + nodem

        nodem = _signed_mod(nodem, TWOPI)
        argpm = argpm % TWOPI
        xlm = xlm % TWOPI
        mm = (xlm - argpm - nodem) % TWOPI

        sinim = np.sin(self.inclo)
        cosim = np.cos(self.inclo)

        # Near-Earth branch: no lunar-solar periodics; perturbed elements
        # equal the secular ones.
        ep = em
        xincp = self.inclo
        argpp = argpm
        nodep = nodem
        mp = mm
        sinip = sinim
        cosip = cosim

        # Long-period periodics.
        axnl = ep * np.cos(argpp)
        temp = 1.0 / (am * (1.0 - ep * ep))
        aynl = ep * np.sin(argpp) + temp * self.aycof
        xl = mp + argpp + nodep + temp * self.xlcof * axnl

        u = (xl - nodep) % TWOPI
        sineo1, coseo1 = _kepler(u, axnl, aynl)

        # Short-period preliminary quantities.
        ecose = axnl * coseo1 + aynl * sineo1
        esine = axnl * sineo1 - aynl * coseo1
        el2 = axnl * axnl + aynl * aynl
        pl = am * (1.0 - el2)
        if np.any(pl < 0.0):
            raise PropagationError("semilatus rectum became negative")

        rl = am * (1.0 - ecose)
        rdotl = np.sqrt(am) * esine / rl
        rvdotl = np.sqrt(pl) / rl
        betal = np.sqrt(1.0 - el2)
        temp = esine / (1.0 + betal)
        sinu = am / rl * (sineo1 - aynl - axnl * temp)
        cosu = am / rl * (coseo1 - axnl + aynl * temp)
        su = np.arctan2(sinu, cosu)
        sin2u = (cosu + cosu) * sinu
        cos2u = 1.0 - 2.0 * sinu * sinu
        temp = 1.0 / pl
        temp1 = 0.5 * J2 * temp
        temp2 = temp1 * temp

        mrt = (rl * (1.0 - 1.5 * temp2 * betal * self.con41)
               + 0.5 * temp1 * self.x1mth2 * cos2u)
        su = su - 0.25 * temp2 * self.x7thm1 * sin2u
        xnode = nodep + 1.5 * temp2 * cosip * sin2u
        xinc = xincp + 1.5 * temp2 * cosip * sinip * cos2u
        mvt = rdotl - nm * temp1 * self.x1mth2 * sin2u / XKE
        rvdot = rvdotl + nm * temp1 * (self.x1mth2 * cos2u
                                       + 1.5 * self.con41) / XKE

        # Orientation vectors and the final state.
        sinsu = np.sin(su)
        cossu = np.cos(su)
        snod = np.sin(xnode)
        cnod = np.cos(xnode)
        sini = np.sin(xinc)
        cosi = np.cos(xinc)
        xmx = -snod * cosi
        xmy = cnod * cosi
        ux = xmx * sinsu + cnod * cossu
        uy = xmy * sinsu + snod * cossu
        uz = sini * sinsu
        vx = xmx * cossu - cnod * sinsu
        vy = xmy * cossu - snod * sinsu
        vz = sini * cossu

        if np.any(mrt < 1.0):
            raise DecayedOrbit(
                "propagated radius fell below the Earth's surface; "
                "the satellite has decayed")

        mr = mrt * EARTH_RADIUS_KM
        vkmpersec = EARTH_RADIUS_KM * XKE / 60.0
        r = np.stack([mr * ux, mr * uy, mr * uz])
        v = np.stack([(mvt * ux + rvdot * vx) * vkmpersec,
                      (mvt * uy + rvdot * vy) * vkmpersec,
                      (mvt * uz + rvdot * vz) * vkmpersec])
        return r, v
