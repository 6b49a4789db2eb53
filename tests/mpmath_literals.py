"""Reference values from mpmath, rounded to double and committed as literals.

Running this file with mpmath installed prints the values again (mpmath
1.3.0 made these); at 60 digits they take about 2 s, so the tests read them here.

* ``TINY_EXTINCTION`` holds, at 60 digits, the extinction width
  -(4/k) Re sum' beta k J_n'^2 / (W - beta k J_n' H_n') of a capsule of radius
  ``TINY_RADIUS`` with the fixed ``TINY_BETA`` at the wavelengths
  ``linspace(6.5e-7, 1.7e-6, 16)``, with k and z = k r taken as the doubles
  the package computes.
"""

TINY_RADIUS = 1e-20
TINY_BETA = (3 + 2j) * 1e-9
TINY_EXTINCTION = (
    1.869084592204687e-44, 1.687320644937639e-44, 1.537778993827377e-44,
    1.4125882625148242e-44, 1.3062480015404883e-44, 1.2147984689565768e-44,
    1.135316454562454e-44, 1.0655969334998005e-44, 1.0039452620327525e-44,
    9.490375818097507e-45, 8.998246667648061e-45, 8.554642171950356e-45,
    8.152722432736777e-45, 7.786875404366642e-45, 7.452453201427793e-45,
    7.145573565517736e-45,
)


if __name__ == "__main__":
    import mpmath
    import numpy as np

    mpmath.mp.dps = 60
    beta = mpmath.mpc(TINY_BETA.real, TINY_BETA.imag)
    widths = []
    for lam in np.linspace(6.5e-7, 1.7e-6, 16):
        k = 2.0 * np.pi / lam
        z = k * TINY_RADIUS
        bk, zz = beta * mpmath.mpf(k), mpmath.mpf(z)
        total = 0
        for n in range(int(np.ceil(z)) + 17):
            Jp = mpmath.besselj(n, zz, derivative=1)
            Hp = Jp - 1j * mpmath.bessely(n, zz, derivative=1)
            total += (1 if n == 0 else 2) * bk * Jp**2 / (-2j / (mpmath.pi * zz) - bk * Jp * Hp)
        widths.append(float(-4 / mpmath.mpf(k) * mpmath.re(total)))
    print(widths)
