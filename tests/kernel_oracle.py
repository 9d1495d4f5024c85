"""The pairing kernel and its first two derivatives from the defining form,
for the mpmath oracles of the tests; shares no code with sobstab."""


def kernel_mp(mp, e, d, s):
    """F(e), dF/de and d^2F/de^2 of F(t) = t^a 2F1(a, d/2; d; 1 - t^2),
    a = (d - 2s)/2, at the ratio t >= 1 with t + 1/t - 2 = e, at mpmath's
    working precision: d/dz 2F1(a, b; c; z) = (a b / c) 2F1(a+1, b+1; c+1; z)
    (DLMF 15.5.1) and the chain rule through t."""
    a, b, c = (mp.mpf(d) - 2 * mp.mpf(s)) / 2, mp.mpf(d) / 2, mp.mpf(d)
    t = 1 + (e + mp.sqrt(e * (e + 4))) / 2
    z = 1 - t * t
    h0 = mp.hyp2f1(a, b, c, z)
    h1 = a * b / c * mp.hyp2f1(a + 1, b + 1, c + 1, z)
    h2 = a * b / c * (a + 1) * (b + 1) / (c + 1) * mp.hyp2f1(a + 2, b + 2, c + 2, z)
    f_t = a * t ** (a - 1) * h0 - 2 * t ** (a + 1) * h1
    f_tt = (
        a * (a - 1) * t ** (a - 2) * h0
        - 2 * (2 * a + 1) * t**a * h1
        + 4 * t ** (a + 2) * h2
    )
    t_e = t * t / (t * t - 1)
    t_ee = -2 * t**3 / (t * t - 1) ** 3
    return t**a * h0, f_t * t_e, f_tt * t_e * t_e + f_t * t_ee
