from affine_fields import AffineField


def random_affine_field(rng, n) -> AffineField:
    return AffineField(
        rng.uniform(-2.0, 2.0, size=(n, n)),
        rng.uniform(-2.0, 2.0, size=n),
    )
