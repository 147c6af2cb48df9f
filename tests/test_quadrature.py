from asympush.quadrature import quad_interval


def test_imaginary_part_missed_by_the_probes_is_kept():
    # the three probe points see 0.0; the imaginary part lives on [0.9, 1]
    val, _ = quad_interval(lambda x: 0.0 if x < 0.9 else 1j, 0.0, 1.0)
    assert abs(val - 0.1j) < 1e-9
    val, _ = quad_interval(lambda x: x if x < 0.9 else complex(x, 0.0), 0.0, 1.0)
    assert val == 0.5 and isinstance(val, float)  # zero imaginary parts stay on the real path
