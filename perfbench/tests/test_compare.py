from compare import verdict


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [(p, 0.8 * p) for p in parent]
    assert verdict(faster, "lower", 0.1) == ("better", 10)
    assert verdict(faster, "higher", 0.1)[0] == "worse"
    assert verdict([(p, p * 1.03) for p in parent], "lower", 0.1) == ("unchanged", 0)
    noisy = [(p, c) for p, c in zip(parent, [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0])]
    assert verdict(noisy, "lower", 0.1)[0] == "unresolved"
