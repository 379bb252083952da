"""How the super-replication price grows with the bid-ask spread.

Prices a call across a friction grid on a three-period tree and checks the
structure the duality predicts: the curve starts at the frictionless value,
never decreases, shifts one-for-one with cash added to the payoff, and scales
linearly with the payoff size.
"""

from spreadhedge import ClaimSpec, generate_random_tree, price_curve, superhedge_price

RULE = "=" * 72


def main():
    tree = generate_random_tree(seed=12, depth=3, max_branching=3)
    strike = tree.price[0]
    claim = ClaimSpec(
        {int(l): max(float(tree.price[l] - strike), 0.0) for l in tree.leaves}
    )
    grid = [0.0, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5]

    print(RULE)
    print(f"At-the-money call on a generated tree "
          f"({tree.node_count} nodes, {len(tree.leaves)} scenarios)")
    print(RULE)

    curve = price_curve(tree, claim, grid)
    print(f"{'lambda':>8} {'price':>14} {'premium over frictionless':>28}")
    base = curve[0].primal_value
    for report in curve:
        price = report.primal_value
        print(f"{report.lam:8.2f} {price:14.6f} {price - base:28.6f}")
    print()
    print("price_curve already certifies the curve is nondecreasing")
    print()

    lam = 0.1
    shift, scale = 25.0, 4.0
    p = superhedge_price(tree, lam, claim).primal_value
    shifted = ClaimSpec({k: v + shift for k, v in claim.payoffs.items()})
    scaled = ClaimSpec({k: scale * v for k, v in claim.payoffs.items()})
    p_shift = superhedge_price(tree, lam, shifted).primal_value
    p_scale = superhedge_price(tree, lam, scaled).primal_value

    print("structure checks at lambda = 0.1")
    print("-" * 72)
    print(f"  price(X)            = {p:.9f}")
    print(f"  price(X + {shift:.0f})       = {p_shift:.9f}   expected {p + shift:.9f}")
    print(f"  price({scale:.0f} * X)       = {p_scale:.9f}   expected {scale * p:.9f}")
    assert abs(p_shift - (p + shift)) < 1e-9 * (1 + abs(p))
    assert abs(p_scale - scale * p) < 1e-9 * (1 + abs(p))
    print()
    print("OK: cash invariance and positive homogeneity hold to 1e-9")


if __name__ == "__main__":
    main()
