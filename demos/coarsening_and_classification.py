"""How regrading changes a ring's character.

The group algebra F2[Z/2] carries its natural Z/2-grading, under which
every nonzero homogeneous element is invertible -- it is a graded field.
Forgetting the grading (coarsening along Z/2 ->> 0) leaves the ring
untouched but enlarges the set of homogeneous elements, and suddenly
e0 + e1 is a homogeneous element squaring to zero.  Rings and group
maps are read from the JSON documents the command line takes.
"""

from gradex.abgroups import kernel_data
from gradex.cli import hom_from_json, ring_from_json
from gradex.gcore import classify_ring
from gradex.gfunct import coarsen

Z, ZERO = {"free_rank": 1, "torsion": []}, {}


def polynomial_quotient(p, n, group=Z):
    """F_p[X]/(X^n) graded by Z, or F_p[Z/n] = F_p[X]/(X^n - 1) graded
    by Z/n, with deg X = 1."""
    wraps = group is not Z
    return ring_from_json({
        "group": group, "field": {"p": p},
        "basis": [{"degree": [k]} for k in range(n)],
        "mul": [[i, j, [[(i + j) % n, "1"]]] for i in range(n)
                for j in range(n) if wraps or i + j < n],
        "unit": ["1"] + ["0"] * (n - 1)})


def group_map(source, target, matrix):
    return hom_from_json({"source": source, "target": target,
                          "matrix": matrix})


def main():
    Z2, Z3 = {"torsion": [2]}, {"torsion": [3]}
    R = polynomial_quotient(2, 2, Z2)
    fine = classify_ring(R)
    print("F2[Z/2], fine Z/2-grading:")
    print(f"  simple={fine.simple} entire={fine.entire} "
          f"reduced={fine.reduced}")

    Rc = coarsen(R, group_map(Z2, ZERO, []))
    coarse = classify_ring(Rc)
    print("same ring, trivially graded:")
    print(f"  simple={coarse.simple} entire={coarse.entire} "
          f"reduced={coarse.reduced}")

    w = Rc.element([1, 1])
    print(f"  witness: (e0 + e1)^2 = 0 ? {not any(Rc.act_vec(w, w))}")
    print(f"  e0 + e1 homogeneous after coarsening? "
          f"{Rc.vec_degree(w) is not None}")

    print()
    print("When the kernel of the regrading map is torsion-free this")
    print("cannot happen -- entirety and reducedness carry over:")
    product_field = ring_from_json({
        "group": Z, "field": {"p": 2}, "basis": [{"degree": [0]}] * 2,
        "mul": [[0, 0, [[0, "1"]]], [1, 1, [[1, "1"]]]], "unit": ["1", "1"]})
    pairs = [(polynomial_quotient(2, 2), group_map(Z, Z2, [[1]])),
             (polynomial_quotient(2, 3), group_map(Z, ZERO, [])),
             (polynomial_quotient(3, 2), group_map(Z, Z3, [[1]])),
             (polynomial_quotient(3, 1), group_map(Z, ZERO, [])),
             (product_field, group_map(Z, Z2, [[1]])),
             (polynomial_quotient(2, 2, Z2), group_map(Z2, ZERO, [])),
             (polynomial_quotient(3, 3, Z3), group_map(Z3, ZERO, []))]
    for ring, psi in pairs:
        _, _, torsionfree, _, _ = kernel_data(psi)
        f = classify_ring(ring)
        c = classify_ring(coarsen(ring, psi))
        tag = "torsion-free kernel" if torsionfree else "torsion kernel  "
        print(f"  [{tag}] entire {f.entire}->{c.entire}, "
              f"reduced {f.reduced}->{c.reduced}")


if __name__ == "__main__":
    main()
