"""How regrading changes a ring's character.

The group algebra F2[Z/2] carries its natural Z/2-grading, under which
every nonzero homogeneous element is invertible -- it is a graded field.
Forgetting the grading (coarsening along Z/2 ->> 0) leaves the ring
untouched but enlarges the set of homogeneous elements, and suddenly
e0 + e1 is a homogeneous element squaring to zero.
"""

from gradex import samples as S
from gradex.gcore import classify_ring
from gradex.gfunct import coarsen


def main():
    R = S.group_algebra(2, 2)
    fine = classify_ring(R)
    print("F2[Z/2], fine Z/2-grading:")
    print(f"  simple={fine.simple} entire={fine.entire} "
          f"reduced={fine.reduced}")

    Rc = coarsen(R, S.psi_Zmod_to_zero(2))
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
    import gradex.abgroups as ag
    for ring, psi in S.coarsening_pairs():
        _, _, torsionfree, _, _ = ag.kernel_data(psi)
        f = classify_ring(ring)
        c = classify_ring(coarsen(ring, psi))
        tag = "torsion-free kernel" if torsionfree else "torsion kernel  "
        print(f"  [{tag}] entire {f.entire}->{c.entire}, "
              f"reduced {f.reduced}->{c.reduced}")


if __name__ == "__main__":
    main()
